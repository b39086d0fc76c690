import math

import numpy as np
import pytest

import cascade_oracle
from whindex import (
    BlaschkeSpec,
    EvaluationError,
    Polynomial,
    PreconditionError,
    StructureError,
    blaschke_eval,
    blaschke_eval_at_minus,
    blaschke_of_minus_A,
    blaschke_realization,
    defect_rank,
    diagonal_symbol_factors,
    eval_transfer,
    full_profile,
    p_sharp,
    poly_of_matrix,
    recover_blaschke_pointwise,
    unit_eigenvectors,
    validate_stable_dissipative,
    zeta_of_minus,
    zeta_power_realization,
)
from whindex.core import Realization, opnorm
from whindex.equations import CONDITION_LIMIT
from whindex.sampling import (
    random_blaschke_spec,
    random_hurwitz_matrix,
    random_rank_one_dissipative,
    random_unitary,
)

SQRT2 = math.sqrt(2.0)


def test_zeta_power_one_is_the_balanced_block():
    r = zeta_power_realization(1)
    assert abs(r.a[0, 0] + 1.0) < 1e-15
    assert abs(r.b[0, 0] - SQRT2) < 1e-15
    assert abs(r.c[0, 0] - SQRT2) < 1e-15
    assert abs(r.d[0, 0] + 1.0) < 1e-15


def test_zeta_power_two_feedthrough_and_zero():
    r = zeta_power_realization(2)
    assert abs(r.d[0, 0] - 1.0) < 1e-15
    assert abs(eval_transfer(r, 1.0)[0, 0]) < 1e-14


def test_zeta_power_closed_form_matches_inverse_computation():
    for n in (1, 2, 3, 5, 8):
        j = np.eye(n, k=1)
        inv = np.linalg.inv(np.eye(n) + j)
        r = zeta_power_realization(n)
        assert opnorm(r.a - (j - np.eye(n)) @ inv) < 1e-13
        assert opnorm(r.b - SQRT2 * inv[:, [n - 1]]) < 1e-13
        assert opnorm(r.c - SQRT2 * inv[[0], :]) < 1e-13
        assert abs(r.d[0, 0] - (-1.0) ** n) < 1e-15


def test_zeta_power_four_is_unimodular_on_axis():
    r = zeta_power_realization(4)
    rng = np.random.default_rng(1)
    for omega in rng.uniform(-10, 10, 10):
        assert abs(abs(eval_transfer(r, 1j * omega)[0, 0]) - 1.0) < 1e-10


def test_zeta_power_state_matrix_is_the_toeplitz_sum_bit_for_bit():
    # The sum of shifted identities the state matrix is defined by, O(n^3) to build.
    for n in list(range(1, 21)) + [128]:
        a = -np.eye(n, dtype=complex)
        for k in range(1, n):
            a += 2.0 * (-1.0) ** (k + 1) * np.eye(n, k=k, dtype=complex)
        assert zeta_power_realization(n).a.tobytes() == a.tobytes()


def test_zeta_power_rejects_nonpositive():
    with pytest.raises(StructureError):
        zeta_power_realization(0)


def test_blaschke_realization_simple_pole():
    r = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    assert r.state_dim == 1
    assert abs(eval_transfer(r, 0.0)[0, 0] - (-1.0)) < 1e-14


def test_blaschke_realization_with_flip_matches_zeta_block():
    r = blaschke_realization(BlaschkeSpec(-1.0, (-1.0,)))
    reference = zeta_power_realization(1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = complex(rng.uniform(0, 3), rng.uniform(-3, 3))
        diff = abs(eval_transfer(r, s)[0, 0] - eval_transfer(reference, s)[0, 0])
        assert diff < 1e-10


def test_blaschke_realization_unimodular_on_axis():
    r = blaschke_realization(BlaschkeSpec(1.0, (-1.0, -2.0 + 1.0j)))
    assert r.state_dim == 2
    assert validate_stable_dissipative(r).verdict
    rng = np.random.default_rng(3)
    for omega in rng.uniform(-10, 10, 10):
        assert abs(abs(eval_transfer(r, 1j * omega)[0, 0]) - 1.0) < 1e-10


def test_blaschke_realization_matches_pointwise_formula():
    rng = np.random.default_rng(4)
    for _ in range(10):
        spec = random_blaschke_spec(rng, int(rng.integers(0, 5)))
        r = blaschke_realization(spec)
        s = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
        assert abs(eval_transfer(r, s)[0, 0] - blaschke_eval(spec, s)) < 1e-10


def _bitwise_equal(x, y):
    return all(getattr(x, k).shape == getattr(y, k).shape
               and getattr(x, k).tobytes() == getattr(y, k).tobytes() for k in "abcd")


def test_closed_form_blaschke_is_bitwise_the_cascade_of_sections():
    rng = np.random.default_rng(3111)
    for degree in range(41):
        for kind in ("distinct", "repeated", "near axis"):
            spec = random_blaschke_spec(rng, degree)
            poles = list(spec.poles)
            if kind == "repeated" and degree:
                poles = [poles[0]] * (degree // 2) + poles[degree // 2 :]
            if kind == "near axis" and degree:
                poles[int(rng.integers(degree))] = complex(-10.0 ** -rng.uniform(6, 14), rng.uniform(-3, 3))
            for rho in (spec.rho, 1.0, -1.0):
                spec = BlaschkeSpec(rho, tuple(poles))
                assert _bitwise_equal(blaschke_realization(spec), cascade_oracle.cascaded_blaschke(spec)), (
                    degree, kind, rho)


def test_blaschke_realization_constructs_one_realization(monkeypatch):
    constructed = []
    post_init = Realization.__post_init__
    monkeypatch.setattr(Realization, "__post_init__", lambda r: constructed.append(r) or post_init(r))
    r = blaschke_realization(random_blaschke_spec(np.random.default_rng(3112), 12))
    assert constructed == [r]


def test_diagonal_symbol_factors_of_no_powers_is_the_empty_profile():
    pair = diagonal_symbol_factors([])
    for r in (pair.v, pair.w):
        assert (r.state_dim, r.output_dim, r.flavor) == (0, 0, "continuous")
    assert full_profile(pair).all_indices == ()


def test_blaschke_spec_validation():
    with pytest.raises(StructureError):
        BlaschkeSpec(2.0, (-1.0,))
    with pytest.raises(StructureError):
        BlaschkeSpec(1.0, (1.0,))


def test_blaschke_spec_refuses_non_finite_numbers():
    for rho, poles in [(complex(np.nan, 0.0), ()), (np.inf, (-1.0,)), (1.0, (np.nan,)),
                       (1.0, (-1.0, complex(-1.0, np.inf)))]:
        with pytest.raises(StructureError, match="^rho and the poles must be finite numbers$"):
            BlaschkeSpec(rho, poles)


def test_polynomial_refuses_non_finite_coefficients():
    for coeffs in [(1.0, np.nan), (np.inf, 1.0), (complex(1.0, -np.inf), 1.0)]:
        with pytest.raises(StructureError, match="^polynomial coefficients must be finite numbers$"):
            Polynomial(coeffs)


def test_diagonal_symbol_factors_block_structure():
    pair = diagonal_symbol_factors([-4, -2, 0, 3, 5])
    assert pair.v.state_dim == 8
    assert pair.w.state_dim == 6
    assert validate_stable_dissipative(pair.v).verdict
    assert validate_stable_dissipative(pair.w).verdict

    pair = diagonal_symbol_factors([0, 0])
    assert pair.v.state_dim == 0 and pair.w.state_dim == 0
    assert opnorm(pair.v.d - np.eye(2)) == 0.0

    pair = diagonal_symbol_factors([1])
    assert pair.v.state_dim == 1 and pair.w.state_dim == 0
    assert abs(pair.w.d[0, 0] - 1.0) == 0.0


def test_p_sharp_examples():
    assert p_sharp(Polynomial((1, 1))).coeffs == (1 + 0j, -1 + 0j)
    assert p_sharp(Polynomial((1, 0, 1))).coeffs == (1 + 0j, 0j, 1 + 0j)
    assert p_sharp(Polynomial((1j,))).coeffs == (-1j,)


def test_poly_of_matrix_nilpotent_and_constant():
    j2 = np.eye(2, k=1)
    assert opnorm(poly_of_matrix(Polynomial((0, 0, 1)), j2)) == 0.0
    assert opnorm(poly_of_matrix(Polynomial((3.0,)), np.ones((2, 2))) - 3 * np.eye(2)) == 0.0


def test_poly_of_matrix_against_power_sum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        degree = int(rng.integers(0, 6))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        if coeffs[-1] == 0:
            coeffs[-1] = 1.0
        p = Polynomial(tuple(coeffs))
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = sum(
            coeffs[k] * np.linalg.matrix_power(m, k) for k in range(degree + 1)
        )
        assert opnorm(poly_of_matrix(p, m) - expected) < 1e-10 * (1 + opnorm(expected))


def test_blaschke_of_minus_A_scalar_zero():
    value = blaschke_of_minus_A(Polynomial((1, 1)), np.array([[-1.0]]))
    assert abs(value[0, 0]) < 1e-15


@pytest.mark.parametrize("a", [np.diag([1.0, 3.0]), np.array([[1.0, 1.0], [0.0, 3.0]])])
def test_blaschke_of_minus_A_refuses_a_root_shared_with_minus_a(a):
    # -1 is a root of p and an eigenvalue of -a, so p(-a) is singular.
    with pytest.raises(EvaluationError, match="share spectrum"):
        blaschke_of_minus_A(Polynomial.from_roots([-1.0, -2.0]), a)


@pytest.mark.parametrize("gap", [1e-10, 1e-12, 1e-14, 0.0])
def test_blaschke_of_minus_A_refuses_by_the_numpy_condition_rule(gap):
    # p(s) = 1 + s, so p(-a) = I - a, a unitary similarity of diag(1, gap).
    p, u = Polynomial((1, 1)), random_unitary(np.random.default_rng(5), 2)
    a = u @ np.diag([0.0, 1.0 - gap]) @ u.conj().T
    if np.linalg.cond(poly_of_matrix(p, -a)) > CONDITION_LIMIT:
        with pytest.raises(EvaluationError, match="share spectrum"):
            blaschke_of_minus_A(p, a)
    else:
        assert np.isfinite(blaschke_of_minus_A(p, a)).all()


def test_blaschke_of_minus_A_contraction_on_power_block():
    a3 = zeta_power_realization(3).a
    p = Polynomial.from_roots([-1.0, -2.0])
    assert opnorm(blaschke_of_minus_A(p, a3)) <= 1.0 + 1e-10


def test_blaschke_of_minus_A_degree_one_matches_disk_map():
    rng = np.random.default_rng(6)
    p = Polynomial((1, 1))
    for _ in range(10):
        a = random_hurwitz_matrix(rng, int(rng.integers(1, 5)))
        diff = opnorm(blaschke_of_minus_A(p, a) - zeta_of_minus(a))
        assert diff < 1e-10 * (1 + opnorm(zeta_of_minus(a)))


def test_blaschke_of_minus_A_singular_denominator():
    # p has a root at 1, which is an eigenvalue of -a for a = -1.
    with pytest.raises(EvaluationError):
        blaschke_of_minus_A(Polynomial((-1, 1)), np.array([[-1.0]]))


def test_defect_rank_examples():
    assert defect_rank(np.eye(3)) == 0
    a3 = zeta_power_realization(3).a
    rng = np.random.default_rng(7)
    spec2 = random_blaschke_spec(rng, 2)
    value = blaschke_of_minus_A(Polynomial.from_roots(spec2.poles), a3)
    assert defect_rank(value) == 2
    spec5 = random_blaschke_spec(rng, 5)
    value = blaschke_of_minus_A(Polynomial.from_roots(spec5.poles), a3)
    assert defect_rank(value) == 3


def test_defect_rank_agrees_with_svd_rank():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a, _ = random_rank_one_dissipative(rng, n)
        degree = int(rng.integers(0, 8))
        spec = random_blaschke_spec(rng, degree)
        value = blaschke_of_minus_A(Polynomial.from_roots(spec.poles), a)
        gap = np.eye(n) - value.conj().T @ value
        independent = int(np.linalg.matrix_rank(gap, tol=1e-7))
        assert defect_rank(value) == independent == min(degree, n)


def test_defect_rank_rejects_expansions():
    from whindex import ContractionViolationError

    with pytest.raises(ContractionViolationError):
        defect_rank(2.0 * np.eye(2))


def test_defect_rank_refusal_carries_the_squared_singular_value():
    from whindex import ContractionViolationError

    with pytest.raises(ContractionViolationError) as info:
        defect_rank(np.diag([2.0, 0.5]))
    assert info.value.eigenvalue == pytest.approx(4.0)


def _recovery_instance(rng, n, degree):
    a, c = random_rank_one_dissipative(rng, n)
    phi = random_blaschke_spec(rng, degree)
    evaluated = blaschke_eval_at_minus(phi, a.conj().T)
    basis = unit_eigenvectors(evaluated.conj().T @ evaluated)
    assert basis.shape[1] == n - degree
    return a, c, phi, basis[:, 0]


def test_recovery_constant_case():
    rng = np.random.default_rng(9)
    a, c, _, _ = _recovery_instance(rng, 3, 1)
    rho = np.exp(0.7j)
    phi = BlaschkeSpec(rho, ())
    x = np.ones(3)
    value = recover_blaschke_pointwise(a, c, phi, x, 1.0 + 0.5j)
    assert abs(value - rho) < 1e-10


def test_recovery_degree_one():
    rng = np.random.default_rng(10)
    a, c, phi, x = _recovery_instance(rng, 2, 1)
    value = recover_blaschke_pointwise(a, c, phi, x, 1.0)
    assert abs(value - blaschke_eval(phi, 1.0)) < 1e-8


def test_recovery_degree_two_sweep():
    rng = np.random.default_rng(11)
    a, c, phi, x = _recovery_instance(rng, 3, 2)
    for _ in range(10):
        s = complex(rng.uniform(0.2, 2.5), rng.uniform(-2.5, 2.5))
        value = recover_blaschke_pointwise(a, c, phi, x, s)
        assert abs(value - blaschke_eval(phi, s)) < 1e-8


def test_recovery_rejects_bad_vector():
    rng = np.random.default_rng(12)
    a, c, phi, x = _recovery_instance(rng, 3, 2)
    evaluated = blaschke_eval_at_minus(phi, a.conj().T)
    evecs = np.linalg.eigh((evaluated.conj().T @ evaluated))[1]
    bad = evecs[:, 0]  # smallest eigenvalue, well below 1 for degree >= 1
    with pytest.raises(PreconditionError):
        recover_blaschke_pointwise(a, c, phi, bad, 1.0)


def test_recovery_rejects_excess_degree():
    rng = np.random.default_rng(13)
    a, c, _, _ = _recovery_instance(rng, 3, 1)
    phi = random_blaschke_spec(rng, 3)
    with pytest.raises(PreconditionError):
        recover_blaschke_pointwise(a, c, phi, np.ones(3), 1.0)
