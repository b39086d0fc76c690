import math

import numpy as np
import pytest

from whindex import (
    BlaschkeSpec,
    CONTINUOUS,
    DISCRETE,
    InputValidationError,
    Realization,
    StructureError,
    SymbolPair,
    blaschke_realization,
    c2d,
    cascade,
    constant_realization,
    direct_sum,
    eval_transfer,
    full_profile,
    unitary_twist,
    validate_stable_dissipative,
    validate_stable_unitary,
    zeta_power_realization,
)
from whindex.core import opnorm
from whindex.sampling import random_blaschke_spec, random_mimo_realization, random_unitary

SQRT2 = math.sqrt(2.0)


def test_validate_dissipative_zeta_block():
    report = validate_stable_dissipative(zeta_power_realization(3))
    assert report.verdict
    assert report.residual < 1e-12


def test_validate_dissipative_unstable_state():
    r = Realization([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    report = validate_stable_dissipative(r)
    assert not report.stable
    assert not report.verdict


def test_validate_dissipative_feedthrough_residual():
    r = Realization([[-1.0]], [[-SQRT2]], [[SQRT2]], [[2.0]])
    report = validate_stable_dissipative(r)
    assert abs(report.residual - 3.0) < 1e-12
    assert not report.verdict


def test_validate_unitary_cayley_of_zeta_block():
    report = validate_stable_unitary(c2d(zeta_power_realization(1)))
    assert report.verdict
    assert report.residual < 1e-12


def test_validate_unitary_shift_realization():
    r = Realization([[0.0]], [[1.0]], [[1.0]], [[0.0]], DISCRETE)
    report = validate_stable_unitary(r)
    assert report.verdict


def test_validate_unitary_unstable():
    r = Realization([[2.0]], [[1.0]], [[1.0]], [[0.0]], DISCRETE)
    report = validate_stable_unitary(r)
    assert not report.stable


def test_validate_flavor_mismatch():
    with pytest.raises(StructureError):
        validate_stable_dissipative(Realization([[0.0]], [[1.0]], [[1.0]], [[0.0]], DISCRETE))
    with pytest.raises(StructureError):
        validate_stable_unitary(zeta_power_realization(1))


def test_eval_transfer_values():
    assert abs(eval_transfer(zeta_power_realization(1), 0.0)[0, 0] - 1.0) < 1e-14
    assert abs(eval_transfer(zeta_power_realization(2), 1.0)[0, 0]) < 1e-14
    r = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    assert abs(eval_transfer(r, 0.0)[0, 0] - (-1.0)) < 1e-14


def test_eval_transfer_discrete_at_zero_is_feedthrough():
    r = Realization([[0.0]], [[1.0]], [[1.0]], [[0.5]], DISCRETE)
    assert abs(eval_transfer(r, 0.0)[0, 0] - 0.5) < 1e-15
    assert abs(eval_transfer(r, 0.25)[0, 0] - 0.75) < 1e-15


def test_direct_sum_of_constants():
    r = direct_sum(constant_realization([[1.0]]), constant_realization([[1.0]]))
    assert r.state_dim == 0
    assert opnorm(r.d - np.eye(2)) == 0.0


def test_direct_sum_matches_block_layout():
    r = direct_sum(zeta_power_realization(4), zeta_power_realization(2))
    assert r.state_dim == 6
    expected = np.zeros((6, 6), dtype=complex)
    expected[:4, :4] = zeta_power_realization(4).a
    expected[4:, 4:] = zeta_power_realization(2).a
    assert opnorm(r.a - expected) == 0.0
    assert validate_stable_dissipative(r).verdict


def test_direct_sum_commutes_with_eval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_mimo_realization(rng, 2, 2)
        y = random_mimo_realization(rng, 1, 2)
        s = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
        got = eval_transfer(direct_sum(x, y), s)
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = eval_transfer(x, s)
        expected[2:, 2:] = eval_transfer(y, s)
        assert opnorm(got - expected) < 1e-10


def test_n_ary_direct_sum_is_bitwise_the_binary_fold():
    rng = np.random.default_rng(3113)
    for _ in range(10):
        x, y, z = (random_mimo_realization(rng, int(rng.integers(1, 3)), 2) for _ in range(3))
        summed, folded = direct_sum(x, y, z), direct_sum(direct_sum(x, y), z)
        for name in "abcd":
            assert getattr(summed, name).shape == getattr(folded, name).shape
            assert getattr(summed, name).tobytes() == getattr(folded, name).tobytes()
    assert direct_sum(x).a.tobytes() == x.a.tobytes()


def test_direct_sum_of_no_parts_is_the_empty_continuous_constant():
    r = direct_sum()
    assert (r.state_dim, r.output_dim, r.flavor) == (0, 0, CONTINUOUS)


def test_direct_sum_refuses_mixed_flavors():
    x = zeta_power_realization(1)
    with pytest.raises(StructureError, match="matching flavors"):
        direct_sum(x, x, c2d(x))


def test_cascade_refuses_mixed_flavors_discrete_factors_and_unequal_outputs():
    x = zeta_power_realization(1)
    for outer, inner, message in (
        (x, c2d(x), "^cascade requires matching flavors$"),
        (c2d(x), c2d(x), "^cascade is defined for continuous realizations$"),
        (x, direct_sum(x, x), "^cascade output dimensions differ: 1 vs 2$"),
    ):
        with pytest.raises(StructureError, match=message):
            cascade(outer, inner)


def test_cascade_squares_the_zeta_block():
    zeta = zeta_power_realization(1)
    squared = cascade(zeta, zeta)
    assert abs(eval_transfer(squared, 1.0)[0, 0]) < 1e-14
    reference = zeta_power_realization(2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = complex(rng.uniform(0, 3), rng.uniform(-3, 3))
        diff = abs(eval_transfer(squared, s)[0, 0] - eval_transfer(reference, s)[0, 0])
        assert diff < 1e-10


def test_cascade_preserves_validity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = blaschke_realization(random_blaschke_spec(rng, int(rng.integers(1, 4))))
        y = blaschke_realization(random_blaschke_spec(rng, int(rng.integers(1, 4))))
        assert validate_stable_dissipative(cascade(x, y)).verdict


def test_unitary_twist_identity_is_noop():
    r = zeta_power_realization(2)
    twisted = unitary_twist(r, np.eye(1), "left")
    assert opnorm(twisted.c - r.c) == 0.0
    assert opnorm(twisted.d - r.d) == 0.0


def test_unitary_twist_left_transfer_and_validity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        r = random_mimo_realization(rng, 2, 2)
        u = random_unitary(rng, 2)
        twisted = unitary_twist(r, u, "left")
        s = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
        assert opnorm(eval_transfer(twisted, s) - u @ eval_transfer(r, s)) < 1e-10
        assert validate_stable_dissipative(twisted).verdict
        twisted = unitary_twist(r, u, "right")
        assert opnorm(eval_transfer(twisted, s) - eval_transfer(r, s) @ u) < 1e-10
        assert validate_stable_dissipative(twisted).verdict


def test_unitary_twist_rejects_non_unitary():
    with pytest.raises(StructureError):
        unitary_twist(zeta_power_realization(1), np.array([[2.0]]), "left")


def test_unitary_twist_refuses_a_wrongly_sized_twist_or_an_unknown_side():
    r = zeta_power_realization(1)
    with pytest.raises(StructureError, match=r"^twist matrix must be 1x1, got \(2, 2\)$"):
        unitary_twist(r, np.eye(2), "left")
    with pytest.raises(StructureError, match="^side must be 'left' or 'right', got 'top'$"):
        unitary_twist(r, np.eye(1), "top")


def test_unitary_twist_refuses_a_non_finite_matrix():
    with pytest.raises(StructureError, match="^twist matrix has a NaN or infinite entry$"):
        unitary_twist(zeta_power_realization(1), [[float("nan")]], "left")


def test_boundary_unitarity_of_valid_realizations():
    rng = np.random.default_rng(21)
    r = random_mimo_realization(rng, 3, 2)
    eye = np.eye(3)
    for omega in rng.uniform(-30, 30, 50):
        value = eval_transfer(r, 1j * omega)
        assert opnorm(value @ value.conj().T - eye) < 1e-8


def test_realization_refuses_non_finite_entries():
    entries = {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]], "d": [[1.0]]}
    Realization(**entries)
    for name in entries:
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            with pytest.raises(StructureError, match=f"^{name} has a NaN or infinite entry$"):
                Realization(**{**entries, name: [[bad]]})


def test_realization_shape_checks():
    with pytest.raises(StructureError):
        Realization([[0.0, 1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(StructureError):
        Realization([[0.0]], [[1.0], [2.0]], [[1.0]], [[1.0]])
    with pytest.raises(StructureError):
        Realization([[0.0]], [[1.0]], [[1.0]], [[1.0]], flavor="sampled")
    with pytest.raises(StructureError, match=r"^d must be square, got shape \(1, 2\)$"):
        Realization([[0.0]], [[1.0, 0.0]], [[1.0]], [[1.0, 0.0]])
    with pytest.raises(StructureError, match=r"^c must be 1x1, got shape \(1, 2\)$"):
        Realization([[0.0]], [[1.0]], [[1.0, 2.0]], [[1.0]])


def test_realizations_are_immutable():
    r = zeta_power_realization(2)
    with pytest.raises(ValueError):
        r.a[0, 0] = 5.0


def test_dissipation_residual_is_the_spectral_norm_of_the_energy_defect():
    rng = np.random.default_rng(5)
    r = zeta_power_realization(5)
    a = r.a + 1e-3 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    report = validate_stable_dissipative(Realization(a, r.b, r.c, r.d))
    defect = opnorm(a + a.conj().T + r.c.conj().T @ r.c)
    assert defect > 1e-4
    assert report.residual == pytest.approx(defect, rel=1e-12)


def _residual_cases():
    """(name, factor, dominating defect) with one balance defect well above the others:
    a perturbed state map, d = 2 and a perturbed b of a continuous factor, and a
    perturbed state map of a discrete one, whose one defect is S*S - I."""
    rng = np.random.default_rng(6)
    r = zeta_power_realization(3)
    noise = 1e-3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = r.a + noise
    b = r.b + 1e-3 * np.array([[1.0], [-2.0], [0.5j]])
    ch = r.c.conj().T
    doubled = Realization([[-1.0]], [[-SQRT2]], [[SQRT2]], [[2.0]])
    rd = c2d(r)
    ad = rd.a + noise
    s = np.block([[ad, rd.b], [rd.c, rd.d]])
    return [
        ("energy", Realization(a, r.b, r.c, r.d), a + a.conj().T + ch @ r.c),
        ("feedthrough", doubled, np.array([[3.0]])),
        ("coupling", Realization(r.a, b, r.c, r.d), b + ch @ r.d),
        ("system", Realization(ad, rd.b, rd.c, rd.d, DISCRETE), s.conj().T @ s - np.eye(4)),
    ]


@pytest.mark.parametrize("name", ["energy", "feedthrough", "coupling", "system"])
def test_the_residual_is_the_2_norm_of_the_dominating_balance_defect(name):
    _, r, defect = next(case for case in _residual_cases() if case[0] == name)
    validate = validate_stable_unitary if r.flavor == DISCRETE else validate_stable_dissipative
    report = validate(r)
    assert report.stable and not report.verdict
    assert report.residual > 1e-4
    assert report.residual == pytest.approx(np.linalg.norm(defect, 2), rel=1e-12)


def test_full_profile_prints_the_residual_of_a_refused_discrete_factor():
    _, r, _ = _residual_cases()[3]
    good = c2d(zeta_power_realization(1))
    expected = (
        f"factor w is not stable unitary "
        f"(stable=True, max residual={validate_stable_unitary(r).residual:.3e})"
    )
    with pytest.raises(InputValidationError) as info:
        full_profile(SymbolPair(good, r))
    assert str(info.value) == expected
