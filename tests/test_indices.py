import dataclasses
import warnings

import numpy as np
import pytest

import kronecker_oracle as kron
from whindex import (
    DISCRETE,
    BlaschkeSpec,
    IndexProfile,
    InputValidationError,
    PipelineError,
    Realization,
    StructureError,
    SymbolPair,
    blaschke_eval_at_minus,
    blaschke_realization,
    c2d,
    constant_realization,
    diagonal_symbol_factors,
    direct_sum,
    discrete_negative_profile,
    full_profile,
    negative_profile,
    unitary_twist,
    validate_stable_dissipative,
)
from whindex import core, indices
from whindex.cli import build_report
from whindex.core import opnorm
from whindex.equations import CLUSTER_TOL
from whindex.sampling import random_blaschke_spec, random_symbol_pair, random_unitary


def _q(omega):
    """The contraction Q = I - omega* omega of a coupling omega."""
    return np.eye(omega.shape[1]) - omega.conj().T @ omega


def test_reference_diagonal_profile():
    pair = diagonal_symbol_factors([-4, -2, 0, 3, 5])
    profile = full_profile(pair)

    assert opnorm(profile.omega) < 1e-10
    assert opnorm(_q(profile.omega) - np.eye(6)) < 1e-8
    assert profile.negative_kernel_dims == (6, 4, 2, 1, 0)
    assert profile.mu == (2, 2, 1, 1)
    assert profile.negative == (4, 2)
    assert profile.positive == (5, 3)
    assert profile.zeros == 1
    assert profile.all_indices == (-4, -2, 0, 3, 5)
    assert profile.nu == (2, 2, 2, 1, 1)
    assert profile.positive_kernel_dims == (8, 6, 4, 2, 1, 0)
    # Every eigenvalue of both contractions is 1, at distance tol from the cut.
    margins = build_report(profile, CLUSTER_TOL)["diagnostics"]["cross_check_margins"]
    assert margins == {"negative": pytest.approx(1e-7), "positive": pytest.approx(1e-7)}


def test_identity_symbol_is_invertible():
    profile = full_profile(diagonal_symbol_factors([0]))
    assert profile.negative == ()
    assert profile.positive == ()
    assert profile.negative_kernel_dims == (0,)
    assert profile.all_indices == (0,)


def test_single_negative_power():
    profile = full_profile(diagonal_symbol_factors([-1]))
    assert profile.negative_kernel_dims == (1, 0)
    assert profile.mu == (1,)
    assert profile.negative == (1,)


def test_mixed_pair_of_powers():
    profile = full_profile(diagonal_symbol_factors([2, -2]))
    assert profile.all_indices == (-2, 2)
    assert profile.zeros == 0


def test_dual_coupling_is_adjoint():
    rng = np.random.default_rng(42)
    for _ in range(10):
        pair = random_symbol_pair(rng, max_m=3, max_block_degree=2)
        omega = full_profile(pair).omega
        dual = full_profile(pair.swapped()).omega
        if omega.size:
            assert float(np.max(np.abs(dual - omega.conj().T))) < 1e-10


def test_scalar_contraction_formula():
    rng = np.random.default_rng(43)
    for _ in range(10):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 5)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 5)))
        w = blaschke_realization(m)
        omega = full_profile(SymbolPair(blaschke_realization(phi), w)).omega
        evaluated = blaschke_eval_at_minus(phi, w.a.conj().T)
        assert opnorm(_q(omega) - evaluated.conj().T @ evaluated) < 1e-8


def test_scalar_degree_difference():
    rng = np.random.default_rng(44)
    for _ in range(15):
        f = int(rng.integers(0, 7))
        g = int(rng.integers(0, 7))
        pair = SymbolPair(
            blaschke_realization(random_blaschke_spec(rng, f)),
            blaschke_realization(random_blaschke_spec(rng, g)),
        )
        assert full_profile(pair).all_indices == (f - g,)


def test_discrete_profile_matches_continuous():
    pair = diagonal_symbol_factors([-4, -2, 0, 3, 5])
    continuous = full_profile(pair)
    discrete = full_profile(SymbolPair(c2d(pair.v), c2d(pair.w)))
    assert discrete.negative == continuous.negative == (4, 2)
    assert discrete.mu == continuous.mu
    assert opnorm(_q(discrete.omega) - _q(continuous.omega)) < 1e-8
    assert opnorm(_q(discrete.omega) - np.eye(6)) < 1e-8


def test_discrete_scalar_shift_example():
    v = constant_realization([[1.0]], DISCRETE)
    w = Realization([[0.0]], [[1.0]], [[1.0]], [[0.0]], DISCRETE)
    profile = full_profile(SymbolPair(v, w))
    assert profile.negative_kernel_dims == (1, 0)
    assert profile.negative == (1,)


def test_discrete_matches_continuous_on_random_pairs():
    rng = np.random.default_rng(45)
    for _ in range(10):
        pair = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        continuous = full_profile(pair)
        discrete = full_profile(SymbolPair(c2d(pair.v), c2d(pair.w)))
        assert discrete.negative == continuous.negative
        assert opnorm(_q(discrete.omega) - _q(continuous.omega)) < 1e-8


def test_direct_sum_additivity():
    rng = np.random.default_rng(46)
    for _ in range(5):
        pair1 = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        pair2 = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        merged = SymbolPair(direct_sum(pair1.v, pair2.v), direct_sum(pair1.w, pair2.w))
        expected = sorted(
            list(full_profile(pair1).all_indices) + list(full_profile(pair2).all_indices)
        )
        assert list(full_profile(merged).all_indices) == expected


def test_twist_invariance_on_reference_pair():
    pair = diagonal_symbol_factors([-4, -2, 0, 3, 5])
    base = full_profile(pair).all_indices
    rng = np.random.default_rng(47)
    u1, u2, shared = (random_unitary(rng, 5) for _ in range(3))
    assert full_profile(
        SymbolPair(unitary_twist(pair.v, u1, "left"), pair.w)
    ).all_indices == base
    assert full_profile(
        SymbolPair(pair.v, unitary_twist(pair.w, u2, "left"))
    ).all_indices == base
    assert full_profile(
        SymbolPair(
            unitary_twist(pair.v, shared, "right"),
            unitary_twist(pair.w, shared, "right"),
        )
    ).all_indices == base


def test_q_eigenvalues_within_contraction_band():
    rng = np.random.default_rng(48)
    for _ in range(10):
        pair = random_symbol_pair(rng, max_m=2, max_block_degree=3)
        profile = full_profile(pair)
        q = build_report(profile, CLUSTER_TOL)["diagnostics"]["q_eigenvalues"]
        assert [len(q["negative"]), len(q["positive"])] == [pair.w.state_dim, pair.v.state_dim]
        for values in q.values():
            if values:
                assert min(values) > -1e-7
                assert max(values) < 1 + 1e-7


def test_validation_gate_rejects_invalid_factor():
    bad = Realization([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    good = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    with pytest.raises(InputValidationError):
        negative_profile(SymbolPair(bad, good))


def test_discrete_gate_rejects_continuous_input():
    pair = diagonal_symbol_factors([1])
    with pytest.raises(InputValidationError):
        discrete_negative_profile(pair.v, pair.w)
    # Either factor alone: the flavor check comes before the mixed-flavor pair.
    for v, w, name in ((pair.v, c2d(pair.w), "v"), (c2d(pair.v), pair.w, "w")):
        with pytest.raises(InputValidationError, match=f"^factor {name} must be a discrete"):
            discrete_negative_profile(v, w)


def _assert_same_profile(got, expected):
    for field in dataclasses.fields(IndexProfile):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


def test_the_negative_profiles_return_the_full_profile():
    rng = np.random.default_rng(52)
    for pair in _flavor_cases(rng):
        _assert_same_profile(negative_profile(pair), full_profile(pair))
        v, w = c2d(pair.v), c2d(pair.w)
        expected = full_profile(SymbolPair(v, w))
        _assert_same_profile(negative_profile(SymbolPair(v, w)), expected)
        _assert_same_profile(discrete_negative_profile(v, w), expected)


def test_the_negative_profiles_are_functions_of_their_own():
    # The benchmark's tracer patches each name; an alias of full_profile
    # would be wrapped twice.
    names = (indices.negative_profile, indices.discrete_negative_profile, indices.full_profile)
    assert len({id(f) for f in names}) == 3


def test_full_profile_takes_stability_from_the_schur_diagonal():
    # An eigenvalue on the axis with the energy balance intact: only the
    # stability test, read off the Schur form of a, can refuse this factor.
    marginal = Realization([[1j]], [[0.0]], [[0.0]], [[1.0]])
    good = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    for pair in (SymbolPair(marginal, good), SymbolPair(good, marginal)):
        with pytest.raises(InputValidationError, match="stable=False"):
            full_profile(pair)


def test_discrete_gate_takes_stability_from_the_schur_diagonal():
    # A unitary system matrix with an eigenvalue of a on the unit circle.
    marginal = Realization([[1j]], [[0.0]], [[0.0]], [[1.0]], DISCRETE)
    good = c2d(blaschke_realization(BlaschkeSpec(1.0, (-1.0,))))
    for v, w in ((marginal, good), (good, marginal)):
        with pytest.raises(InputValidationError, match="stable=False"):
            discrete_negative_profile(v, w)


def _near_axis_factors(rng, count):
    """Scalar Blaschke factors of degree 2-9 with a pole 1e-16 to 1e-12 from the
    imaginary axis, behind a Haar unitary state similarity (u a u*, u b, c u*)."""
    for _ in range(count):
        degree = int(rng.integers(2, 10, endpoint=True))
        poles = [-10 ** rng.uniform(-16, -12) + 1j * rng.uniform(-3, 3)]
        for _ in range(degree - 1):
            poles.append(-rng.uniform(0.1, 3) * 10 ** rng.uniform(-2, 2) + 1j * rng.uniform(-3, 3))
        r = blaschke_realization(BlaschkeSpec(1.0, tuple(poles)))
        u = random_unitary(rng, degree)
        yield Realization(u @ r.a @ u.conj().T, u @ r.b, r.c @ u.conj().T, r.d)


def test_public_validator_and_full_profile_agree_near_the_axis():
    # Both read stability off one Schur form of a.  Eigenvalues of a general
    # solver, which balances a first, put max Re lambda on the other side of 0
    # for about one such factor in twenty.
    w = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    verdicts = set()
    for v in _near_axis_factors(np.random.default_rng(7), 600):
        public, accepted = validate_stable_dissipative(v).verdict, True
        try:
            full_profile(SymbolPair(v, w))
        except InputValidationError:
            accepted = False
        except PipelineError:  # validated, then refused by the chain
            pass
        assert public == accepted
        verdicts.add(public)
    assert verdicts == {True, False}


def test_a_tol_outside_the_unit_interval_is_refused_before_factorizing(monkeypatch):
    def no_factorization(a):
        raise AssertionError("factorized before checking tol")

    monkeypatch.setattr(indices, "_schur", no_factorization)
    pair = diagonal_symbol_factors([-1, 1])
    for tol in (0.0, -1.0, 1.0, 2.0, np.nan, np.inf, -np.inf):
        for profile in (full_profile, negative_profile):
            with pytest.raises(StructureError, match="^tolerance must be a finite number in"):
                profile(pair, tol)


def test_symbol_pair_refuses_mixed_flavors():
    r = blaschke_realization(BlaschkeSpec(1.0, (-1.0,)))
    with pytest.raises(StructureError):
        SymbolPair(r, c2d(r))
    with pytest.raises(StructureError):
        SymbolPair(c2d(r), r)


def test_discrete_profile_refuses_mismatched_output_dimensions():
    pair = diagonal_symbol_factors([1])
    with pytest.raises(StructureError):
        discrete_negative_profile(c2d(pair.v), constant_realization(np.eye(2), DISCRETE))


def test_profiles_make_no_general_eigenvalue_solve(monkeypatch):
    # Stability is read off the Schur forms the solves need anyway.
    def refuse(*args, **kwargs):
        raise AssertionError("a general eigenvalue solve was called")

    pair = random_symbol_pair(np.random.default_rng(49), max_m=2, max_block_degree=2)
    v, w = c2d(pair.v), c2d(pair.w)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(core, "_eigvals", refuse)  # the validators' zgeev route
    discrete_negative_profile(v, w)
    full_profile(SymbolPair(v, w))
    full_profile(pair)


def _flavor_cases(rng):
    """Seeded diagonal, scalar Blaschke and twisted MIMO pairs."""
    for _ in range(8):
        powers = [int(x) for x in rng.integers(-4, 5, int(rng.integers(1, 4)))]
        yield diagonal_symbol_factors(powers)
    for _ in range(8):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        yield SymbolPair(blaschke_realization(phi), blaschke_realization(m))
    for _ in range(8):
        yield random_symbol_pair(rng, max_m=3, max_block_degree=3)


def test_full_profile_of_discrete_pairs_matches_continuous():
    rng = np.random.default_rng(50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in _flavor_cases(rng):
            continuous = full_profile(pair)
            discrete = full_profile(SymbolPair(c2d(pair.v), c2d(pair.w)))
            assert discrete.all_indices == continuous.all_indices
            assert (discrete.mu, discrete.nu) == (continuous.mu, continuous.nu)
            assert discrete.negative_kernel_dims == continuous.negative_kernel_dims
            assert discrete.positive_kernel_dims == continuous.positive_kernel_dims
            # Both flavors solve for the same coupling omega.
            omega = continuous.omega
            assert opnorm(discrete.omega - omega) <= 1e-10 * (1.0 + opnorm(omega))


def test_contraction_is_identity_minus_the_coupling_gram():
    # Q = I - omega* omega on the negative side and I - omega omega* on the
    # positive one, against the paper's Q equation solved by the dense oracle.
    rng = np.random.default_rng(51)
    checked = 0
    for pair in _flavor_cases(rng):
        for discrete in (False, True):
            p = SymbolPair(c2d(pair.v), c2d(pair.w)) if discrete else pair
            omega = full_profile(p).omega
            for coupling, v, w in ((omega, p.v, p.w), (omega.conj().T, p.w, p.v)):
                if coupling.size:  # an empty state space has Q = I trivially
                    checked += 1
                    assert np.abs(_q(coupling) - kron.contraction(v, w, discrete)).max() <= 1e-10
    assert checked >= 40


@pytest.mark.parametrize("flavor", ["continuous", "discrete"])
@pytest.mark.xfail(strict=True, raises=PipelineError, reason=(
    "a wrong refusal: the smallest singular value of omega, 7.2e-5, fails s^2 > tol = 1e-7, "
    "so the rank cut reads an inconsistent profile (ROADMAP item 2 decides it)"))
def test_the_degree_5_over_degree_5_pair_of_verify_seed_20260868(flavor):
    # The 37th draw of indices-scalar-ground-truth at `whindex verify --seed 20260868`.
    from whindex.verify import _scalar_pair

    rng = np.random.default_rng([20260868, 13])
    for _ in range(37):
        phi, m = _scalar_pair(rng)
    assert (phi.degree, m.degree) == (5, 5)
    pair = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
    if flavor == "discrete":
        pair = SymbolPair(c2d(pair.v), c2d(pair.w))
    assert full_profile(pair).all_indices == (0,)


def _deep_pair(index):
    """Pair ``index`` of the deep recipe's first set: m = (2, 3)[i % 2] blocks of
    degree 11-30 per factor, V = U1 diag(phi_i) S and W = U2 diag(m_i) S, with
    the truth sorted(deg phi_i - deg m_i)."""
    rng = np.random.default_rng([3, 11])

    def inner(specs, left, right):
        r = direct_sum(*(blaschke_realization(spec) for spec in specs))
        return unitary_twist(unitary_twist(r, left, "left"), right, "right")

    for i in range(index + 1):
        m = (2, 3)[i % 2]
        phis = [random_blaschke_spec(rng, int(rng.integers(11, 31))) for _ in range(m)]
        ms = [random_blaschke_spec(rng, int(rng.integers(11, 31))) for _ in range(m)]
        shared, u1, u2 = (random_unitary(rng, m) for _ in range(3))
    truth = tuple(sorted(p.degree - q.degree for p, q in zip(phis, ms)))
    return SymbolPair(inner(phis, u1, shared), inner(ms, u2, shared)), truth


@pytest.mark.parametrize("flavor", ["continuous", "discrete"])
@pytest.mark.parametrize("index, truth", [(53, (0, 1, 14)), (75, (-1, 1, 15)), (94, (0, 1))])
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a wrong answer: a genuine singular value of omega between 6e-6 and 1.6e-4 fails "
    "s^2 > tol = 1e-7, and both sides gain one kernel dimension (ROADMAP item 2)"))
def test_the_wrong_answers_of_the_deep_recipe(index, truth, flavor):
    pair, drawn = _deep_pair(index)
    if drawn != truth:  # not an AssertionError, which the xfail would take for the pin
        pytest.fail(f"the recipe drew truth {drawn}, not {truth}")
    if flavor == "discrete":
        pair = SymbolPair(c2d(pair.v), c2d(pair.w))
    assert full_profile(pair).all_indices == truth
