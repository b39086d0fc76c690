"""Kernel chain in defect form, checked against the matrix-power reference."""

import numpy as np
import pytest

import chain_oracle
import kronecker_oracle as kron
from whindex import (
    DISCRETE,
    BlaschkeSpec,
    ContractionViolationError,
    EvaluationError,
    PipelineError,
    Realization,
    SymbolPair,
    blaschke_realization,
    c2d,
    constant_realization,
    diagonal_symbol_factors,
    direct_sum,
    full_profile,
    unitary_twist,
    validate_stable_dissipative,
    winding_number,
    zeta_of_minus,
)
from whindex import core, errors, indices
from whindex.equations import CLUSTER_TOL, EquationSolution, _disk_map, schur_form
from whindex.sampling import random_blaschke_spec, random_symbol_pair, random_unitary

#: Degrees of the acceptance sweep and the cyclic shifts pairing them.
SWEEP_DEGREES = tuple(range(8, 21))
SWEEP_SHIFTS = (0, 4, 8, 12)
SWEEP_SEEDS = (1, 2, 3)
#: PipelineError count of the sweep since a certified step 0 decides one-row
#: sides; it was 20 of the 156 pairs with the matrix-power chain, and may only fall.
SWEEP_MAX_FAILURES = 0
#: Sweep pairs whose degree gap is confirmed by the winding-number oracle.
SWEEP_ORACLE_SAMPLE = 12
#: Pairs of the deep sweep, with both degrees drawn from DEEP_DEGREES.
DEEP_PAIRS = 60
DEEP_DEGREES = (21, 40)
#: PipelineError count of the deep sweep's 120 profiles since a certified step 0
#: decides one-row sides; it was 16 with a chain per side, and may only fall.
DEEP_MAX_FAILURES = 0
#: Deep sweep pairs whose degree gap is confirmed by the winding-number oracle.
DEEP_ORACLE_SAMPLE = 6
#: Distances of the near-axis pole of ``_near_axis_pair`` from the imaginary axis.
NEAR_AXIS_EPS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
#: Families of seeded scalar pairs, each padded with a constant 1 to a 2 x 2
#: symbol: (seed, pairs, inclusive degree range, typed refusals allowed of its
#: profiles in both flavors).  Where step 0 drops a genuine singular value
#: under delta_0, the one-row sides run their chains, which refuse.
PADDED_FAMILIES = {
    "degree 4-20": (5, 200, (4, 20), 0),
    "degree 11-30": ([11, 30, 5], 100, (11, 30), 0),
    "degree 21-40": ([21, 71], 100, (21, 40), 0),
    "degree 31-50": ([31, 50, 5], 60, (31, 50), 0),
    "degree 60-120": ([60, 120, 5], 20, (60, 120), 2),
    "degree 100-160": ([100, 160, 5], 20, (100, 160), 2),
}
#: The typed errors whindex refuses an input with.
WHINDEX_ERRORS = tuple(
    e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, Exception)
)


def _continuous_cases(rng):
    """(label, pair) for diagonal, scalar Blaschke and twisted MIMO pairs, n <= 12."""
    for i in range(20):
        powers = [int(x) for x in rng.integers(-4, 5, int(rng.integers(1, 4)))]
        yield f"diagonal{i}-{powers}", diagonal_symbol_factors(powers)
    for i in range(20):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        yield f"blaschke{i}", SymbolPair(blaschke_realization(phi), blaschke_realization(m))
    for i in range(20):
        yield f"mimo{i}", random_symbol_pair(rng, max_m=3, max_block_degree=3)


def _assert_matches_oracle(label, dims, v, w, m, discrete=False):
    """The chain ``dims`` of the negative side of (v, w), the positive side of
    (w, v), against matrix powers of the Q that the dense oracle solves from
    the paper's equations."""
    assert len(m) <= 12
    q = kron.contraction(v, w, discrete) if v.state_dim and w.state_dim else np.eye(len(m))
    expected = chain_oracle.kernel_dimension_chain(q, m, CLUSTER_TOL, cap=len(m) + 1)
    assert list(dims) == expected, label


def test_chain_matches_power_oracle_continuous():
    rng = np.random.default_rng(3101)
    for label, pair in _continuous_cases(rng):
        v, w = pair.v, pair.w
        profile = full_profile(pair)
        _assert_matches_oracle(label + "-negative", profile.negative_kernel_dims, v, w,
                               zeta_of_minus(w.a))
        _assert_matches_oracle(label + "-positive", profile.positive_kernel_dims, w, v,
                               zeta_of_minus(v.a))


def test_chain_matches_power_oracle_discrete():
    rng = np.random.default_rng(3102)
    for label, pair in _continuous_cases(rng):
        v, w = c2d(pair.v), c2d(pair.w)
        profile = full_profile(SymbolPair(v, w))
        _assert_matches_oracle(label + "-discrete", profile.negative_kernel_dims, v, w, w.a, True)
        _assert_matches_oracle(label + "-discrete-swapped", profile.positive_kernel_dims, w, v,
                               v.a, True)


def _dropped_bases(pair, monkeypatch):
    """Chain of the negative side and the Gram defect of its final basis Y of
    dropped directions.  Each earlier Y is a leading column block of the final
    one, so its Gram defect is a principal submatrix of the final defect."""
    profile = full_profile(pair)
    buffers = []
    empty = np.empty

    def record(shape, *args, **kwargs):
        buffers.append(empty(shape, *args, **kwargs))
        return buffers[-1]

    basis, w, form = _chain_inputs(pair)[0]
    monkeypatch.setattr(np, "empty", record)
    dims = indices._kernel_dimension_chain(basis, w, form, CLUSTER_TOL)
    monkeypatch.undo()
    assert tuple(dims) == profile.negative_kernel_dims and dims[-1] == 0
    [yh] = [b for b in buffers if b.shape == (dims[0], dims[0])]
    return dims, np.linalg.norm(yh @ yh.conj().T - np.eye(dims[0]), 2)


def _twisted_pair(rng, specs_v, specs_w):
    """V = U1 diag(phi_i) S and W = U2 diag(m_i) S for one shared unitary S."""
    shared = random_unitary(rng, len(specs_v))

    def inner(specs):
        r = blaschke_realization(specs[0])
        for spec in specs[1:]:
            r = direct_sum(r, blaschke_realization(spec))
        left = unitary_twist(r, random_unitary(rng, len(specs)), "left")
        return unitary_twist(left, shared, "right")

    return SymbolPair(inner(specs_v), inner(specs_w))


def _left_twisted(pair, rng):
    """``pair`` with each factor's outputs mixed by its own random unitary, U1 V
    and U2 W.  The symbol U1 V W* U2* has the same indices and omega, but c has
    no zero row, so the chain of a diagonal pair steps with all m rows."""
    m = pair.output_dim
    return SymbolPair(*(unitary_twist(r, random_unitary(rng, m), "left") for r in (pair.v, pair.w)))


def test_chain_bases_stay_orthonormal_at_k128(monkeypatch):
    # U diag(zeta^128, 1): 128 steps of the SVD path, two rows each.
    pair = _left_twisted(diagonal_symbol_factors([-128, 128]), np.random.default_rng(3113))
    dims, worst = _dropped_bases(pair, monkeypatch)
    assert tuple(dims) == tuple(range(128, -1, -1))
    assert worst <= 1e-12


def test_dropped_directions_stay_orthonormal_on_twisted_mimo_pairs(monkeypatch):
    # W blocks of degree 4-13; with one projection per step instead of two,
    # Y drifts up to 4e-10 from orthonormal on these seeds.
    for seed in range(12):
        rng = np.random.default_rng([seed, 3105])
        phis = [random_blaschke_spec(rng, int(rng.integers(0, 4))) for _ in range(3)]
        ms = [random_blaschke_spec(rng, int(rng.integers(4, 14))) for _ in range(3)]
        _, worst = _dropped_bases(_twisted_pair(rng, phis, ms), monkeypatch)
        assert worst <= 1e-12, seed


def test_chain_step_refuses_a_stretching_map():
    # M = 1.5 I with c_d = 0: sigma^2([M; c_d]) = 2.25, 1.25 away from 1.  This w
    # fails validation, so only the chain's own isometry check can refuse it.
    w = Realization(1.5 * np.eye(3), np.zeros((3, 1)), np.zeros((1, 3)), np.eye(1), DISCRETE)
    with pytest.raises(ContractionViolationError) as info:
        indices._kernel_dimension_chain(np.eye(3), w, schur_form(w.a), 1e-9)
    assert abs(info.value.eigenvalue - 1.25) < 1e-12


def test_every_chain_that_builds_its_map_runs_the_isometry_screen_once(monkeypatch):
    # The Frobenius screen of K*K - I, K = [M; c_d], runs once in each chain
    # with d_0 > 0 and in no other, on validated factors at the default tol too.
    screens, chains = [], []
    screen, chain = indices._screen, indices._kernel_dimension_chain

    def counted_screen(*args):
        screens.append(args)
        return screen(*args)

    def traced_chain(basis, *args):
        before = len(screens)
        dims = chain(basis, *args)
        chains.append((dims[0], len(screens) - before))
        return dims

    monkeypatch.setattr(indices, "_screen", counted_screen)
    monkeypatch.setattr(indices, "_kernel_dimension_chain", traced_chain)
    rng = np.random.default_rng(3113)
    pairs = [diagonal_symbol_factors(powers) for powers in ([-8, 8], [0], [3], [-3, 2, -1])]
    pairs += [random_symbol_pair(rng, max_m=3, max_block_degree=3) for _ in range(6)]
    expected = 0
    for pair in pairs:
        for flavored in (pair, SymbolPair(c2d(pair.v), c2d(pair.w))):
            full_profile(flavored, CLUSTER_TOL)
            # Every step 0 here is certain, so a one-row side runs no chain.
            expected += sum(not _one_row(f) for f in (flavored.w, flavored.v))
    assert len(chains) == expected
    assert {(d0 > 0, count) for d0, count in chains} == {(True, 1), (False, 0)}


def test_disk_map_defect_is_the_balance_defect_seen_through_the_resolvent():
    # With E = a + a* + c*c and R = (I - a)^{-1}, M*M + c_d*c_d - I = 2 R* E R
    # exactly, and |R| <= 1/(1 - |E|/2).  Each factor gets a Hermitian
    # perturbation that leaves E of 2-norm VALIDATION_TOL/2, so it validates.
    rng = np.random.default_rng(3112)
    for _ in range(40):
        size = int(rng.integers(1, 4))
        specs = [random_blaschke_spec(rng, int(rng.integers(1, 9))) for _ in range(size)]
        r = direct_sum(*(blaschke_realization(spec) for spec in specs))
        r = unitary_twist(r, random_unitary(rng, size), "left")
        n = r.state_dim
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.conj().T) / np.linalg.norm(x + x.conj().T, 2)
        w = Realization(r.a - 0.25 * core.VALIDATION_TOL * h, r.b, r.c, r.d)
        assert validate_stable_dissipative(w).verdict
        e = w.a + w.a.conj().T + w.c.conj().T @ w.c
        size_e = np.linalg.norm(e, 2)
        resolvent = np.linalg.inv(np.eye(n) - w.a)
        assert np.linalg.norm(resolvent, 2) <= 1 / (1 - size_e / 2)
        m = _disk_map(schur_form(w.a))
        c_d = np.sqrt(2.0) * w.c @ resolvent
        defect = m.conj().T @ m + c_d.conj().T @ c_d - np.eye(n)
        expected = 2 * resolvent.conj().T @ e @ resolvent
        assert np.linalg.norm(defect - expected, 2) <= 1e-4 * np.linalg.norm(expected, 2)
        assert np.linalg.norm(expected, 2) <= 2 * size_e / (1 - size_e / 2) ** 2


def test_step_zero_refuses_a_coupling_that_stretches():
    # omega = 1.5 I makes Q = I - omega* omega = -1.25 I, not a positive contraction.
    with pytest.raises(ContractionViolationError) as info:
        indices._step_zero(EquationSolution(1.5 * np.eye(3), 0.0, 0.0), CLUSTER_TOL)
    assert info.value.eigenvalue == 1 - 2.25


def test_chain_with_only_zero_rows_refuses_its_first_step():
    # c_d = 0 drops nothing: no row is left to step with, and step 0 is refused
    # as the chain of all m zero rows refuses it.  The permutation M keeps
    # [M; c_d] an isometry, so the isometry check lets the chain step.
    a = np.eye(3)[[1, 2, 0]]
    w = Realization(a, np.zeros((3, 2)), np.zeros((2, 3)), np.eye(2), DISCRETE)
    with pytest.raises(PipelineError, match=r"not strictly decreasing: \[3, 3\]$"):
        indices._kernel_dimension_chain(np.eye(3), w, schur_form(w.a), 1e-7)


def test_chain_refuses_a_drop_larger_than_the_one_before():
    # M e2 = e1 and M e3 = e4 with c_d = [e1*; e4*], so [M; c_d] is an isometry.
    # On N_0 = span(e1, e2, e3) the chain reads [3, 2, 0]: drops 1, then 2,
    # which no partition of the indices has.
    a = np.zeros((4, 4))
    a[0, 1] = a[3, 2] = 1.0
    c = np.zeros((2, 4))
    c[0, 0] = c[1, 3] = 1.0
    w = Realization(a, np.zeros((4, 2)), c, np.eye(2), DISCRETE)
    basis = np.eye(4)[:, :3]
    with pytest.raises(PipelineError, match=r"drops are not non-increasing: \[3, 2, 0\]"):
        indices._kernel_dimension_chain(basis, w, schur_form(w.a), CLUSTER_TOL)


class _DecompositionRecorder:
    """The LAPACK module with its SVDs (zgesdd, dgesdd) recorded in ``calls``."""

    def __init__(self, lapack, calls, inside):
        self.lapack, self.calls, self.inside = lapack, calls, inside

    def __getattr__(self, name):
        return getattr(self.lapack, name)

    def _record(self, name, a, *args, **kwargs):
        # A singular-value-only SVD is a 2-norm, as in the residual of omega.
        compute_uv = args[0] if args else kwargs.get("compute_uv", True)
        if compute_uv:
            self.calls.append((bool(self.inside), "svd", np.shape(a)))
        return getattr(self.lapack, name)(a, *args, **kwargs)

    def zgesdd(self, *args, **kwargs):
        return self._record("zgesdd", *args, **kwargs)

    def dgesdd(self, *args, **kwargs):
        return self._record("dgesdd", *args, **kwargs)


def _one_row(factor):
    """Whether ``factor`` has one nonzero row of c: where step 0 is certain, its side runs no chain."""
    return np.count_nonzero(factor.c.any(axis=1)) == 1


def test_chain_steps_decompose_only_m_row_matrices(monkeypatch):
    """Outside the chains, full_profile decomposes one n_v x n_w matrix, omega.
    A side whose factor has one nonzero row of c runs no chain where step 0 is
    certain, as on every pair here, and decomposes nothing more.  Every
    decomposition of a chain that runs is an SVD with at most as many rows as
    it steps with (``chain_oracle.step_rows``), one per step: the chain takes
    N_0 as a basis, and the Frobenius screen decides the isometry check of a
    genuine pair without a decomposition.  The decompositions are counted at
    the LAPACK wrappers, and numpy's SVD is never called."""
    calls, inside, numpy_svds = [], [], []
    recorder = _DecompositionRecorder(core._lapack(), calls, inside)
    monkeypatch.setattr(core, "_lapack", lambda: recorder)
    for name in ("eigh", "eigvalsh"):
        def record(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append((bool(inside), _name, np.shape(a)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    def numpy_svd(a, *args, _svd=np.linalg.svd, **kwargs):
        numpy_svds.append(np.shape(a))
        return _svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", numpy_svd)
    chain = indices._kernel_dimension_chain
    chains = []

    def traced_chain(basis, w, *args, **kwargs):
        inside.append(True)
        start = len(calls)
        try:
            dims = chain(basis, w, *args, **kwargs)
        finally:
            inside.clear()
        rows = chain_oracle.step_rows(w.c, dims[0])
        chains.append((dims, rows, [call[1:] for call in calls[start:]]))
        return dims

    monkeypatch.setattr(indices, "_kernel_dimension_chain", traced_chain)
    rng = np.random.default_rng(3106)
    pairs = [diagonal_symbol_factors([-16, 16]), diagonal_symbol_factors([-3, 2, -1])]
    pairs += [_left_twisted(pairs[0], rng)]
    pairs += [random_symbol_pair(rng, max_m=3, max_block_degree=3) for _ in range(6)]
    pairs.append(_scalar_pair(*(random_blaschke_spec(rng, d) for d in (3, 9))))
    fewer_rows = 0
    for pair in pairs:
        chains.clear()
        calls.clear()
        full_profile(pair)
        outside = [call[1:] for call in calls if not call[0]]
        shape = pair.v.state_dim, pair.w.state_dim
        # An empty omega has its step 0 without LAPACK.
        assert outside == ([("svd", shape)] if min(shape) else [])
        assert len(chains) == sum(not _one_row(f) for f in (pair.w, pair.v))
        for dims, rows, recorded in chains:
            fewer_rows += dims[0] > 0 and rows < pair.output_dim
            assert [name for name, _ in recorded] == ["svd"] * (len(dims) - 1)
            assert all(shape[0] <= rows for _, shape in recorded)
    # The negative chain of diag(zeta^3, 1, zeta) steps with two of its three rows;
    # the one-row sides of diag(zeta^16, 1) run no chain.
    assert fewer_rows == 1
    assert numpy_svds == []


class _FailingDecompositions:
    """The LAPACK module with every SVD reporting failure (info 1)."""

    def __init__(self, lapack):
        self.lapack = lapack

    def __getattr__(self, name):
        return getattr(self.lapack, name)

    def zgesdd(self, *args, **kwargs):
        return (*self.lapack.zgesdd(*args, **kwargs)[:3], 1)

    def dgesdd(self, *args, **kwargs):
        return (*self.lapack.dgesdd(*args, **kwargs)[:3], 1)


@pytest.mark.parametrize(
    "decomposition",
    ["step zero", "chain step", "scalar chain", "one-row chain", "opnorm", "real opnorm"],
)
def test_a_failed_svd_raises_evaluation_error(monkeypatch, decomposition):
    # U diag(zeta^2, 1) steps with both rows; diag(zeta^3, 1) with its one nonzero
    # row, an SVD per step as the scalar chain, where a one-row side's step 0 is not certain.
    w = _left_twisted(diagonal_symbol_factors([-2, 2]), np.random.default_rng(3114)).w
    sw, basis = schur_form(w.a), np.eye(w.state_dim)[:, :1]
    scalar = blaschke_realization(BlaschkeSpec(1.0, (-1.0, -2.0)))
    static = diagonal_symbol_factors([-3, 3]).w
    decompose = {
        "step zero": lambda: indices._step_zero(EquationSolution(0.5 * np.eye(2), 0.0, 0.0), CLUSTER_TOL),
        "chain step": lambda: indices._kernel_dimension_chain(basis, w, sw, CLUSTER_TOL),
        "scalar chain": lambda: indices._kernel_dimension_chain(
            basis, scalar, schur_form(scalar.a), CLUSTER_TOL
        ),
        "one-row chain": lambda: indices._kernel_dimension_chain(
            np.eye(3), static, schur_form(static.a), CLUSTER_TOL
        ),
        "opnorm": lambda: core.opnorm(np.ones((2, 3), dtype=complex)),
        "real opnorm": lambda: core.opnorm(np.ones((2, 3))),
    }[decomposition]
    failing = _FailingDecompositions(core._lapack())
    monkeypatch.setattr(core, "_lapack", lambda: failing)
    with pytest.raises(EvaluationError, match=r"gesdd info 1\)"):
        decompose()


@pytest.mark.parametrize("powers, expected", [([3], (3,)), ([-2], (-2,)), ([0, 2], (0, 2))])
def test_a_zero_state_factor_passes_no_empty_matrix_to_lapack(capfd, powers, expected):
    # omega is n_v x 0 or 0 x n_w; LAPACK would refuse it, printing to stderr.
    assert full_profile(diagonal_symbol_factors(powers)).all_indices == expected
    assert capfd.readouterr().err == ""


def test_negative_chain_at_k256():
    profile = full_profile(diagonal_symbol_factors([-256, 256]))
    assert profile.negative_kernel_dims == tuple(range(256, -1, -1))


def _sweep_pairs(seed):
    rng = np.random.default_rng([seed, 3103])
    for shift in SWEEP_SHIFTS:
        for i, f in enumerate(SWEEP_DEGREES):
            g = SWEEP_DEGREES[(i + shift) % len(SWEEP_DEGREES)]
            yield random_blaschke_spec(rng, f), random_blaschke_spec(rng, g)


def test_blaschke_sweep_degrees_8_to_20():
    pairs = [spec for seed in SWEEP_SEEDS for spec in _sweep_pairs(seed)]
    failures = 0
    for phi, m in pairs:
        try:
            profile = full_profile(SymbolPair(blaschke_realization(phi), blaschke_realization(m)))
        except PipelineError:
            failures += 1
            continue
        assert profile.all_indices == (phi.degree - m.degree,)
    rng = np.random.default_rng(3104)
    for i in rng.choice(len(pairs), size=SWEEP_ORACLE_SAMPLE, replace=False):
        phi, m = pairs[int(i)]
        assert winding_number(phi, m) == phi.degree - m.degree
    print(f"{len(pairs)} Blaschke pairs of degree 8-20, {failures} PipelineError")
    assert failures <= SWEEP_MAX_FAILURES


def _near_axis_pair(eps):
    """phi with a pole eps from the imaginary axis over m of degree 1: the truth is 2."""
    phi = BlaschkeSpec(1.0, (-eps + 5j, -1.0, -3.0))
    return SymbolPair(blaschke_realization(phi), blaschke_realization(BlaschkeSpec(1.0, (-0.5,))))


@pytest.mark.parametrize("eps", NEAR_AXIS_EPS)
def test_near_axis_scalar_pairs_are_answered_right(eps):
    # The truth is the degree gap of phi to m.  A chain refused these pairs below
    # about 1e-6; the certified step 0 decides both one-row sides without one.
    pair = _near_axis_pair(eps)
    for flavored in (pair, SymbolPair(c2d(pair.v), c2d(pair.w))):
        assert full_profile(flavored).all_indices == (2,)


def _padded_pairs(seed, count, degrees):
    """(pair, truth) of ``count`` seeded scalar pairs padded to diag(phi/m, 1)."""
    one = constant_realization(np.eye(1))
    for phi, m in _random_specs(seed, count, degrees):
        pair = SymbolPair(*(direct_sum(blaschke_realization(spec), one) for spec in (phi, m)))
        yield pair, tuple(sorted((phi.degree - m.degree, 0)))


@pytest.mark.parametrize("family", PADDED_FAMILIES)
def test_padded_scalar_pairs_are_answered_right_or_refused(family):
    # diag(phi/m, 1) has the omega and the chains of the scalar pair, but m = 2,
    # so the check that the indices fit in m outputs cannot turn a wrong step 0
    # into a refusal.  Both sides are one-row sides.
    seed, count, degrees, max_failures = PADDED_FAMILIES[family]
    failures = 0
    for pair, truth in _padded_pairs(seed, count, degrees):
        for flavored in (pair, SymbolPair(c2d(pair.v), c2d(pair.w))):
            try:
                answer = full_profile(flavored).all_indices
            except WHINDEX_ERRORS:
                failures += 1
                continue
            assert answer == truth
    assert failures <= max_failures


def test_a_one_row_side_runs_its_chain_where_step_0_drops_a_singular_value():
    # Pair 7 of the degree 60-120 family: omega is 96 x 96, and its smallest
    # singular value, 2.3e-9, falls under delta_0 = 4.2e-7.  Read off the
    # enlarged N_0, the pair would be answered (-1, 1) for the truth (0, 0).
    seed, count, degrees, _ = PADDED_FAMILIES["degree 60-120"]
    pair, truth = list(_padded_pairs(seed, count, degrees))[7]
    assert truth == (0, 0)
    with pytest.raises(PipelineError, match="not strictly decreasing"):
        full_profile(pair)


def _random_specs(seed, count, degrees):
    """``count`` seeded (phi, m) pairs with both degrees drawn from ``degrees``, inclusive."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(random_blaschke_spec(rng, int(rng.integers(*degrees, endpoint=True)))
                    for _ in range(2))


def _scalar_pair(phi, m):
    return SymbolPair(blaschke_realization(phi), blaschke_realization(m))


def test_blaschke_sweep_degrees_21_to_40():
    pairs = list(_random_specs(3107, DEEP_PAIRS, DEEP_DEGREES))
    failures = 0
    for phi, m in pairs:
        pair = _scalar_pair(phi, m)
        for flavored in (pair, SymbolPair(c2d(pair.v), c2d(pair.w))):
            try:
                profile = full_profile(flavored)
            except PipelineError:
                failures += 1
                continue
            assert profile.all_indices == (phi.degree - m.degree,)
    rng = np.random.default_rng(3108)
    for i in rng.choice(len(pairs), size=DEEP_ORACLE_SAMPLE, replace=False):
        phi, m = pairs[int(i)]
        assert winding_number(phi, m) == phi.degree - m.degree
    print(f"{2 * len(pairs)} Blaschke profiles of degree 21-40, {failures} PipelineError")
    assert failures <= DEEP_MAX_FAILURES


def _stepwise_chain(basis, w, sw, tol):
    """``indices._kernel_dimension_chain`` with one SVD per step for every m,
    less its isometry check and its dropping of zero rows: the images of a step
    are projected twice off the directions Y dropped so far, and the step drops
    the right singular vectors with s^2 > tol."""
    dims = [basis.shape[1]]
    if not dims[0]:
        return dims
    if w.flavor == DISCRETE:
        m, rows = w.a, w.c
    else:
        m = _disk_map(sw)
        rows = (w.c + w.c @ m) / np.sqrt(2.0)
    yh = np.empty((dims[0], dims[0]), dtype=complex)
    block, size = [rows], len(rows)
    while True:
        for _ in range(-(-dims[-1] // size) - 1):
            block.append(block[-1] @ m)
        images = (np.concatenate(block) if len(block) > 1 else rows) @ basis
        for step in range(len(block)):
            x, r = images[step * size:(step + 1) * size], dims[0] - dims[-1]
            for _ in range(2 if r else 0):
                x -= (x @ yh[:r].conj().T) @ yh[:r]
            _, s, vh = core._svd(x, full_matrices=False)
            drop = int(np.count_nonzero(s * s > tol))
            yh[r:r + drop] = vh[:drop]
            dims.append(dims[-1] - drop)
            if dims[-1] >= dims[-2]:
                raise PipelineError(f"kernel dimensions are not strictly decreasing: {dims}")
            if len(dims) > 2 and dims[-2] - dims[-1] > dims[-3] - dims[-2]:
                raise PipelineError(f"kernel dimension drops are not non-increasing: {dims}")
        if not dims[-1]:
            return dims
        rows = block[-1] @ m
        block = [rows]


def _chain_outcome(chain, *args):
    try:
        return chain(*args)
    except PipelineError as exc:
        return str(exc)


def _chain_inputs(pair):
    """(basis, factor, Schur form) of the negative and the positive chain of ``pair``."""
    sv, sw = indices._validated(pair, CLUSTER_TOL)
    _, _, positive, negative = indices._step_zero(indices._coupling(pair, sv, sw), CLUSTER_TOL)
    return (negative, pair.w, sw), (positive, pair.v, sv)


def test_one_row_sides_are_answered_right_where_the_stepwise_chain_refuses():
    # A scalar pair's sides take no chain: each reads d_0, ..., 0 off its
    # certified step 0.  That is the truth on every profile, and the
    # stepwise chain from the same N_0 at CLUSTER_TOL, where it answers.
    pairs = [(_scalar_pair(*specs), specs[0].degree - specs[1].degree)
             for specs in _random_specs(3109, 80, (2, 40))]
    pairs += [(_near_axis_pair(eps), 2) for eps in NEAR_AXIS_EPS]
    steps = refusals = 0
    for pair, truth in pairs:
        for flavored in (pair, SymbolPair(c2d(pair.v), c2d(pair.w))):
            profile = full_profile(flavored)
            assert profile.all_indices == (truth,)
            answers = profile.negative_kernel_dims, profile.positive_kernel_dims
            for dims, (basis, w, form) in zip(answers, _chain_inputs(flavored)):
                stepwise = _chain_outcome(_stepwise_chain, basis, w, form, CLUSTER_TOL)
                if isinstance(stepwise, str):
                    refusals += 1
                else:
                    assert tuple(stepwise) == dims
                    steps += len(stepwise) - 1
    # 776 steps of answered chains agree, and 76 chains that the stepwise chain refuses.
    assert steps >= 700 and refusals >= 70


def _closed_form_dims(indices_, sign):
    """d_k = sum_j max(kappa_j - k, 0), k = 0 .. max kappa, of the side whose
    index magnitudes kappa_j are the indices of ``sign`` -1 (negative) or 1."""
    kappa = [sign * i for i in indices_ if sign * i > 0]
    return [sum(max(x - k, 0) for x in kappa) for k in range(max(kappa, default=0) + 1)]


def _static_channel_pairs(rng):
    """(pair, indices) of diagonal pairs and of direct sums of scalar Blaschke
    and constant blocks, whose factors have outputs that carry no state."""
    for _ in range(16):
        powers = [int(p) for p in rng.integers(-6, 7, int(rng.integers(2, 5)))]
        yield diagonal_symbol_factors(powers), sorted(powers)

    def block(degree):
        if not degree:  # a constant unimodular entry: a zero row of c
            return constant_realization([[np.exp(2j * np.pi * rng.uniform())]])
        return blaschke_realization(random_blaschke_spec(rng, degree))

    for _ in range(16):
        shape = int(rng.integers(2, 5)), 2
        degrees = rng.integers(1, 6, shape) * (rng.uniform(size=shape) < 0.5)
        v = direct_sum(*(block(int(f)) for f, _ in degrees))
        w = direct_sum(*(block(int(g)) for _, g in degrees))
        yield SymbolPair(v, w), sorted(int(f - g) for f, g in degrees)


def test_dropping_zero_rows_never_changes_a_decision():
    # Every chain against the closed form, the stepwise chain on all m rows of
    # c_d, and the chains of the same symbol with each factor left-twisted.
    rng = np.random.default_rng(3115)
    fewer_rows = {False: 0, True: 0}
    for pair, truth in _static_channel_pairs(rng):
        expected = _closed_form_dims(truth, -1), _closed_form_dims(truth, 1)
        for discrete in (False, True):
            flavored = SymbolPair(c2d(pair.v), c2d(pair.w)) if discrete else pair
            label = f"{truth} discrete={discrete}"
            for dims, (basis, w, form) in zip(expected, _chain_inputs(flavored)):
                args = basis, w, form, CLUSTER_TOL
                assert indices._kernel_dimension_chain(*args) == dims, label
                assert _stepwise_chain(*args) == dims, label
                fewer_rows[discrete] += dims[0] > 0 and (
                    chain_oracle.step_rows(w.c, dims[0]) < w.output_dim)
            twisted = full_profile(_left_twisted(flavored, rng))
            got = twisted.negative_kernel_dims, twisted.positive_kernel_dims
            assert got == tuple(map(tuple, expected)), label
    # The chains that step with fewer rows than m: 23 in each flavor.
    assert fewer_rows[False] == fewer_rows[True] >= 20, fewer_rows
