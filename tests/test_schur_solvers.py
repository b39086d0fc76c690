"""Schur-based solvers checked side by side against the dense Kronecker/SVD oracle."""

import collections
import importlib.machinery

import numpy as np
import pytest
import scipy.linalg.lapack

import kronecker_oracle as kron
from whindex import (
    EvaluationError,
    SymbolPair,
    UnsolvableEquationError,
    blaschke_realization,
    c2d,
    diagonal_symbol_factors,
    full_profile,
    solve_stein,
    solve_sylvester,
    unitary_twist,
    zeta_of_minus,
)
from whindex.core import opnorm
from whindex import core, equations, indices
from whindex.equations import CONDITION_LIMIT, SOLVE_TOL, _disk_map, schur_form
from whindex.sampling import (
    random_blaschke_spec, random_hurwitz_matrix, random_schur_matrix, random_unitary,
)

#: Resonance gaps of the side-by-side gate sweep, 1e-6 down to 1e-14.
GAPS = [10.0 ** -e for e in range(6, 15)]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_spectrum(rng, eigenvalues, coupling):
    """Unitarily rotated upper triangular matrix with the given diagonal."""
    n = len(eigenvalues)
    t = np.diag(eigenvalues) + coupling * np.triu(_complex_normal(rng, (n, n)), 1)
    u, _ = np.linalg.qr(_complex_normal(rng, (n, n)))
    return u @ t @ u.conj().T


def _resonant_case(rng, kind, gap):
    """(a, b, c) with one eigenvalue pair at distance ``gap`` from resonance.

    For ``kind == "sylvester"`` an eigenvalue of b sits ``gap`` away from
    minus an eigenvalue of a; for ``"stein"`` a product of eigenvalues of a
    and b sits ``gap`` away from 1.
    """
    p, q = (int(n) for n in rng.integers(1, 13, size=2))
    coupling = (0.0, 0.3, 1.0, 3.0)[rng.integers(4)]
    phase = np.exp(2j * np.pi * rng.uniform())
    if kind == "sylvester":
        la = -rng.uniform(0.1, 3.0, p) + 1j * rng.uniform(-3.0, 3.0, p)
        lb = -rng.uniform(0.1, 3.0, q) + 1j * rng.uniform(-3.0, 3.0, q)
        lb[0] = -la[0] + gap * phase
    else:
        la = rng.uniform(0.1, 0.99, p) * np.exp(2j * np.pi * rng.uniform(size=p))
        lb = rng.uniform(0.1, 0.99, q) * np.exp(2j * np.pi * rng.uniform(size=q))
        la[0] = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        lb[0] = (1.0 + gap * phase) / la[0]
    a = _with_spectrum(rng, la, coupling)
    b = _with_spectrum(rng, lb, coupling)
    return a, b, _complex_normal(rng, (p, q))


def gate_side_by_side(seed, cases_per_gap):
    """Refusal counts of the Kronecker gate and the Schur gate over a resonance sweep.

    Returns ``{(kind, refused_by_kronecker, refused_by_schur): count}`` and
    the refused cases' values of smallest_singular_value.
    """
    rng = np.random.default_rng(seed)
    counts, smallest = {}, []
    for kind, solve, oracle in (
        ("sylvester", solve_sylvester, kron.solve_sylvester),
        ("stein", solve_stein, kron.solve_stein),
    ):
        for gap in GAPS:
            for _ in range(cases_per_gap):
                a, b, c = _resonant_case(rng, kind, gap)
                try:
                    oracle(a, b, c)
                    old = False
                except kron.Refused:
                    old = True
                try:
                    solve(a, b, c)
                    new = False
                except UnsolvableEquationError as exc:
                    new = True
                    smallest.append(exc.smallest_singular_value)
                counts[(kind, old, new)] = counts.get((kind, old, new), 0) + 1
    return counts, smallest


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        p, q = (int(n) for n in rng.integers(1, 13, size=2))
        a, b = random_hurwitz_matrix(rng, p), random_hurwitz_matrix(rng, q)
        c = _complex_normal(rng, (p, q))
        x = solve_sylvester(a, b, c).x
        reference = kron.solve_sylvester(a, b, c)
        assert opnorm(x - reference) <= 1e-10 * opnorm(reference)


def test_stein_matches_kronecker_oracle():
    rng = np.random.default_rng(2025)
    for _ in range(30):
        p, q = (int(n) for n in rng.integers(1, 13, size=2))
        a, b = random_schur_matrix(rng, p), random_schur_matrix(rng, q)
        c = _complex_normal(rng, (p, q))
        x = solve_stein(a, b, c).x
        reference = kron.solve_stein(a, b, c)
        assert opnorm(x - reference) <= 1e-10 * opnorm(reference)


def test_shared_schur_forms_match_kronecker_oracle():
    # The pipelines pass one factorization for a matrix and for its adjoint.
    rng = np.random.default_rng(2026)
    for _ in range(20):
        p, q = (int(n) for n in rng.integers(1, 13, size=2))
        a, w = random_hurwitz_matrix(rng, p), random_hurwitz_matrix(rng, q)
        fa, fw = schur_form(a), schur_form(w)
        c = _complex_normal(rng, (p, q))
        x = solve_sylvester(fa, fw.H, c).x
        reference = kron.solve_sylvester(a, w.conj().T, c)
        assert opnorm(x - reference) <= 1e-10 * opnorm(reference)
        ad, wd = random_schur_matrix(rng, p), random_schur_matrix(rng, q)
        x = solve_stein(schur_form(ad).H, schur_form(wd).H, c).x
        reference = kron.solve_stein(ad.conj().T, wd.conj().T, c)
        assert opnorm(x - reference) <= 1e-10 * opnorm(reference)


def test_stein_with_eigenvalue_minus_one():
    # -1 in spec(a) rules out the plain Cayley parameter; another one is used.
    a = np.diag([-1.0, 0.5])
    b = np.diag([0.5, -0.25])
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = solve_stein(a, b, c).x
    assert opnorm(x - kron.solve_stein(a, b, c)) < 1e-12


def test_schur_gate_refuses_every_case_the_kronecker_gate_refuses():
    counts, smallest = gate_side_by_side(seed=11, cases_per_gap=8)
    for kind in ("sylvester", "stein"):
        assert counts.get((kind, True, False), 0) == 0
        # The sweep straddles the limit: both gates accept some cases and refuse others.
        assert counts.get((kind, True, True), 0) > 0
        assert counts.get((kind, False, False), 0) > 0
    assert all(0.0 <= s < 1e-5 for s in smallest)


def test_zeta_pole_check_refuses_every_case_the_dense_check_refuses():
    rng = np.random.default_rng(12)
    refused = {(True, True): 0, (False, False): 0}
    for gap in GAPS:
        for _ in range(12):
            n = int(rng.integers(1, 13))
            eigenvalues = -rng.uniform(0.1, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
            eigenvalues[0] = 1.0 + gap * np.exp(2j * np.pi * rng.uniform())
            a = _with_spectrum(rng, eigenvalues, (0.0, 0.3, 1.0, 3.0)[rng.integers(4)])
            old = np.linalg.cond(np.eye(n) - a) > CONDITION_LIMIT
            try:
                zeta_of_minus(a)
                new = False
            except EvaluationError:
                new = True
            assert new or not old
            if new == old:
                refused[(old, new)] += 1
    assert refused[(True, True)] > 0 and refused[(False, False)] > 0


def test_zeta_of_minus_from_shared_schur_form_matches_dense_formula():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 13))
        a = random_hurwitz_matrix(rng, n)
        dense = np.linalg.solve(np.eye(n) - a, np.eye(n) + a)
        assert opnorm(_disk_map(schur_form(a)) - dense) < 1e-12 * (1 + opnorm(dense))
        assert opnorm(zeta_of_minus(a) - dense) < 1e-12 * (1 + opnorm(dense))


def test_stein_residual_at_state_dimension_48():
    rng = np.random.default_rng(48)
    a, b = random_schur_matrix(rng, 48), random_schur_matrix(rng, 48)
    c = _complex_normal(rng, (48, 48))
    sol = solve_stein(a, b, c)
    scale = opnorm(sol.x) + opnorm(a) * opnorm(sol.x) * opnorm(b) + opnorm(c)
    assert sol.residual <= SOLVE_TOL * scale


def test_full_profile_at_power_64():
    # 4096 x 4096 complex Kronecker systems (268 MB each) put this out of reach of dense solvers.
    assert full_profile(diagonal_symbol_factors([-64, 64])).all_indices == (-64, 64)


def test_vanishing_sylvester_operator_is_refused():
    # With a = b = 0 the operator itself is zero, so its norm cannot scale the gate.
    with pytest.raises(UnsolvableEquationError) as info:
        solve_sylvester(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    assert info.value.smallest_singular_value < 1e-12


def test_lapack_wrappers_load_with_or_without_the_scipy_linalg_package(monkeypatch):
    assert equations._lapack.__wrapped__().ztrsyl.__doc__ == scipy.linalg.lapack.ztrsyl.__doc__
    # Where the extension file cannot be found, the package import is used instead.
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    assert equations._lapack.__wrapped__() is scipy.linalg.lapack


#: Resonance gaps of the Hurwitz sweep, 1e-4 down to 1e-14.
HURWITZ_GAPS = [10.0 ** -e for e in range(4, 15)]


def _hurwitz_resonant_pair(rng, gap):
    """Hurwitz (a, b) with eigenvalues -gap + i w of a and -gap - i w of b.

    Both coefficients are stable, so the operator x -> a x + x b has the
    Gramian bound, and it comes within 2 gap of singular as the pair
    approaches the imaginary axis.
    """
    p, q = (int(n) for n in rng.integers(1, 13, size=2))
    coupling = (0.0, 0.3, 1.0, 3.0)[rng.integers(4)]
    la = -rng.uniform(0.1, 3.0, p) + 1j * rng.uniform(-3.0, 3.0, p)
    lb = -rng.uniform(0.1, 3.0, q) + 1j * rng.uniform(-3.0, 3.0, q)
    omega = rng.uniform(-3.0, 3.0)
    la[0], lb[0] = -gap + 1j * omega, -gap - 1j * omega
    return _with_spectrum(rng, la, coupling), _with_spectrum(rng, lb, coupling)


def test_gramian_bound_is_at_least_the_exact_inverse_norm():
    rng = np.random.default_rng(14)
    for gap in [1.0, 1e-1, 1e-2, 1e-3, 1e-4]:
        for _ in range(12):
            a, b = _hurwitz_resonant_pair(rng, gap)
            exact = 1.0 / np.linalg.svd(kron.sylvester_system(a, b), compute_uv=False)[-1]
            bound = equations._operator(schur_form(a), schur_form(b))[2]
            assert bound >= exact * (1.0 - 1e-6)


def _smallest_singular_value(system):
    """Smallest singular value of a Kronecker system, raised by 16 eps |K|_2 so
    that it stays above the exact one despite the absolute error of the SVD."""
    s = np.linalg.svd(system, compute_uv=False)
    return s[-1] + 16.0 * np.finfo(float).eps * s[0]


def _gates(a, b, c, stein=False):
    """(refused by the Kronecker gate, refused by the Schur gate) for one
    equation.  A Schur refusal carries a certified lower bound on the smallest
    singular value, so it is checked to be at most the exact one."""
    try:
        (kron.solve_stein if stein else kron.solve_sylvester)(a, b, c)
        kronecker = False
    except kron.Refused:
        kronecker = True
    try:
        (solve_stein if stein else solve_sylvester)(a, b, c)
        return kronecker, False
    except UnsolvableEquationError as exc:
        system = (kron.stein_system if stein else kron.sylvester_system)(a, b)
        assert exc.smallest_singular_value <= _smallest_singular_value(system) * (1.0 + 1e-6)
        return kronecker, True


def test_hurwitz_gate_refuses_every_case_the_kronecker_gate_refuses():
    rng = np.random.default_rng(15)
    counts = {}
    for gap in HURWITZ_GAPS:
        for _ in range(12):
            a, b = _hurwitz_resonant_pair(rng, gap)
            c = _complex_normal(rng, (len(a), len(b)))
            key = _gates(a, b, c)
            counts[key] = counts.get(key, 0) + 1
    assert counts.get((True, False), 0) == 0
    # The sweep straddles the limit: the gates accept some cases and refuse others.
    assert counts.get((True, True), 0) > 0
    assert counts.get((False, False), 0) > 0


def test_gramian_trace_bounds_its_two_norm_in_both_orientations():
    # P >= 0 gives |P|_2 <= tr P, the premise of the gate's trace screen.
    rng = np.random.default_rng(18)
    for coupling in (0.0, 0.3, 1.0, 3.0):
        for _ in range(12):
            n = int(rng.integers(1, 13))
            la = -rng.uniform(0.1, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
            f = schur_form(_with_spectrum(rng, la, coupling))
            for p, trace in (equations._gramian(f), equations._gramian(f.H)):
                assert trace == float(np.trace(p).real)
                assert np.linalg.eigvalsh(p).max() <= trace * (1.0 + 1e-12)


def _gramian_norm(f):
    """|P|_2 of the Gramian of ``f``, the exact rule's factor."""
    return float(np.abs(np.linalg.eigvalsh(equations._gramian(f)[0])).max())


def _near_axis_gate(eps):
    """Forms of a = diag(-eps, -eps, -eps, -eps, -1) and b = -eps: four
    eigenvalue sums sit at -2 eps, |P_a|_2 = |P_b|_2 = 1/(2 eps) and
    tr P_a = 2/eps, so the trace bound 1/eps is twice the exact one."""
    fa, fb = schur_form(np.diag([-eps] * 4 + [-1.0])), schur_form(-eps * np.eye(1))
    norm = fa.norm_bound + fb.norm_bound
    trace = norm * np.sqrt(equations._gramian(fa)[1] * equations._gramian(fb)[1])
    exact = norm * np.sqrt(_gramian_norm(fa) * _gramian_norm(fb))
    return fa, fb, trace, exact


def test_gramian_gate_solves_what_the_trace_screen_leaves_to_the_exact_rule(monkeypatch):
    fa, fb, trace, exact = _near_axis_gate(1.5e-12)
    assert trace > CONDITION_LIMIT / 2 >= exact
    counter = _LapackCounter(equations._lapack())
    monkeypatch.setattr(equations, "_lapack", lambda: counter)
    solution = solve_sylvester(fa, fb, np.ones((5, 1)))
    # One Gramian per coefficient serves the screen and the exact rule, then the solve.
    assert counter.calls["ztrsyl"] == 3
    assert solution.residual <= SOLVE_TOL
    assert np.allclose(solution.x[:4], 1.0 / 3e-12)


def test_gramian_gate_refusal_keeps_the_exact_bound():
    fa, fb, trace, exact = _near_axis_gate(1e-13)
    assert trace > exact > CONDITION_LIMIT
    with pytest.raises(UnsolvableEquationError) as info:
        solve_sylvester(fa, fb, np.ones((5, 1)))
    smallest = 1.0 / np.sqrt(_gramian_norm(fa) * _gramian_norm(fb))
    assert info.value.smallest_singular_value == smallest
    assert smallest == pytest.approx(2e-13, rel=1e-9)


def test_a_gramian_with_a_perturbed_pivot_screens_nothing():
    # 2 Re t = -2e-20 is below ztrsyl's pivot floor, so it solves with a
    # perturbed pivot and P is no Gramian: the exact rule decides alone.
    p, trace = equations._gramian(schur_form(np.diag([-1e-20, -1.0])))
    assert p is not None
    assert trace == np.inf


class _LapackCounter:
    """The LAPACK module with the calls of every routine counted by name."""

    def __init__(self, lapack):
        self.lapack, self.calls = lapack, collections.Counter()

    def __getattr__(self, name):
        routine = getattr(self.lapack, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted


def _profile_pairs():
    """Seeded continuous pairs of the work-count tests.  The last one is
    V = U1 diag(1, zeta^16) and W = U2 diag(zeta^16, 1): outputs mixed by
    unitaries leave c no zero row, so its chains step with both rows."""
    specs = np.random.default_rng(17)
    scalar = SymbolPair(
        blaschke_realization(random_blaschke_spec(specs, 9)),
        blaschke_realization(random_blaschke_spec(specs, 13)),
    )
    diagonal = diagonal_symbol_factors([-16, 16])
    twisted = SymbolPair(*(unitary_twist(r, random_unitary(specs, 2), "left")
                           for r in (diagonal.v, diagonal.w)))
    return diagonal_symbol_factors([-3, 3]), diagonal, scalar, twisted


def test_profile_makes_one_coupling_solve_and_two_gramian_solves(monkeypatch):
    counter = _LapackCounter(equations._lapack())
    monkeypatch.setattr(equations, "_lapack", lambda: counter)
    for pair in _profile_pairs():
        counter.calls.clear()
        full_profile(pair)
        # The coupling solve, and one Gramian each for a_v and a_w*.
        assert counter.calls["ztrsyl"] == 3
        # A discrete profile solves one Stein equation, with one Gramian per Cayley factor.
        v, w = c2d(pair.v), c2d(pair.w)
        counter.calls.clear()
        full_profile(SymbolPair(v, w))
        profile_calls = counter.calls["ztrsyl"]
        counter.calls.clear()
        solve_stein(schur_form(v.a), schur_form(w.a).H, v.b @ w.b.conj().T)
        assert profile_calls == counter.calls["ztrsyl"] == 3
    rng = np.random.default_rng(16)
    counter.calls.clear()
    solve_sylvester(random_hurwitz_matrix(rng, 5), random_hurwitz_matrix(rng, 4), np.ones((5, 4)))
    assert counter.calls["ztrsyl"] == 3


def test_profile_lapack_calls_follow_the_work_budget(monkeypatch):
    """Every LAPACK routine a profile calls, counted at the wrappers of the
    two modules that call LAPACK: two Schur forms, the solve with its two
    Gramians, one SVD for omega and one for its residual norm.  A side whose
    factor has one nonzero row of c, as both of a diagonal or a scalar pair,
    runs no chain where step 0 keeps every singular value or omega is 0, as
    here; a chain that runs makes one SVD per step.  A continuous side whose
    chain runs evaluates the disk map by one triangular solve and no
    condition estimate: validation of the factor proves it has no pole.  A
    discrete profile inverts two shifted Schur factors for the Cayley factors
    of its Stein solve instead."""
    counter = _LapackCounter(core._lapack())
    for module in (equations, core):
        monkeypatch.setattr(module, "_lapack", lambda: counter)
    decompositions = {False: [], True: []}
    for pair in _profile_pairs():
        for discrete in decompositions:
            flavored = SymbolPair(c2d(pair.v), c2d(pair.w)) if discrete else pair
            counter.calls.clear()
            profile = full_profile(flavored)
            chains = [dims for dims, factor in ((profile.negative_kernel_dims, flavored.w),
                                                (profile.positive_kernel_dims, flavored.v))
                      if np.count_nonzero(factor.c.any(axis=1)) > 1]
            running = sum(dims[0] > 0 for dims in chains)
            budget = {"zgees": 2, "ztrsyl": 3, "ztrcon": 0,
                      "zgesdd": 2 + sum(len(dims) - 1 for dims in chains)}
            budget.update({"ztrtri": 2} if discrete else {"ztrtrs": running})
            # Counters compare a missing routine as zero calls, as ztrcon's must be.
            calls = {name: count for name, count in counter.calls.items()
                     if not name.endswith("_lwork")}
            assert collections.Counter(calls) == collections.Counter(budget)
            decompositions[discrete].append(budget["zgesdd"])
    assert decompositions[False] == decompositions[True] == [2, 2, 2, 34]


def test_gate_accepts_a_well_conditioned_equation_near_the_axis():
    # Each coefficient has an eigenvalue 1e-12 from the axis, at frequencies 5
    # and 0, so sqrt(|P_a| |P_b|) grows like 1/1e-12 while the operator stays
    # far from singular; the comparison bound sees that.
    a = np.diag([-1e-12 + 5j, -1.0])
    b = np.diag([-1e-12, -2.0])
    singular_values = np.linalg.svd(kron.sylvester_system(a, b), compute_uv=False)
    assert singular_values[0] / singular_values[-1] < 5.4
    assert solve_sylvester(a, b, np.ones((2, 2))).residual <= SOLVE_TOL


@pytest.mark.parametrize(
    "a, b",
    [
        # Each coefficient near the axis at a different frequency: the Gramian bound is 5e11.
        (np.diag([-1e-12 + 5j, -1.0]), np.diag([-1e-12, -2.0])),
        # 2 Re t = -2e-300 perturbs ztrsyl's pivot, so P_a is no Gramian and bounds nothing.
        (np.diag([-1e-300, -1.0]), np.diag([-1.0, -2.0])),
    ],
)
def test_comparison_bound_decides_where_the_gramian_bound_cannot(a, b):
    exact = 1.0 / np.linalg.svd(kron.sylvester_system(a, b), compute_uv=False)[-1]
    bound = equations._operator(schur_form(a), schur_form(b))[2]
    assert bound == equations._comparison_bound(schur_form(a), schur_form(b), False)
    assert bound >= exact
    assert solve_sylvester(a, b, np.ones((2, 2))).residual <= SOLVE_TOL


def test_comparison_bound_is_at_least_the_exact_inverse_norm():
    # Two cases per gap from each generator of the gate sweeps, in three orientations.
    rng = np.random.default_rng(23)
    cases = []
    for gap in GAPS:
        for kind in ("sylvester", "stein"):
            for _ in range(2):
                cases.append((kind == "stein",) + _resonant_case(rng, kind, gap)[:2])
    for gap in HURWITZ_GAPS:
        for _ in range(2):
            cases.append((False,) + _hurwitz_resonant_pair(rng, gap))
    for gap in CIRCLE_GAPS:
        for kind in ("resonant", "split"):
            for _ in range(2):
                cases.append((True,) + _schur_stable_pair(rng, gap, kind))
    for stein, a, b in cases:
        fa, fb = schur_form(a), schur_form(b)
        for xa, xb in ((fa, fb), (fa, fb.H), (fa.H, fb)):
            system = (kron.stein_system if stein else kron.sylvester_system)(xa.matrix, xb.matrix)
            bound = equations._comparison_bound(xa, xb, stein)
            assert bound * _smallest_singular_value(system) >= 1.0 - 1e-6


def test_profiles_of_both_flavors_never_leave_the_trace_screen(monkeypatch):
    def refuse_to_compare(*args):
        raise AssertionError("the comparison bound ran")

    monkeypatch.setattr(equations, "_comparison_bound", refuse_to_compare)
    rng = np.random.default_rng(19)
    pairs = list(_profile_pairs()) + [
        SymbolPair(
            blaschke_realization(random_blaschke_spec(rng, int(rng.integers(1, 9)))),
            blaschke_realization(random_blaschke_spec(rng, int(rng.integers(1, 9)))),
        )
        for _ in range(10)
    ]
    for pair in pairs:
        full_profile(pair)
        full_profile(SymbolPair(c2d(pair.v), c2d(pair.w)))


#: Distances from the unit circle of the near-circle Stein sweeps, 1e-4 down to 1e-14.
CIRCLE_GAPS = [10.0 ** -e for e in range(4, 15)]


def _schur_stable_pair(rng, gap, kind):
    """Schur-stable (a, b) with an eigenvalue each at distance ``gap`` from the circle.

    For ``kind == "resonant"`` the two eigenvalues are conjugate in angle, so
    their product comes within about 2 gap of 1 and x -> x - a x b within about
    2 gap of singular.  For ``"split"`` they sit at unrelated angles: the
    operator stays far from singular while both Stein Gramians grow like 1/gap.
    """
    p, q = (int(n) for n in rng.integers(1, 13, size=2))
    coupling = (0.0, 0.3, 1.0)[rng.integers(3)]
    la = rng.uniform(0.1, 0.9, p) * np.exp(2j * np.pi * rng.uniform(size=p))
    lb = rng.uniform(0.1, 0.9, q) * np.exp(2j * np.pi * rng.uniform(size=q))
    angle, other = 2.0 * np.pi * rng.uniform(size=2)
    la[0] = (1.0 - gap) * np.exp(1j * angle)
    lb[0] = (1.0 - gap) * np.exp(-1j * angle if kind == "resonant" else 1j * other)
    return _with_spectrum(rng, la, coupling), _with_spectrum(rng, lb, coupling)


def _stein_gramian(f, s):
    """Q with Q - op(t) Q op(t)* = I for the Schur factor of ``f``, by way of its Cayley factor."""
    return equations._gramian(f, *equations._shift_inverse(f, s))[0]


def test_stein_gramian_bound_is_at_least_the_exact_inverse_norm(monkeypatch):
    compared = []

    def comparison(*args, _bound=equations._comparison_bound):
        compared.append(args)
        return _bound(*args)

    monkeypatch.setattr(equations, "_comparison_bound", comparison)
    rng = np.random.default_rng(20)
    screened = 0
    for gap in [0.5, 1e-1, 1e-2, 1e-3, 1e-4]:
        for kind in ("resonant", "split"):
            for _ in range(4):
                a, b = _schur_stable_pair(rng, gap, kind)
                for fa, fb in (
                    (schur_form(a), schur_form(b)),
                    (schur_form(a), schur_form(b).H),
                    (schur_form(a).H, schur_form(b)),
                ):
                    s = equations._cayley_shift(fa, fb)
                    qa, qb = _stein_gramian(fa, s), _stein_gramian(fb, np.conj(s))
                    for f, q in ((fa, qa), (fb, qb)):
                        t = f.op()
                        assert opnorm(q - t @ q @ t.conj().T - np.eye(len(f))) <= 1e-9 * opnorm(q)
                    system = kron.stein_system(fa.matrix, fb.matrix)
                    exact = 1.0 / np.linalg.svd(system, compute_uv=False)[-1]
                    norms = [np.linalg.eigvalsh(q).max() for q in (qa, qb)]
                    assert np.sqrt(norms[0] * norms[1]) >= exact * (1.0 - 1e-6)
                    before = len(compared)
                    bound = equations._operator(fa, fb, stein=True)[2]
                    assert bound >= exact * (1.0 - 1e-6)
                    screened += len(compared) == before
    # Most of these equations are well inside the limit, so the trace screen
    # decides them without the comparison bound.
    assert screened > 60


@pytest.mark.parametrize("kind", ["resonant", "split"])
def test_stein_gate_refuses_what_kronecker_refuses_near_the_circle(kind):
    rng = np.random.default_rng(21 if kind == "resonant" else 22)
    counts = {}
    for gap in CIRCLE_GAPS:
        for _ in range(20):
            a, b = _schur_stable_pair(rng, gap, kind)
            key = _gates(a, b, _complex_normal(rng, (len(a), len(b))), stein=True)
            counts[key] = counts.get(key, 0) + 1
    assert counts.get((True, False), 0) == 0
    assert counts.get((False, False), 0) > 0
    if kind == "resonant":
        # Resonant cases straddle the limit.
        assert counts.get((True, True), 0) > 0
    else:
        # Split ones are well conditioned throughout, and the certified
        # bounds refuse a few of them: 2 of these 220.
        assert counts.get((True, True), 0) == 0
        assert counts.get((False, True), 0) <= 5
