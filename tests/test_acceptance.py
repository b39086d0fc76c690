"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the random sweeps are seeded so the gate is
deterministic.
"""

import time

import numpy as np

from whindex import (
    Polynomial,
    SymbolPair,
    blaschke_eval,
    blaschke_eval_at_minus,
    blaschke_of_minus_A,
    blaschke_realization,
    c2d,
    defect_rank,
    diagonal_symbol_factors,
    direct_sum,
    discrete_negative_profile,
    full_profile,
    negative_profile,
    recover_blaschke_pointwise,
    roots_stable,
    schur_cohen_stable,
    unit_eigenvectors,
    unitary_twist,
    validate_stable_unitary,
    winding_number,
)
from whindex.core import opnorm
from whindex.errors import EvaluationError
from whindex.sampling import (
    random_blaschke_spec,
    random_polynomial_off_axis,
    random_rank_one_dissipative,
    random_symbol_pair,
    random_unitary,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_reference_diagonal_reproduction():
    start = time.perf_counter()
    profile = full_profile(diagonal_symbol_factors([-4, -2, 0, 3, 5]))
    elapsed = time.perf_counter() - start
    trace = profile.negative_trace
    q = np.eye(6) - trace.omega.conj().T @ trace.omega
    ok = (
        opnorm(trace.omega) < 1e-10
        and opnorm(q - np.eye(6)) < 1e-8
        and trace.kernel_dims == (6, 4, 2, 1, 0)
        and profile.mu == (2, 2, 1, 1)
        and profile.negative == (4, 2)
        and profile.positive == (5, 3)
        and profile.all_indices == (-4, -2, 0, 3, 5)
        and elapsed < 1.0
    )
    _report(1, f"reference diagonal profile reproduced in {elapsed:.3f}s", ok)


def test_criterion_2_diagonal_oracle_sweep():
    rng = np.random.default_rng(2001)
    failures = 0
    for _ in range(200):
        length = int(rng.integers(1, 7))
        powers = [int(x) for x in rng.integers(-6, 7, length)]
        profile = full_profile(diagonal_symbol_factors(powers))
        if list(profile.all_indices) != sorted(powers):
            failures += 1
    _report(2, f"200 diagonal power lists, {failures} mismatches", failures == 0)


def test_criterion_3_scalar_blaschke_sweep():
    rng = np.random.default_rng(2003)
    failures = 0
    for _ in range(100):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        pair = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
        indices = full_profile(pair).all_indices
        expected = phi.degree - m.degree
        if list(indices) != [expected] or winding_number(phi, m) != expected:
            failures += 1
    _report(3, f"100 scalar pairs against the degree gap and winding number, "
               f"{failures} mismatches", failures == 0)


def test_criterion_4_cayley_equivalence():
    rng = np.random.default_rng(2004)
    failures = 0
    for _ in range(50):
        pair = random_symbol_pair(rng, max_m=2, max_block_degree=3)
        vd, wd = c2d(pair.v), c2d(pair.w)
        for factor in (vd, wd):
            report = validate_stable_unitary(factor)
            if not report.verdict or report.system_unitarity_residual >= 1e-8:
                failures += 1
        trace_c, _, kappa_c = negative_profile(pair)
        trace_d, _, kappa_d = discrete_negative_profile(vd, wd)
        q_c, q_d = (np.eye(len(wd.a)) - t.omega.conj().T @ t.omega for t in (trace_c, trace_d))
        if opnorm(q_d - q_c) >= 1e-8 or kappa_d != kappa_c:
            failures += 1
    _report(4, f"50 transformed pairs validate and agree, {failures} failures",
            failures == 0)


def test_criterion_5_defect_rank_law():
    rng = np.random.default_rng(2005)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a, _ = random_rank_one_dissipative(rng, n)
        degree = int(rng.integers(0, 9))
        spec = random_blaschke_spec(rng, degree)
        value = blaschke_of_minus_A(Polynomial.from_roots(spec.poles), a)
        if opnorm(value) > 1.0 + 1e-10 or defect_rank(value, 1e-7) != min(degree, n):
            failures += 1
    _report(5, f"50 defect ranks equal min(degree, dimension), {failures} failures",
            failures == 0)


def test_criterion_6_stability_test_equivalence():
    rng = np.random.default_rng(2006)
    failures = 0
    for _ in range(500):
        p = random_polynomial_off_axis(rng, int(rng.integers(1, 9)))
        if schur_cohen_stable(p)[0] != roots_stable(p):
            failures += 1
    _report(6, f"500 polynomials, quadratic-form test vs roots, {failures} disagreements",
            failures == 0)


def test_criterion_7_metamorphic_invariance():
    rng = np.random.default_rng(2007)
    failures = 0
    for _ in range(50):
        pair = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        base = list(full_profile(pair).all_indices)
        m = pair.output_dim
        shared = random_unitary(rng, m)
        twisted = [
            SymbolPair(unitary_twist(pair.v, random_unitary(rng, m), "left"), pair.w),
            SymbolPair(pair.v, unitary_twist(pair.w, random_unitary(rng, m), "left")),
            SymbolPair(
                unitary_twist(pair.v, shared, "right"),
                unitary_twist(pair.w, shared, "right"),
            ),
        ]
        if any(list(full_profile(t).all_indices) != base for t in twisted):
            failures += 1
        other = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        merged = SymbolPair(direct_sum(pair.v, other.v), direct_sum(pair.w, other.w))
        expected = sorted(base + list(full_profile(other).all_indices))
        if list(full_profile(merged).all_indices) != expected:
            failures += 1
    _report(7, f"50 pairs under twists and direct sums, {failures} failures",
            failures == 0)


def test_criterion_8_dual_consistency():
    rng = np.random.default_rng(2008)
    failures = 0
    pairs = [diagonal_symbol_factors([-4, -2, 0, 3, 5])]
    pairs += [random_symbol_pair(rng, max_m=3, max_block_degree=2) for _ in range(50)]
    for pair in pairs:
        trace_neg, _, _ = negative_profile(pair)
        trace_pos, _, _ = negative_profile(pair.swapped())
        if trace_neg.omega.size:
            gap = float(np.max(np.abs(trace_pos.omega - trace_neg.omega.conj().T)))
            if gap > 1e-10:
                failures += 1
        # Unit multiplicity of the dual contraction balances the primal corank.
        rank_primal = pair.w.state_dim - trace_neg.kernel_dims[0]
        if trace_pos.kernel_dims[0] != pair.v.state_dim - rank_primal:
            failures += 1
    _report(8, f"dual coupling adjointness and corank balance on {len(pairs)} runs, "
               f"{failures} failures", failures == 0)


def test_criterion_9_recovery_formula():
    rng = np.random.default_rng(2009)
    failures = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, c = random_rank_one_dissipative(rng, n)
        phi = random_blaschke_spec(rng, int(rng.integers(0, n)))
        evaluated = blaschke_eval_at_minus(phi, a.conj().T)
        basis = unit_eigenvectors(evaluated.conj().T @ evaluated, 1e-7)
        x = basis[:, 0]
        checked = 0
        while checked < 10:
            s = complex(rng.uniform(0.2, 2.5), rng.uniform(-2.5, 2.5))
            try:
                value = recover_blaschke_pointwise(a, c, phi, x, s)
            except EvaluationError:
                continue
            if abs(value - blaschke_eval(phi, s)) > 1e-8:
                failures += 1
            checked += 1
    _report(9, f"20 recovery instances at 10 points each, {failures} failures",
            failures == 0)
