"""Kernel chain by one-step subspace recursion, checked against the matrix-power reference."""

import numpy as np
import pytest

import chain_oracle
from whindex import (
    ContractionViolationError,
    PipelineError,
    SymbolPair,
    blaschke_realization,
    c2d,
    diagonal_symbol_factors,
    discrete_negative_profile,
    full_profile,
    negative_profile,
    positive_profile,
    winding_number,
    zeta_of_minus,
)
from whindex.equations import CLUSTER_TOL, unit_eigenvectors
from whindex.indices import _unit_image
from whindex.sampling import random_blaschke_spec, random_symbol_pair

#: Degrees of the acceptance sweep and the cyclic shifts pairing them.
SWEEP_DEGREES = tuple(range(8, 21))
SWEEP_SHIFTS = (0, 4, 8, 12)
SWEEP_SEEDS = (1, 2, 3)
#: PipelineError count of the sweep when the recursion replaced the matrix-power
#: chain, which failed 20 of the 156 pairs; it may only fall.
SWEEP_MAX_FAILURES = 5
#: Sweep pairs whose degree gap is confirmed by the winding-number oracle.
SWEEP_ORACLE_SAMPLE = 12


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


def _assert_matches_oracle(label, trace, m):
    assert len(m) <= 12
    expected = chain_oracle.kernel_dimension_chain(trace.q, m, CLUSTER_TOL, cap=len(m) + 1)
    assert list(trace.kernel_dims) == expected, label


def test_chain_matches_power_oracle_continuous():
    rng = np.random.default_rng(3101)
    for label, pair in _continuous_cases(rng):
        trace, _, _ = negative_profile(pair)
        _assert_matches_oracle(label + "-negative", trace, zeta_of_minus(pair.w.a))
        trace, _, _ = positive_profile(pair)
        _assert_matches_oracle(label + "-positive", trace, zeta_of_minus(pair.v.a))


def test_chain_matches_power_oracle_discrete():
    rng = np.random.default_rng(3102)
    for label, pair in _continuous_cases(rng):
        v, w = c2d(pair.v), c2d(pair.w)
        trace, _, _ = discrete_negative_profile(v, w)
        _assert_matches_oracle(label + "-discrete", trace, w.a)
        trace, _, _ = discrete_negative_profile(w, v)
        _assert_matches_oracle(label + "-discrete-swapped", trace, v.a)


def test_chain_bases_stay_orthonormal_at_k128():
    pair = diagonal_symbol_factors([-128, 128])
    trace, _, _ = negative_profile(pair)
    m = zeta_of_minus(pair.w.a)
    basis = unit_eigenvectors(trace.q, CLUSTER_TOL)
    dims = [basis.shape[1]]
    worst = 0.0
    while basis.shape[1]:
        worst = max(worst, np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1]), 2))
        basis = _unit_image(m, basis, CLUSTER_TOL)
        dims.append(basis.shape[1])
    assert tuple(dims) == trace.kernel_dims == tuple(range(128, -1, -1))
    assert worst <= 1e-12


def test_chain_step_refuses_a_stretching_map():
    # sigma^2 = 1.5^2 on the unit subspace: the iteration map is not the promised contraction.
    with pytest.raises(ContractionViolationError) as info:
        _unit_image(1.5 * np.eye(3), np.eye(3)[:, :2], CLUSTER_TOL)
    assert abs(info.value.eigenvalue - 2.25) < 1e-12


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
