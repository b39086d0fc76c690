import numpy as np
import pytest

from whindex import (
    BlaschkeSpec,
    Polynomial,
    ResolutionError,
    StructureError,
    SymbolPair,
    blaschke_realization,
    full_profile,
    roots_stable,
    schur_cohen_stable,
    winding_number,
)
import whindex.oracle as oracle
from whindex.realizations import blaschke_eval
from whindex.sampling import POLE_IM_SPAN, random_blaschke_spec, random_polynomial_off_axis


def test_winding_degree_gap():
    phi = BlaschkeSpec(1.0, (-1.0, -2.0, -0.5 + 1.0j))
    m = BlaschkeSpec(1.0, (-1.0, -1.5, -0.3 - 0.7j, -2.5, -0.8))
    assert winding_number(phi, m) == -2


def test_winding_of_the_disk_map_itself():
    zeta = BlaschkeSpec(-1.0, (-1.0,))
    one = BlaschkeSpec(1.0, ())
    assert winding_number(zeta, one) == 1


def test_winding_equal_degrees():
    phi = BlaschkeSpec(1.0, (-1.0, -2.0 + 1.0j))
    m = BlaschkeSpec(np.exp(0.3j), (-0.5, -1.1 - 0.4j))
    assert winding_number(phi, m) == 0


def test_winding_law_random_sweep():
    rng = np.random.default_rng(51)
    for _ in range(25):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 7)))
        assert winding_number(phi, m) == phi.degree - m.degree


def _restarting_winding_number(phi, m):
    """The sweep of winding_number with every refinement level evaluated from scratch."""
    samples = oracle.WINDING_INITIAL_SAMPLES
    previous = None
    while samples <= oracle.WINDING_MAX_SAMPLES:
        theta = np.linspace(np.pi, -np.pi, samples + 1)
        omega = np.tan(theta / 2.0)
        values = blaschke_eval(phi, 1j * omega) * np.conj(blaschke_eval(m, 1j * omega))
        phases = np.unwrap(np.angle(values))
        max_step = float(np.max(np.abs(np.diff(phases))))
        current = int(round(float(phases[-1] - phases[0]) / (2.0 * np.pi)))
        if max_step < np.pi / 2.0 and previous == current:
            return current
        previous = current if max_step < np.pi / 2.0 else None
        samples *= 2
    raise ResolutionError(
        f"phase integration did not settle within {oracle.WINDING_MAX_SAMPLES} samples; "
        "a pole is too close to the axis"
    )


def _winding_or_refusal(winding, phi, m):
    try:
        return winding(phi, m)
    except ResolutionError as exc:
        return str(exc)


def test_winding_grids_nest_bit_for_bit_up_to_the_cap():
    samples = oracle.WINDING_INITIAL_SAMPLES
    while 2 * samples <= oracle.WINDING_MAX_SAMPLES:
        coarse = np.linspace(np.pi, -np.pi, samples + 1)
        assert np.linspace(np.pi, -np.pi, 2 * samples + 1)[::2].tobytes() == coarse.tobytes(), samples
        samples *= 2


def _spec_in_box(rng, degree, re_range):
    """``random_blaschke_spec`` with the real parts of its poles drawn from ``re_range``."""
    rho = complex(np.exp(2j * np.pi * rng.uniform()))
    return BlaschkeSpec(rho, tuple(complex(rng.uniform(*re_range),
                                           rng.uniform(-POLE_IM_SPAN, POLE_IM_SPAN))
                                   for _ in range(degree)))


def test_nested_winding_sweep_answers_as_the_restarting_one(monkeypatch):
    # A lower cap keeps the near-axis pairs cheap and refuses more of them; the
    # grids nest at every level up to the real cap (test above).
    monkeypatch.setattr(oracle, "WINDING_MAX_SAMPLES", 2**16)
    rng = np.random.default_rng(54)
    refused = 0
    for k in range(200):
        box = (-1e-3, -1e-6) if k % 2 else (-3.0, -0.1)
        phi = _spec_in_box(rng, int(rng.integers(0, 4)), box)
        m = _spec_in_box(rng, int(rng.integers(0, 4)), box)
        got = _winding_or_refusal(winding_number, phi, m)
        assert got == _winding_or_refusal(_restarting_winding_number, phi, m), k
        refused += isinstance(got, str)
    assert refused > 0


def test_high_degree_winding_answers_as_the_restarting_one():
    rng = np.random.default_rng(55)
    for _ in range(4):
        phi = random_blaschke_spec(rng, int(rng.integers(21, 41)))
        m = random_blaschke_spec(rng, int(rng.integers(21, 41)))
        assert winding_number(phi, m) == _restarting_winding_number(phi, m) == phi.degree - m.degree


def test_roots_stable_examples():
    assert roots_stable(Polynomial((1, 1)))
    assert not roots_stable(Polynomial((-1, 1)))
    assert roots_stable(Polynomial((1, 1, 1)))


def test_roots_stable_needs_degree():
    with pytest.raises(StructureError):
        roots_stable(Polynomial((1.0,)))


def test_schur_cohen_examples():
    verdict, lam = schur_cohen_stable(Polynomial((1, 1)))
    assert verdict and lam > 0
    verdict, _ = schur_cohen_stable(Polynomial((-1, 1)))
    assert not verdict
    verdict, lam = schur_cohen_stable(Polynomial((-2, -1, 1)))
    assert not verdict and lam < 0


def test_stability_tests_agree():
    rng = np.random.default_rng(52)
    for _ in range(100):
        p = random_polynomial_off_axis(rng, int(rng.integers(1, 9)))
        assert schur_cohen_stable(p)[0] == roots_stable(p)


def test_pipeline_sum_matches_winding():
    rng = np.random.default_rng(53)
    for _ in range(10):
        phi = random_blaschke_spec(rng, int(rng.integers(0, 5)))
        m = random_blaschke_spec(rng, int(rng.integers(0, 5)))
        pair = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
        assert sum(full_profile(pair).all_indices) == winding_number(phi, m)
