import numpy as np
import pytest

from whindex import (
    BlaschkeSpec,
    EvaluationError,
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


def _polynomial(coefficients: str) -> Polynomial:
    """The polynomial of space-separated ascending coefficients, e.g. '1 1' for s + 1."""
    return Polynomial(tuple(complex(token) for token in coefficients.split()))


@pytest.mark.parametrize(
    "coefficients, test, message",
    [
        ("1 1e-320", roots_stable,
         "the root test overflows: the companion matrix has a non-finite entry"),
        ("1e200 1e200", schur_cohen_stable,
         "the Schur-Cohen quadratic form overflows to a non-finite value"),
        ("1e308 1e308", schur_cohen_stable,
         "the Schur-Cohen quadratic form overflows to a non-finite value"),
        ("1e-200 1e-200", schur_cohen_stable,
         "the Schur-Cohen quadratic form underflows below the normal range"),
        # p(-A) and p#(-A) round to one matrix: G = 0 although the root -1e170 is stable.
        ("1 1e-170", schur_cohen_stable,
         "the Schur-Cohen quadratic form vanishes within the rounding of its terms"),
    ],
    ids=["1 1e-320", "1e200 1e200", "1e308 1e308", "1e-200 1e-200", "1 1e-170"],
)
def test_stability_tests_refuse_what_they_cannot_evaluate(coefficients, test, message):
    with pytest.raises(EvaluationError) as info:
        test(_polynomial(coefficients))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "coefficients, stable, lambda_min",
    [
        # Terms of G near 1e-300 are still normal numbers.
        ("1e-150 1e-150", True, 4.0000000000000001e-300),
        # p# is a unimodular multiple of p, so G = 0 exactly: roots mirrored in the axis, answered.
        ("0 1", False, 0.0),
        ("1 0 1", False, 0.0),
        ("4 0 5 0 1", False, 0.0),
        # A complex multiple: u * p rounds to p# only within a few ulps.
        ("24+26j 0 168+182j 0 24+26j", False, 0.0),
    ],
    ids=["1e-150 1e-150", "0 1", "1 0 1", "4 0 5 0 1", "24+26j 0 168+182j 0 24+26j"],
)
def test_stability_tests_answer_a_small_or_cancelling_quadratic_form(
    coefficients, stable, lambda_min
):
    p = _polynomial(coefficients)
    assert schur_cohen_stable(p) == (stable, lambda_min)
    assert roots_stable(p) is stable


def test_stability_tests_answer_the_worked_examples():
    for coefficients, stable in (("1 1", True), ("-1 1", False), ("-2 -1 1", False)):
        p = _polynomial(coefficients)
        verdict, lambda_min = schur_cohen_stable(p)
        assert verdict is stable and roots_stable(p) is stable
    assert lambda_min < 0
    for test in (roots_stable, schur_cohen_stable):
        with pytest.raises(StructureError):
            test(_polynomial("3"))


def test_stability_tests_differ_inside_the_root_margin():
    # The form reads G = 4e-12 > 0, stable; the root test's absolute margin
    # ROOT_STABILITY_MARGIN = -1e-9 calls the root -1e-12 unstable.
    p = _polynomial("1e-12 1")
    verdict, lambda_min = schur_cohen_stable(p)
    assert verdict and 3.9e-12 < lambda_min < 4.1e-12
    assert not roots_stable(p)


def test_stability_tests_differ_inside_the_form_margin():
    # The rightmost root -4.4e-9 - 0.48i lies left of the root test's margin,
    # stable; the form's smallest eigenvalue 1.9e-9 is positive but within
    # PSD_REL_TOL of its largest, so the form says unstable.
    p = _polynomial(
        "-0.22890130618825646+0.25738669186350954j 0.5356787697339849+0.9568813844609072j 1"
    )
    verdict, lambda_min = schur_cohen_stable(p)
    assert not verdict and 1.9e-9 < lambda_min < 2e-9
    assert roots_stable(p)


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
