import numpy as np
import pytest
import scipy.linalg

from whindex import (
    ContractionViolationError,
    EvaluationError,
    StructureError,
    UnsolvableEquationError,
    direct_sum,
    eigenvalue_one_multiplicity,
    schur_form,
    solve_stein,
    solve_sylvester,
    unit_eigenvectors,
    zeta_of_minus,
    zeta_power_realization,
)
from whindex.core import opnorm
from whindex.equations import _disk_map
from whindex.sampling import random_hurwitz_matrix, random_schur_matrix


def stein_series_oracle(a, b, c, terms=500):
    """Independent fixed-point series for x = a x b + c (spectral radii < 1)."""
    x = np.zeros_like(c)
    term = c.astype(complex).copy()
    for _ in range(terms):
        x = x + term
        term = a @ term @ b
        if np.abs(term).max() < 1e-18:
            break
    return x


def test_sylvester_scalar_examples():
    sol = solve_sylvester(np.array([[-1.0]]), np.array([[-2.0]]), np.array([[6.0]]))
    assert abs(sol.x[0, 0] - 2.0) < 1e-14
    sol = solve_sylvester(np.array([[-1.0]]), np.array([[-1.0]]), np.array([[2.0]]))
    assert abs(sol.x[0, 0] - 1.0) < 1e-14


def test_sylvester_random_matches_bartels_stewart():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_hurwitz_matrix(rng, 3)
        b = random_hurwitz_matrix(rng, 3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sol = solve_sylvester(a, b, c)
        assert sol.residual < 1e-10
        reference = scipy.linalg.solve_sylvester(a, b, -c)
        assert opnorm(sol.x - reference) < 1e-9 * (1 + opnorm(reference))


def test_sylvester_empty_dimension():
    sol = solve_sylvester(np.zeros((0, 0)), np.array([[-1.0]]), np.zeros((0, 1)))
    assert sol.x.shape == (0, 1)
    assert sol.residual == 0.0


def test_sylvester_refuses_a_non_square_coefficient_or_a_misshapen_c():
    with pytest.raises(StructureError, match=r"^expected a square matrix, got \(2, 3\)$"):
        solve_sylvester(np.ones((2, 3)), -np.eye(1), np.ones((2, 1)))
    with pytest.raises(StructureError, match=r"^c must be 2x1, got \(1, 2\)$"):
        solve_sylvester(-np.eye(2), -np.eye(1), np.ones((1, 2)))


def test_sylvester_spectral_overlap_rejected():
    # a = 1 and b = -1 overlap after negation; the Kronecker system is singular.
    with pytest.raises(UnsolvableEquationError) as info:
        solve_sylvester(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))
    assert info.value.smallest_singular_value < 1e-12


def test_stein_scalar_examples():
    sol = solve_stein(np.array([[0.5]]), np.array([[0.5]]), np.array([[3.0]]))
    assert abs(sol.x[0, 0] - 4.0) < 1e-13
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    sol = solve_stein(np.zeros((2, 2)), np.zeros((2, 2)), c)
    assert opnorm(sol.x - c) < 1e-14


def test_stein_random_matches_series():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_schur_matrix(rng, 3)
        b = random_schur_matrix(rng, 3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sol = solve_stein(a, b, c)
        assert sol.residual < 1e-10
        reference = stein_series_oracle(a, b, c)
        assert opnorm(sol.x - reference) < 1e-9 * (1 + opnorm(reference))


def test_zeta_of_minus_scalars():
    assert abs(zeta_of_minus(np.array([[-1.0]]))[0, 0]) < 1e-15
    assert abs(zeta_of_minus(np.array([[-3.0]]))[0, 0] - (-0.5)) < 1e-15


def test_zeta_of_minus_block_state_map_is_shift():
    # The direct sum of the power-4 and power-2 state maps lands on the
    # corresponding direct sum of upward shift matrices.
    a_w = direct_sum(zeta_power_realization(4), zeta_power_realization(2)).a
    shifted = zeta_of_minus(a_w)
    expected = np.zeros((6, 6))
    expected[:4, :4] = np.eye(4, k=1)
    expected[4:, 4:] = np.eye(2, k=1)
    assert opnorm(shifted - expected) < 1e-12


def test_zeta_of_minus_pole_rejected():
    with pytest.raises(EvaluationError):
        zeta_of_minus(np.eye(2))


@pytest.mark.parametrize("gap, refused", [(1e-13, True), (1e-11, False)])
def test_zeta_of_minus_refuses_by_the_exact_condition_number(gap, refused):
    # I - a = diag(gap, 2) has 2-norm condition number 2/gap, against CONDITION_LIMIT = 1e12.
    a = np.diag([1.0 - gap, -1.0])
    if refused:
        with pytest.raises(EvaluationError, match="^an eigenvalue of a is too close to 1"):
            zeta_of_minus(a)
    else:
        assert zeta_of_minus(a)[0, 0] == pytest.approx((2.0 - gap) / gap)


def test_disk_map_refuses_only_an_exactly_singular_shift():
    # No pole test: the caller vouches for I - a, and only ztrtrs's zero pivot is refused.
    with pytest.raises(EvaluationError, match=r"^I - a is exactly singular \(ztrtrs info 1\)$"):
        _disk_map(schur_form(np.eye(2)))
    # zeta_of_minus refuses this a; 1 - a[0, 0] keeps two digits of 1e-13.
    near_pole = _disk_map(schur_form(np.diag([1.0 - 1e-13, -1.0])))
    assert near_pole[0, 0] == pytest.approx(2e13, rel=1e-2)


def test_eigenvalue_one_multiplicity_examples():
    count, evals = eigenvalue_one_multiplicity(np.eye(6), 1e-7)
    assert count == 6
    assert evals.shape == (6,)
    count, _ = eigenvalue_one_multiplicity(np.diag([1.0, 0.5]), 1e-7)
    assert count == 1
    count, _ = eigenvalue_one_multiplicity(np.zeros((3, 3)), 1e-7)
    assert count == 0


def test_eigenvalue_one_multiplicity_contract_violation():
    with pytest.raises(ContractionViolationError) as info:
        eigenvalue_one_multiplicity(np.diag([1.1, 0.2]), 1e-7)
    assert info.value.eigenvalue > 1.05


def test_unit_eigenvectors_refuses_an_eigenvalue_above_the_band():
    with pytest.raises(ContractionViolationError) as info:
        unit_eigenvectors(np.diag([1.5, 1.0, 0.2]))
    assert info.value.eigenvalue == 1.5


def test_unit_eigenvectors_share_the_cut_of_the_multiplicity():
    h = np.diag([1.0 + 0.5e-7, 1.0 - 0.5e-7, 1.0 - 2e-7, 0.3])
    count, _ = eigenvalue_one_multiplicity(h, 1e-7)
    basis = unit_eigenvectors(h, 1e-7)
    assert count == basis.shape[1] == 2
    assert opnorm(basis.conj().T @ basis - np.eye(2)) < 1e-14


def test_eigenvalue_one_multiplicity_rejects_non_hermitian():
    with pytest.raises(StructureError):
        eigenvalue_one_multiplicity(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-7)


def test_disk_map_eigenvalue_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        a = random_hurwitz_matrix(rng, n)
        mapped = np.linalg.eigvals(zeta_of_minus(a))
        assert np.abs(mapped).max() < 1.0
        recovered = (1.0 - mapped) / (1.0 + mapped)
        target = np.linalg.eigvals(-a)
        diff = np.abs(np.sort_complex(recovered) - np.sort_complex(target)).max()
        assert diff < 1e-8


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda: solve_sylvester(-np.eye(2), -np.eye(2), np.full((2, 2), NAN)), "c"),
    (lambda: solve_sylvester([[NAN]], -np.eye(1), [[1.0]]), "a"),
    (lambda: solve_sylvester(-np.eye(1), [[complex(-1.0, INF)]], [[1.0]]), "b"),
    (lambda: solve_stein(0.5 * np.eye(2), 0.5 * np.eye(2), np.full((2, 2), INF)), "c"),
    (lambda: eigenvalue_one_multiplicity([[NAN]]), "h"),
    (lambda: unit_eigenvectors([[INF, 0.0], [0.0, 1.0]]), "h"),
    (lambda: zeta_of_minus([[NAN]]), "a"),
    (lambda: schur_form([[INF]]), "a"),
], ids=["sylvester-c", "sylvester-a", "sylvester-b", "stein-c", "multiplicity", "eigenvectors",
        "disk-map", "schur-form"])
def test_non_finite_dense_input_is_refused_as_malformed(call, name):
    with pytest.raises(StructureError, match=f"^{name} has a NaN or infinite entry$"):
        call()
