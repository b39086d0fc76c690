"""The Frobenius screens ahead of the exact tolerance checks never change an answer."""

import numpy as np
import pytest

from whindex import (
    InputValidationError,
    Realization,
    StructureError,
    SymbolPair,
    blaschke_realization,
    c2d,
    constant_realization,
    diagonal_symbol_factors,
    full_profile,
    unitary_twist,
    validate_stable_dissipative,
)
from whindex import core, equations, indices
from whindex.cli import build_report
from whindex.equations import CLUSTER_TOL
from whindex.sampling import random_blaschke_spec, random_symbol_pair, random_unitary
from whindex.serialize import canonical_json


def _pairs():
    """About 60 seeded diagonal, scalar Blaschke and twisted MIMO pairs, each
    continuous and as its Cayley image, and the diagonal pair [-128, 128],
    whose factors are too large for validation to certify the chain's
    isometry check, which then decides with its screen first."""
    rng = np.random.default_rng(3108)
    pairs = [diagonal_symbol_factors(list(rng.integers(-4, 5, size=int(rng.integers(1, 4)))))
             for _ in range(10)]
    pairs += [SymbolPair(blaschke_realization(random_blaschke_spec(rng, int(f))),
                         blaschke_realization(random_blaschke_spec(rng, int(g))))
              for f, g in rng.integers(0, 9, size=(10, 2))]
    pairs += [random_symbol_pair(rng, max_m=3, max_block_degree=3) for _ in range(10)]
    images = [SymbolPair(c2d(pair.v), c2d(pair.w)) for pair in pairs]
    return pairs + images + [diagonal_symbol_factors([-128, 128])]


def _outcome(pair):
    try:
        return canonical_json(build_report(full_profile(pair), CLUSTER_TOL))
    except Exception as exc:  # a refusal must match by type and message
        return f"{type(exc).__name__}: {exc}"


def test_profiles_are_byte_identical_when_the_screen_never_decides(monkeypatch):
    pairs = _pairs()
    screened = [_outcome(pair) for pair in pairs]
    calls = []

    def undecided(frobenius, limit):
        calls.append(limit)
        return False

    for module in (core, equations, indices):
        monkeypatch.setattr(module, "_screen", undecided)
    assert [_outcome(pair) for pair in pairs] == screened
    # Validation, the Gramian gate and the chain's isometry check all asked.
    assert {core.VALIDATION_TOL, equations.CONDITION_LIMIT, CLUSTER_TOL} <= set(calls)


def _with_energy_residual(eps: float) -> Realization:
    """A 4-state inner factor with a - eps/2 I in place of a: a + a* + c*c = -eps I,
    of 2-norm eps and Frobenius norm 2 eps."""
    r = blaschke_realization(random_blaschke_spec(np.random.default_rng(3109), 4))
    return Realization(r.a - 0.5 * eps * np.eye(4), r.b, r.c, r.d)


def test_a_residual_the_screen_cannot_accept_is_decided_by_the_exact_rule(monkeypatch):
    tol = core.VALIDATION_TOL
    reports = []

    def recorded(*args, _report=core._validation_report):
        reports.append(_report(*args))
        return reports[-1]

    monkeypatch.setattr(core, "_validation_report", recorded)
    good = blaschke_realization(random_blaschke_spec(np.random.default_rng(3110), 2))
    # |residual|_F = 1.6 tol is above tol/2, |residual|_2 = 0.8 tol is within tol.
    full_profile(SymbolPair(_with_energy_residual(0.8 * tol), good))
    assert len(reports) == 1 and reports[0].verdict
    assert reports[0].residual == pytest.approx(0.8 * tol, rel=1e-6)

    stretched = _with_energy_residual(1.5 * tol)
    report = validate_stable_dissipative(stretched)
    expected = (
        f"factor v is not stable dissipative "
        f"(stable=True, max residual={report.residual:.3e})"
    )
    with pytest.raises(InputValidationError) as info:
        full_profile(SymbolPair(stretched, good))
    assert str(info.value) == expected


def test_a_twist_the_screen_cannot_accept_is_decided_by_the_exact_rule(monkeypatch):
    tol = core.VALIDATION_TOL
    exact = []

    def recorded(x, _opnorm=core.opnorm):
        exact.append(_opnorm(x))
        return exact[-1]

    monkeypatch.setattr(core, "opnorm", recorded)
    r = diagonal_symbol_factors([1, 2]).v
    unitary_twist(r, random_unitary(np.random.default_rng(3111), 2), "left")
    assert exact == []
    # |u*u - I|_F = 1.13 tol is above tol/2, |u*u - I|_2 = 0.8 tol is within tol.
    unitary_twist(r, np.sqrt(1 + 0.8 * tol) * np.eye(2), "right")
    assert len(exact) == 1 and exact[0] == pytest.approx(0.8 * tol, rel=1e-6)
    with pytest.raises(StructureError, match="^twist matrix is not unitary within tolerance$"):
        unitary_twist(r, np.diag([np.sqrt(1 + 1.5 * tol), 1.0]), "left")


def test_a_nan_residual_fails_the_validation_screen():
    # d*d overflows to inf - inf = NaN off the diagonal: only the feedthrough
    # residual is NaN, and the screen must not take the finite others for it.
    v = constant_realization(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not validate_stable_dissipative(v).verdict
        with pytest.raises(InputValidationError) as info:
            full_profile(SymbolPair(v, constant_realization(np.eye(2))))
    assert str(info.value) == "factor v is not stable dissipative (stable=True, max residual=nan)"
