"""Independent ground-truth computations for cross-validating the pipelines.

Nothing here shares machinery with the index pipelines: winding numbers come
from direct phase integration along the boundary, and polynomial stability
comes from companion-matrix roots.  The phase is integrated as the sum of its
wrapped steps between neighbouring samples, which equals the change of the
unwrapped phase.  The quadratic-form stability test is the only consumer of
the realization builders, and it is itself checked against the root oracle
(the battery's ``oracle-stability-equivalence`` family); no command runs the
two tests on their own.  ``ResolutionError`` comes only from the refinement
cap of the phase integration.
"""

from __future__ import annotations

import numpy as np

from .core import hermitize
from .errors import EvaluationError, ResolutionError, StructureError
from .realizations import (
    BlaschkeSpec,
    Polynomial,
    _roots,
    _zeta_power_blocks,
    blaschke_eval,
    p_sharp,
    poly_of_matrix,
)

#: Starting sample count for phase integration and the refinement cap.
WINDING_INITIAL_SAMPLES = 4096
WINDING_MAX_SAMPLES = 2**20

#: Roots with real part above this are treated as unstable.
ROOT_STABILITY_MARGIN = -1e-9

#: Relative threshold on the smallest eigenvalue for strict positivity.
PSD_REL_TOL = 1e-9


def _symbol_on_axis(phi: BlaschkeSpec, m: BlaschkeSpec, theta: np.ndarray) -> np.ndarray:
    """phi * conj(m) at the axis points omega = tan(theta/2)."""
    s = 1j * np.tan(theta / 2.0)
    return blaschke_eval(phi, s) * np.conj(blaschke_eval(m, s))


def winding_number(phi: BlaschkeSpec, m: BlaschkeSpec) -> int:
    """Winding number of the scalar symbol phi * conj(m) around the origin.

    Integrates the phase along the full axis, doubling the sample count
    until every phase step is below pi/2 and the rounded result is stable
    across two refinements.  For Blaschke data this equals deg(phi) - deg(m).
    The steps are the angles of v[k+1] conj(v[k]), wrapped into (-pi, pi]:
    they sum to the change of the unwrapped phase and are its steps, up to
    rounding, so the total and the largest step are read from one array.

    The axis is omega = tan(theta/2) on ``np.linspace(pi, -pi, samples + 1)``,
    omega from +inf to -inf, along which a degree-n inner function winds +n
    times.  The grids nest: the even points of a doubled grid are the last
    grid bit for bit, so each refinement evaluates only its new odd points.
    """
    samples = WINDING_INITIAL_SAMPLES
    values = _symbol_on_axis(phi, m, np.linspace(np.pi, -np.pi, samples + 1))
    previous = None
    while True:
        steps = np.angle(values[1:] * values[:-1].conj())
        max_step = float(np.abs(steps).max())
        current = int(round(float(steps.sum()) / (2.0 * np.pi)))
        if max_step < np.pi / 2.0 and previous == current:
            return current
        previous = current if max_step < np.pi / 2.0 else None
        samples *= 2
        if samples > WINDING_MAX_SAMPLES:
            raise ResolutionError(
                f"phase integration did not settle within {WINDING_MAX_SAMPLES} samples; "
                "a pole is too close to the axis"
            )
        refined = np.empty(samples + 1, dtype=complex)
        refined[::2] = values
        refined[1::2] = _symbol_on_axis(phi, m, np.linspace(np.pi, -np.pi, samples + 1)[1::2])
        values = refined


def roots_stable(p: Polynomial) -> bool:
    """True when all companion-matrix roots lie left of ``ROOT_STABILITY_MARGIN``."""
    if p.degree < 1:
        raise StructureError("stability of a constant is not defined; need degree >= 1")
    coeffs = np.asarray(p.coeffs[::-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as _roots divides by coeffs[0]
        if not np.isfinite(coeffs / coeffs[0]).all():
            raise EvaluationError("the root test overflows: the companion matrix has a non-finite entry")
    return bool(_roots(p).real.max() < ROOT_STABILITY_MARGIN)


def schur_cohen_stable(p: Polynomial) -> tuple[bool, float]:
    """Continuous-time Schur-Cohen stability test via a quadratic-form sign check.

    Builds the degree-matched dissipative state matrix A with rank-one A + A*,
    forms G = p(-A)* p(-A) - psharp(-A)* psharp(-A) and declares ``p`` stable
    exactly when G is strictly positive definite.  Returns the verdict and
    the smallest eigenvalue of G.
    """
    n = p.degree
    if n < 1:
        raise StructureError("stability of a constant is not defined; need degree >= 1")
    minus_a = -_zeta_power_blocks(n)[0]
    sharp = p_sharp(p)
    # Overflow to a non-finite form is refused below, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        pm = poly_of_matrix(p, minus_a)
        psm = poly_of_matrix(sharp, minus_a)
        g = hermitize(pm.conj().T @ pm - psm.conj().T @ psm)
    if not np.isfinite(g).all():
        raise EvaluationError("the Schur-Cohen quadratic form overflows to a non-finite value")
    # Products below the normal range lose their digits; normal ones that cancel are an answer.
    if max(np.abs(pm).max(), np.abs(psm).max()) ** 2 < np.finfo(float).tiny:
        raise EvaluationError("the Schur-Cohen quadratic form underflows below the normal range")
    evals = np.linalg.eigvalsh(g)
    top = float(np.abs(evals).max())
    # G within the rounding of its terms has no sign to read, unless p# is a unimodular
    # multiple of p: then G = 0 exactly and the roots mirror in the axis, so p is unstable.
    eps = np.finfo(float).eps
    if top <= 10 * n * eps * (np.vdot(pm, pm) + np.vdot(psm, psm)).real:
        u = sharp.coeffs[-1] / p.coeffs[-1]
        if not np.allclose(sharp.coeffs, np.multiply(u, p.coeffs), rtol=4 * eps, atol=0.0):
            raise EvaluationError("the Schur-Cohen quadratic form vanishes within the rounding of its terms")
    lambda_min = float(evals[0])
    return lambda_min > PSD_REL_TOL * top, lambda_min
