"""Independent ground-truth computations for cross-validating the pipelines.

Nothing here shares machinery with the index pipelines: winding numbers come
from direct phase integration along the boundary, and polynomial stability
comes from companion-matrix roots.  The quadratic-form stability test is the
only consumer of the realization builders, and it is itself checked against
the root oracle.
"""

from __future__ import annotations

import numpy as np

from .core import hermitize
from .errors import EvaluationError, ResolutionError, StructureError
from .realizations import (
    BlaschkeSpec,
    Polynomial,
    blaschke_eval,
    p_sharp,
    poly_of_matrix,
    zeta_power_realization,
)

#: Starting sample count for phase integration and the refinement cap.
WINDING_INITIAL_SAMPLES = 4096
WINDING_MAX_SAMPLES = 2**20

#: Roots with real part above this are treated as unstable.
ROOT_STABILITY_MARGIN = -1e-9

#: Relative threshold on the smallest eigenvalue for strict positivity.
PSD_REL_TOL = 1e-9


def _phase_sweep(phi: BlaschkeSpec, m: BlaschkeSpec, samples: int) -> tuple[float, float]:
    """Total unwrapped phase change of phi * conj(m) along the axis, plus the largest step.

    The axis is parameterized as omega = tan(theta/2) with theta running from
    pi down to -pi, i.e. omega from +inf to -inf, the orientation for which a
    degree-n inner function winds +n times.
    """
    theta = np.linspace(np.pi, -np.pi, samples + 1)
    omega = np.tan(theta / 2.0)
    values = blaschke_eval(phi, 1j * omega) * np.conj(blaschke_eval(m, 1j * omega))
    phases = np.unwrap(np.angle(values))
    steps = np.diff(phases)
    max_step = float(np.max(np.abs(steps))) if steps.size else 0.0
    return float(phases[-1] - phases[0]), max_step


def winding_number(phi: BlaschkeSpec, m: BlaschkeSpec) -> int:
    """Winding number of the scalar symbol phi * conj(m) around the origin.

    Integrates the unwrapped phase along the full axis, doubling the sample
    count until every phase step is below pi/2 and the rounded result is
    stable across two refinements.  For Blaschke data this equals
    deg(phi) - deg(m).
    """
    samples = WINDING_INITIAL_SAMPLES
    previous = None
    while samples <= WINDING_MAX_SAMPLES:
        total, max_step = _phase_sweep(phi, m, samples)
        current = int(round(total / (2.0 * np.pi)))
        if max_step < np.pi / 2.0 and previous == current:
            return current
        previous = current if max_step < np.pi / 2.0 else None
        samples *= 2
    raise ResolutionError(
        f"phase integration did not settle within {WINDING_MAX_SAMPLES} samples; "
        "a pole is too close to the axis"
    )


def roots_stable(p: Polynomial) -> bool:
    """True when all companion-matrix roots lie strictly in the left half plane."""
    if p.degree < 1:
        raise StructureError("stability of a constant is not defined; need degree >= 1")
    coeffs = np.asarray(p.coeffs[::-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as np.roots divides by coeffs[0]
        if not np.isfinite(coeffs / coeffs[0]).all():
            raise EvaluationError("the root test overflows: the companion matrix has a non-finite entry")
    roots = np.roots(coeffs)
    return bool(np.all(roots.real < ROOT_STABILITY_MARGIN))


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
    minus_a = -zeta_power_realization(n).a
    pm = poly_of_matrix(p, minus_a)
    psm = poly_of_matrix(p_sharp(p), minus_a)
    g = hermitize(pm.conj().T @ pm - psm.conj().T @ psm)
    if not np.isfinite(g).all():
        raise EvaluationError("the Schur-Cohen quadratic form overflows to a non-finite value")
    # Products below the normal range lose their digits; normal ones that cancel are an answer.
    if max(np.abs(pm).max(), np.abs(psm).max()) ** 2 < np.finfo(float).tiny:
        raise EvaluationError("the Schur-Cohen quadratic form underflows below the normal range")
    evals = np.linalg.eigvalsh(g)
    lambda_min = float(evals[0])
    threshold = PSD_REL_TOL * float(np.max(np.abs(evals))) if evals.size else 0.0
    return lambda_min > threshold, lambda_min
