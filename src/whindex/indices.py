"""Index pipeline: from realization pairs of a unimodular symbol to its partial indices.

Given stable dissipative realizations of the two inner factors of R = V W*,
the negative partial indices are read off a chain of kernel dimensions of a
positive contraction Q obtained from two coupled matrix equations:

    a_v omega + omega a_w* + b_v b_w* = 0
    c_circ = d_v b_w* + c_v omega
    a_w q + q a_w* + c_circ* c_circ = 0

The k-th kernel dimension d_k is the unit-eigenvalue multiplicity of
M^k Q M*^k with M the disk map of -a_w.  Its drops mu_k = d_{k-1} - d_k
are the conjugate partition of the indices, mu_k = #{j : kappa_j >= k}, so
they are positive and non-increasing, and the chain refuses any step that
breaks this.  The indices are recovered by counting kappa_j = #{k : mu_k >= j},
and then sum to d_0.  The positive indices come from the same pipeline
applied to the swapped pair (W, V), and sum to the d_0 of that side.  The
two sums must balance the state dimensions: sum(all_indices) = n_v - n_w.

The same pipeline serves discrete pairs, stable unitary realizations of the
Cayley images of the factors.  Their flavor selects the fixed-point forms
omega = a_v omega a_w* + b_v b_w* and q = a_w q a_w* + c_circ* c_circ with
c_circ = d_v b_w* + c_v omega a_w*, and a_w itself as the iteration map M.
Nothing passes through ``d2c``, so the discrete path checks the continuous
one independently.

No power of M is formed.  Its defect has rank at most m, the symbol size:
I - M* M = c_d* c_d, with c_d = c_w for discrete pairs and
c_d = sqrt(2) c_w (I - a_w)^{-1} = c_w (I + M)/sqrt(2), the output matrix
of ``c2d(w)``, for continuous ones.  As M and Q are contractions and M
keeps the length of y exactly when c_d y = 0, the unit eigenspace N_k of
M^k Q M*^k obeys N_0 = ker(I - Q), N_{k+1} = M (N_k intersected with ker c_d),
so d_k = dim(N_0 intersected with O_k) with O_k = {x : c_d M^j x = 0, j < k}
the k-step unobservable subspace of (c_d, M), on which M^k is isometric.
The chain keeps an orthonormal basis Y of the directions of N_0 dropped so
far, with Y*, in preallocated d_0 x d_0 buffers; step k drops the right
singular vectors of c_d M^k B_0, projected off Y, with s^2 > tol: the cut
sigma^2 >= 1 - tol on M B_k, as sigma^2 = 1 - s^2, without the cancellation
against 1.  A step drops at most m directions, so with d_k left at least
ceil(d_k / m) steps remain; the chain builds the m x n rows c_d M^j of
those steps and forms all their images c_d M^j B_0 with one product.  One
isometry check of [M; c_d] to within tol replaces the per-step refusal of
sigma^2 > 1 + tol and covers it, because |[M; c_d] y| >= |M y|.  Like the
validation of the factors, it decides with the Frobenius screen first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DISCRETE,
    Realization,
    SymbolPair,
    hermitize,
    opnorm,
    _frobenius,
    _screen,
    _screened_report,
)
from .equations import (
    CLUSTER_TOL,
    SchurForm,
    _unit_cut,
    schur_form,
    solve_stein,
    solve_sylvester,
    zeta_of_minus,
)
from .errors import ContractionViolationError, InputValidationError, PipelineError


@dataclass(frozen=True)
class PipelineTrace:
    """Intermediate matrices and diagnostics of one pipeline run."""

    omega: np.ndarray
    c_circ: np.ndarray
    q: np.ndarray
    kernel_dims: tuple[int, ...]
    residuals: dict
    q_eigenvalues: np.ndarray


@dataclass(frozen=True)
class IndexProfile:
    """Complete partial-index profile of a unimodular symbol.

    ``negative`` and ``positive`` hold the index magnitudes kappa_j and
    omega_j in descending order; ``all_indices`` is the full m-element
    multiset in ascending order, negative entries reported as -kappa_j.
    """

    negative: tuple[int, ...]
    positive: tuple[int, ...]
    zeros: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    all_indices: tuple[int, ...]
    negative_trace: PipelineTrace
    positive_trace: PipelineTrace
    diagnostics: dict = field(default_factory=dict)


def _validated(pair: SymbolPair) -> tuple[SchurForm, SchurForm]:
    """Schur forms of a_v and a_w, shared by every solve of one profile, after
    validating each factor with the eigenvalues on the diagonal of its form:
    stable dissipative for continuous factors, stable unitary for discrete ones.
    The full report is computed only where the screen cannot accept the factor."""
    forms = schur_form(pair.v.a), schur_form(pair.w.a)
    promise = "stable unitary" if pair.v.flavor == DISCRETE else "stable dissipative"
    for name, r, f in (("v", pair.v, forms[0]), ("w", pair.w, forms[1])):
        report = _screened_report(r, np.diag(f.t))
        if report is not None and not report.verdict:
            raise InputValidationError(
                f"factor {name} is not {promise} "
                f"(stable={report.stable}, max residual={report.max_residual:.3e})"
            )
    return forms


def _counts_from_mu(mu: list[int]) -> list[int]:
    if not mu:
        return []
    return [sum(1 for m in mu if m >= j) for j in range(1, mu[0] + 1)]


def _kernel_dimension_chain(
    q: np.ndarray, w: Realization, sw: SchurForm, tol: float
) -> tuple[list[int], np.ndarray]:
    """Unit-eigenvalue multiplicities of M^k Q M*^k until they reach zero.

    Step 0 is one eigendecomposition of the Hermitian Q.  Only if N_0 is not
    trivial are M and c_d of w built, checked and iterated as in the module
    docstring.  Returns the chain and the eigenvalues of Q.  A chain whose
    drops are not positive and non-increasing means the input was not a
    genuine unimodular symbol pair at this tolerance; as it starts at most
    at n, it ends within n steps.
    """
    eigenvalues, basis = np.linalg.eigh(q)
    if eigenvalues.size:
        basis = basis[:, _unit_cut(eigenvalues, tol)]
        if float(eigenvalues[0]) < -tol:
            raise ContractionViolationError(
                f"Q has a negative eigenvalue {float(eigenvalues[0])!r} beyond tolerance",
                eigenvalue=float(eigenvalues[0]),
            )
    dims = [basis.shape[1]]
    if not dims[0]:
        return dims, eigenvalues
    if w.flavor == DISCRETE:
        m, rows = w.a, w.c
    else:  # (I - a_w)^{-1} = (I + M)/2, as in ``cayley``, so c_d needs no solve
        m = zeta_of_minus(sw)
        rows = (w.c + w.c @ m) / np.sqrt(2.0)
    gram = m.conj().T @ m + rows.conj().T @ rows
    if not _screen(_frobenius(gram - np.eye(len(gram))), tol):
        residual = float(np.max(np.abs(np.linalg.eigvalsh(gram) - 1)))
        if residual > tol:
            raise ContractionViolationError(
                f"|M*M + c_d*c_d - I| = {residual!r} exceeds tolerance {tol}", eigenvalue=residual
            )
    # Y* and its conjugate Y^T of the dropped directions fill the leading rows.
    yh = np.empty((dims[0], dims[0]), dtype=complex)
    yt = np.empty(yh.shape, dtype=complex)
    block, size = [rows], len(rows)
    while True:
        # A step drops at most ``size`` (the symbol size m) directions, so at
        # least ceil(d_k / m) steps remain.
        for _ in range(-(-dims[-1] // size) - 1):
            block.append(block[-1] @ m)
        images = (np.concatenate(block) if len(block) > 1 else rows) @ basis
        for step in range(len(block)):
            x, r = images[step * size:(step + 1) * size], dims[0] - dims[-1]
            for _ in range(2 if r else 0):  # once loses orthogonality to roundoff
                x -= (x @ yt[:r].T) @ yh[:r]
            _, s, vh = np.linalg.svd(x, full_matrices=False)
            drop = int(np.count_nonzero(s * s > tol))  # s is descending
            yh[r:r + drop] = vh[:drop]
            np.conjugate(vh[:drop], out=yt[r:r + drop])
            dims.append(dims[-1] - drop)
            if dims[-1] >= dims[-2]:
                raise PipelineError(f"kernel dimensions are not strictly decreasing: {dims}")
            if len(dims) > 2 and dims[-2] - dims[-1] > dims[-3] - dims[-2]:
                raise PipelineError(f"kernel dimension drops are not non-increasing: {dims}")
        if not dims[-1]:
            return dims, eigenvalues
        rows = block[-1] @ m
        block = [rows]


def _negative(
    pair: SymbolPair, tol: float, sv: SchurForm, sw: SchurForm
) -> tuple[PipelineTrace, list[int], list[int]]:
    """Negative-index pipeline on validated factors with Schur forms ``sv``, ``sw``.

    The flavor of the factors selects the equations (Sylvester or Stein),
    the extra factor a_w* of the discrete c_circ, and the iteration map of
    the chain (the disk map of -a_w, or a_w itself).
    """
    v, w = pair.v, pair.w
    discrete = v.flavor == DISCRETE
    solve = solve_stein if discrete else solve_sylvester
    omega_sol = solve(sv, sw.H, v.b @ w.b.conj().T)
    coupling = v.c @ omega_sol.x
    if discrete:
        coupling = coupling @ w.a.conj().T
    c_circ = v.d @ w.b.conj().T + coupling
    q_sol = solve(sw, sw.H, c_circ.conj().T @ c_circ)
    q = hermitize(q_sol.x)
    dims, eigenvalues = _kernel_dimension_chain(q, w, sw, tol)
    mu = [dims[k - 1] - dims[k] for k in range(1, len(dims))]
    trace = PipelineTrace(
        omega=omega_sol.x,
        c_circ=c_circ,
        q=q,
        kernel_dims=tuple(dims),
        residuals={"omega": omega_sol.residual, "q": q_sol.residual},
        q_eigenvalues=eigenvalues,
    )
    return trace, mu, _counts_from_mu(mu)


def negative_profile(
    pair: SymbolPair, tol: float = CLUSTER_TOL
) -> tuple[PipelineTrace, list[int], list[int]]:
    """Run the negative-index pipeline; returns (trace, mu, kappa)."""
    return _negative(pair, tol, *_validated(pair))


def positive_profile(
    pair: SymbolPair, tol: float = CLUSTER_TOL
) -> tuple[PipelineTrace, list[int], list[int]]:
    """Run the positive-index pipeline; returns (trace, nu, omega_counts).

    The positive indices of V W* are the negative indices of the adjoint
    symbol W V*, so this is the same pipeline applied to the swapped pair:
    omega_dual solves a_w x + x a_v* + b_w b_v* = 0, the dual c_circ is
    d_w b_v* + c_w omega_dual, and the dual Q lives on the V state space
    with the iteration map of the V factor.  Discrete pairs swap the same way.
    """
    return negative_profile(pair.swapped(), tol)


def discrete_negative_profile(
    v: Realization, w: Realization, tol: float = CLUSTER_TOL
) -> tuple[PipelineTrace, list[int], list[int]]:
    """``negative_profile`` of the pair (v, w) of stable unitary discrete realizations.

    Continuous factors are refused with ``InputValidationError``; the
    equations of the discrete flavor are in the module docstring.
    """
    for name, r in (("v", v), ("w", w)):
        if r.flavor != DISCRETE:
            raise InputValidationError(f"factor {name} must be a discrete realization")
    return negative_profile(SymbolPair(v, w), tol)


def _cluster_margin(eigenvalues: np.ndarray, tol: float) -> Optional[float]:
    """Distance from the eigenvalue cloud to the clustering threshold 1 - tol."""
    if eigenvalues.size == 0:
        return None
    return float(np.min(np.abs(eigenvalues - (1.0 - tol))))


def full_profile(pair: SymbolPair, tol: float = CLUSTER_TOL) -> IndexProfile:
    """Run the pipeline on both sides and assemble the complete index profile.

    ``pair`` may be continuous or discrete.  Each factor is validated and
    brought to Schur form once, and both sides share the result.
    Cross-checks the two runs against each other: the dual trace must carry
    the conjugate transpose of omega, and the indices must sum to n_v - n_w,
    the degree of det V minus that of det W, as both realizations are minimal.
    As each chain enforces its drop shape, this one balance rule is also
    mult_pos - mult_neg = n_v - n_w for the unit multiplicities of the two Q.
    """
    sv, sw = _validated(pair)
    negative_trace, mu, kappa = _negative(pair, tol, sv, sw)
    positive_trace, nu, omegas = _negative(pair.swapped(), tol, sw, sv)
    m = pair.output_dim
    p, q_count = len(kappa), len(omegas)
    if p + q_count > m:
        raise PipelineError(
            f"profile is inconsistent: {p} negative and {q_count} positive indices "
            f"exceed the output dimension {m}"
        )
    zeros = m - p - q_count
    all_indices = sorted([-k for k in kappa] + [0] * zeros + list(omegas))

    warnings = []
    omega_mismatch = opnorm(positive_trace.omega - negative_trace.omega.conj().T)
    if omega_mismatch > 1e-10:  # the scale is at least 1, so smaller ones pass both
        scale = 1.0 + opnorm(negative_trace.omega)
        if omega_mismatch > 1e-8 * scale:
            raise PipelineError(
                f"dual coupling solution is not the conjugate transpose of the primal one "
                f"(mismatch {omega_mismatch:.3e})"
            )
        if omega_mismatch > 1e-10 * scale:
            warnings.append(f"dual coupling mismatch {omega_mismatch:.3e} above target 1e-10")

    dim_w, dim_v = pair.w.state_dim, pair.v.state_dim
    if sum(all_indices) != dim_v - dim_w:
        raise PipelineError(f"indices {all_indices} do not sum to n_v - n_w = {dim_v - dim_w}")

    mult_neg, mult_pos = negative_trace.kernel_dims[0], positive_trace.kernel_dims[0]
    diagnostics = {
        "cross_checks": {
            "negative": {"multiplicity": mult_neg, "expected": dim_w - dim_v + mult_pos},
            "positive": {"multiplicity": mult_pos, "expected": dim_v - dim_w + mult_neg},
        },
        "cross_check_margins": {
            "negative": _cluster_margin(negative_trace.q_eigenvalues, tol),
            "positive": _cluster_margin(positive_trace.q_eigenvalues, tol),
        },
        "omega_duality_mismatch": omega_mismatch,
        "warnings": warnings,
    }
    return IndexProfile(
        negative=tuple(kappa),
        positive=tuple(omegas),
        zeros=zeros,
        mu=tuple(mu),
        nu=tuple(nu),
        all_indices=tuple(all_indices),
        negative_trace=negative_trace,
        positive_trace=positive_trace,
        diagnostics=diagnostics,
    )
