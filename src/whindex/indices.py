"""Index pipeline: from realization pairs of a unimodular symbol to its partial indices.

Given stable dissipative realizations of the two inner factors of R = V W*,
the partial indices are read off the coupling omega of the two factors:

    a_v omega + omega a_w* + b_v b_w* = 0

The balance identities of both factors make Q = I - omega* omega the
positive contraction whose Lyapunov equation in a_w defines it in the paper,
and I - omega omega* the one of the adjoint symbol W V*, whose coupling is
omega*.  So one SVD of omega gives step 0 of both sides: the eigenvalues are
1 - s^2, padded with ones, and the cut 1 - s^2 >= 1 - tol is s^2 <= tol,
without the cancellation against 1.  With r singular values s^2 > tol, N_0
is spanned by the last n_w - r right singular vectors on the negative side
and by the last n_v - r left ones on the positive side.  Q >= 0 means s <= 1,
so s^2 > 1 + tol is refused.

The k-th kernel dimension d_k is the unit-eigenvalue multiplicity of
M^k Q M*^k with M the disk map of -a_w.  Its drops mu_k = d_{k-1} - d_k
are the conjugate partition of the indices, mu_k = #{j : kappa_j >= k}, so
they are positive and non-increasing, and the chain refuses any step that
breaks this.  The indices are recovered by counting kappa_j = #{k : mu_k >= j},
and then sum to sum(mu) = d_0, as the chain ends at 0.  The positive side runs
the same chain from its own N_0 with the map of the V factor.  Both d_0 come
from the one cut r of step 0, n_w - r on the negative side and n_v - r on the
positive one, so sum(all_indices) = n_v - n_w holds by construction.
``full_profile`` returns both sides in one ``IndexProfile``, with omega once.

The same pipeline serves discrete pairs, stable unitary realizations of the
Cayley images of the factors.  Their flavor selects the fixed-point form
omega = a_v omega a_w* + b_v b_w*, for which Q = I - omega* omega holds too,
and a_w itself as the iteration map M.  Nothing passes through ``d2c``, so
the discrete path checks the continuous one independently.

No power of M is formed.  Its defect has rank at most p, the number of
nonzero rows of c_d, itself at most the symbol size m:
I - M* M = c_d* c_d, with c_d = c_w for discrete pairs and
c_d = sqrt(2) c_w (I - a_w)^{-1} = c_w (I + M)/sqrt(2), the output matrix
of ``c2d(w)``, for continuous ones.  As M and Q are contractions and M
keeps the length of y exactly when c_d y = 0, the unit eigenspace N_k of
M^k Q M*^k obeys N_{k+1} = M (N_k intersected with ker c_d), so
d_k = dim(N_0 intersected with O_k) with O_k = {x : c_d M^j x = 0, j < k}
the k-step unobservable subspace of (c_d, M), on which M^k is isometric.
The chain keeps an orthonormal basis Y of the directions of N_0 dropped so
far, as Y* in a preallocated d_0 x d_0 buffer; step k drops the right
singular vectors of c_d M^k B_0, projected off Y, with s^2 > tol: the cut
sigma^2 >= 1 - tol on M B_k, as sigma^2 = 1 - s^2, without the cancellation
against 1.  A zero row of c_w, an output that carries no state, is exactly
zero in c_d and in every c_d M^j, so it drops nothing, and the chain steps
with the p nonzero rows alone.  A step drops at most p directions, so with
d_k left at least ceil(d_k / p) steps remain; the chain builds the p x n
rows c_d M^j of those steps and forms all their images c_d M^j B_0 with one
product.  It looks for zero rows only where 1 < m < d_0: a single row or a
first batch of one step costs the same with all m rows.  One isometry check
of K = [M; c_d], with all m rows, to within tol replaces the per-step refusal
of sigma^2 > 1 + tol and covers it, because |K y| >= |M y|.  It forms
K*K - I with one product and, like the validation of the factors, decides
with its Frobenius norm first; where that screen does not accept, the
eigenvalues of K*K - I decide, without the cancellation of eigvalsh(K*K) - 1.

A chain with one row (p = 1: a scalar symbol, or a factor with one output
that carries state, as both of ``diagonal_symbol_factors([-k, k])``) drops
one direction per step or is refused, so Y spans the earlier images and the
s of step k is the distance of image k from them: |r_kk| of the QR of the
d_0 images as columns (Golub & Van Loan, 4th ed., 5.2).  One zgeqrf decides
every step as an SVD per step would, except where s^2 is within roundoff of
tol.  Chains with p > 1 keep that SVD: one of their steps may keep
directions of its block that a QR would project off.  A factor whose
outputs are mixed by a unitary U keeps all m rows of U c_w, though they
have the rank of c_w: cutting them to that rank would be a numerical rank
decision of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DISCRETE,
    Realization,
    SymbolPair,
    _frobenius,
    _lapack,
    _minus_identity,
    _screen,
    _screened_report,
    _svd,
)
from .equations import (
    CLUSTER_TOL,
    EquationSolution,
    SchurForm,
    _disk_map,
    _schur,
    solve_stein,
    solve_sylvester,
)
from .errors import (
    ContractionViolationError, EvaluationError, InputValidationError, PipelineError, StructureError,
)


@dataclass(frozen=True)
class IndexProfile:
    """Complete partial-index profile of a unimodular symbol.

    ``negative`` and ``positive`` hold the index magnitudes kappa_j and
    omega_j in descending order; ``all_indices`` is the full m-element
    multiset in ascending order, negative entries reported as -kappa_j.
    ``mu`` and ``nu`` are the drops of the two chains of kernel dimensions.
    ``omega`` is the n_v x n_w coupling, ``residual`` its residual 2-norm, and
    ``omega.conj().T`` the positive side's coupling.  ``singular_values`` are
    those of omega, descending, from which step 0 of both sides cut N_0.
    """

    negative: tuple[int, ...]
    positive: tuple[int, ...]
    zeros: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    all_indices: tuple[int, ...]
    negative_kernel_dims: tuple[int, ...]
    positive_kernel_dims: tuple[int, ...]
    omega: np.ndarray
    residual: float
    singular_values: np.ndarray


def _validated(pair: SymbolPair, tol: float) -> tuple[SchurForm, SchurForm]:
    """Schur forms of a_v and a_w for the solve and the chains of one profile,
    after checking that the clustering tolerance is a finite 0 < tol < 1 and
    validating each factor with the eigenvalues on the diagonal of its form:
    stable dissipative for continuous factors, stable unitary for discrete ones.
    The full report is computed only where the screen cannot accept the factor."""
    if not 0.0 < tol < 1.0:  # also false for NaN
        raise StructureError(f"tolerance must be a finite number in (0, 1), got {tol!r}")
    forms = _schur(pair.v.a), _schur(pair.w.a)
    promise = "stable unitary" if pair.v.flavor == DISCRETE else "stable dissipative"
    for name, r, f in (("v", pair.v, forms[0]), ("w", pair.w, forms[1])):
        report = _screened_report(r, f.t.diagonal())
        if report is not None and not report.verdict:
            raise InputValidationError(
                f"factor {name} is not {promise} "
                f"(stable={report.stable}, max residual={report.residual:.3e})"
            )
    return forms


def _coupling(pair: SymbolPair, sv: SchurForm, sw: SchurForm) -> EquationSolution:
    """omega of the validated pair, by the Sylvester or Stein equation of its flavor."""
    solve = solve_stein if pair.v.flavor == DISCRETE else solve_sylvester
    return solve(sv, sw.H, pair.v.b @ pair.w.b.conj().T)


def _step_zero(omega: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values s of omega and orthonormal bases of N_0 of both sides.

    Returns (s, positive basis, negative basis): the left and right singular
    vectors past the r values with s^2 > tol, the unit eigenspaces of
    I - omega omega* and I - omega* omega.  A singular value with
    s^2 > 1 + tol makes an eigenvalue 1 - s^2 < -tol, so the contraction
    was not positive, and raises ``ContractionViolationError``.
    """
    u, s, vh = _svd(omega)
    if s.size and s[0] * s[0] > 1.0 + tol:
        lowest = float(1.0 - s[0] * s[0])
        raise ContractionViolationError(
            f"Q has a negative eigenvalue {lowest!r} beyond tolerance", eigenvalue=lowest
        )
    r = int(np.count_nonzero(s * s > tol))  # s is descending
    return s, u[:, r:], vh[r:].conj().T


def _kernel_dimension_chain(
    basis: np.ndarray, w: Realization, sw: SchurForm, tol: float
) -> list[int]:
    """Unit-eigenvalue multiplicities of M^k Q M*^k until they reach zero.

    ``basis`` is an orthonormal basis B_0 of N_0, the unit eigenspace of Q.
    Only if N_0 is not trivial are M and c_d of w built, checked and iterated
    as in the module docstring.  The disk map of a continuous w has no pole
    test: with a + a* + c*c = E, Re<(I - a)x, x> >= (1 - |E|/2)|x|^2, so I - a
    is far from singular for every factor that validation accepts, and only an
    exactly singular one fails the triangular solve.  The isometry check of
    [M; c_d] runs on every chain that builds them, and refuses a map stretched
    by a pole as well.  A chain whose drops are not positive and non-increasing
    means the input was not a genuine unimodular symbol pair at this tolerance;
    as it starts at most at n, it ends within n steps.
    """
    dims = [basis.shape[1]]
    if not dims[0]:
        return dims
    if w.flavor == DISCRETE:
        m, rows = w.a, w.c
    else:  # (I - a_w)^{-1} = (I + M)/2, as in ``cayley``, so c_d needs no solve
        m = _disk_map(sw)
        rows = (w.c + w.c @ m) / np.sqrt(2.0)
    stacked = np.concatenate([m, rows])
    defect = _minus_identity(stacked.conj().T @ stacked)
    if not _screen(_frobenius(defect), tol):
        residual = float(np.abs(np.linalg.eigvalsh(defect)).max())
        if residual > tol:
            raise ContractionViolationError(
                f"|M*M + c_d*c_d - I| = {residual!r} exceeds tolerance {tol}",
                eigenvalue=residual,
            )
    if 1 < len(rows) < dims[0]:  # one row, or a first batch of one step, gains nothing
        # A zero row of c_d stays zero in every c_d M^j and drops nothing.  With
        # none left, all m rows step, so step 0 drops nothing and is refused.
        nonzero = rows.any(axis=1)
        if 0 < np.count_nonzero(nonzero) < len(rows):
            rows = rows[nonzero]
    # Y* of the dropped directions fills the leading rows.
    yh = np.empty((dims[0], dims[0]), dtype=complex)
    block, size = [rows], len(rows)
    while True:
        # A step drops at most ``size`` (the nonzero rows of c_d) directions,
        # so at least ceil(d_k / size) steps remain.
        for _ in range(-(-dims[-1] // size) - 1):
            block.append(block[-1] @ m)
        images = (np.concatenate(block) if len(block) > 1 else rows) @ basis
        if size == 1:  # one batch of d_0 images, whose QR decides every step
            qr, _, _, info = _lapack().zgeqrf(images.T, overwrite_a=True)
            if info != 0:
                raise EvaluationError(f"QR factorization failed (zgeqrf info {info})")
            distances = np.abs(qr.diagonal())
        for step in range(len(block)):
            if size == 1:
                drop = int(distances[step] ** 2 > tol)
            else:
                x, r = images[step * size:(step + 1) * size], dims[0] - dims[-1]
                for _ in range(2 if r else 0):  # once loses orthogonality to roundoff
                    x -= (x @ yh[:r].conj().T) @ yh[:r]
                _, s, vh = _svd(x, full_matrices=False)
                drop = int(np.count_nonzero(s * s > tol))  # s is descending
                yh[r:r + drop] = vh[:drop]
            dims.append(dims[-1] - drop)
            if dims[-1] >= dims[-2]:
                raise PipelineError(f"kernel dimensions are not strictly decreasing: {dims}")
            if len(dims) > 2 and dims[-2] - dims[-1] > dims[-3] - dims[-2]:
                raise PipelineError(f"kernel dimension drops are not non-increasing: {dims}")
        if not dims[-1]:
            return dims
        rows = block[-1] @ m
        block = [rows]


def _side(
    basis: np.ndarray, w: Realization, sw: SchurForm, tol: float
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """(kernel dimensions, drops, index magnitudes) of one side from its N_0 from
    ``_step_zero``; ``w`` is the factor on the state space of ``basis``, whose map M iterates."""
    dims = _kernel_dimension_chain(basis, w, sw, tol)
    mu = [dims[k - 1] - dims[k] for k in range(1, len(dims))]
    return tuple(dims), mu, [sum(m >= j for m in mu) for j in range(1, mu[0] + 1 if mu else 1)]


def negative_profile(pair: SymbolPair, tol: float = CLUSTER_TOL) -> IndexProfile:
    """``full_profile(pair, tol)``, kept as a name that the benchmark traces; not
    an alias, as a tracer patching each name of ``full_profile`` would wrap it twice."""
    return full_profile(pair, tol)


def discrete_negative_profile(
    v: Realization, w: Realization, tol: float = CLUSTER_TOL
) -> IndexProfile:
    """``full_profile`` of the discrete pair (v, w), which refuses continuous
    factors with ``InputValidationError``; kept as ``negative_profile`` is."""
    for name, r in (("v", v), ("w", w)):
        if r.flavor != DISCRETE:
            raise InputValidationError(f"factor {name} must be a discrete realization")
    return full_profile(SymbolPair(v, w), tol)


def full_profile(pair: SymbolPair, tol: float = CLUSTER_TOL) -> IndexProfile:
    """Run the pipeline on both sides and assemble the complete index profile.

    ``pair`` may be continuous or discrete.  Each factor is validated and
    brought to Schur form once.  One coupling solve and one SVD of omega give
    step 0 of both sides: Q = I - omega* omega for the negative side and
    I - omega omega* for the positive one, whose coupling is omega*.  The
    indices sum to n_v - n_w by construction (module docstring), the degree of
    det V minus that of det W for minimal factors; the one cross-side check
    that can fail is that both sides' nonzero indices fit in the m outputs.
    """
    sv, sw = _validated(pair, tol)
    omega = _coupling(pair, sv, sw)
    s, positive_basis, negative_basis = _step_zero(omega.x, tol)
    negative_dims, mu, kappa = _side(negative_basis, pair.w, sw, tol)
    positive_dims, nu, omegas = _side(positive_basis, pair.v, sv, tol)
    m = pair.output_dim
    p, q_count = len(kappa), len(omegas)
    if p + q_count > m:
        raise PipelineError(
            f"profile is inconsistent: {p} negative and {q_count} positive indices "
            f"exceed the output dimension {m}"
        )
    zeros = m - p - q_count
    all_indices = sorted([-k for k in kappa] + [0] * zeros + list(omegas))
    return IndexProfile(
        negative=tuple(kappa),
        positive=tuple(omegas),
        zeros=zeros,
        mu=tuple(mu),
        nu=tuple(nu),
        all_indices=tuple(all_indices),
        negative_kernel_dims=negative_dims,
        positive_kernel_dims=positive_dims,
        omega=omega.x,
        residual=omega.residual,
        singular_values=s,
    )
