"""Complex state-space realizations of rational inner functions.

A continuous realization ``(a, b, c, d)`` represents the transfer function
``d + c (sI - a)^{-1} b``; a discrete one represents
``d + z c (I - z a)^{-1} b``.  Zero-dimensional state spaces are legal and
give the constant transfer function ``d``.  All values are immutable after
construction and every operation here is a pure function.

The module also loads SciPy's LAPACK wrappers on first use (``_lapack``),
which the solvers of ``equations``, every SVD (``_svd``), the Schur forms
(``_schur_factors``) and the general eigenvalue solves (``_eigvals``) call.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EvaluationError, StructureError

CONTINUOUS = "continuous"
DISCRETE = "discrete"

#: Tolerance of every validation verdict, the pipeline's and the public validators'.
VALIDATION_TOL = 1e-8

#: Realizations whose rightmost eigenvalue is closer to the axis than this
#: are flagged as near marginal (equation solving degrades there).
NEAR_MARGINAL_GAP = 1e-10


@functools.cache
def _lapack():
    """SciPy's compiled LAPACK wrappers, the module ``scipy.linalg.lapack`` re-exports.

    The extension is loaded from its file, found without running the
    ``scipy`` package's own import, because importing the ``scipy.linalg``
    package costs about 0.3 s of processor time (x86-64, SciPy 1.17) and the
    extension alone a few milliseconds.  A SciPy laid out differently falls
    back to the package import.
    """
    scipy, spec = importlib.util.find_spec("scipy"), None
    if scipy is not None:
        linalg = [os.path.join(location, "linalg") for location in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _lwork(routine: str, *args) -> int:
    """Optimal workspace of the LAPACK ``routine`` for ``args``, the one numpy queries too.
    The wrappers' smaller default sends LAPACK down other paths: the SVD factors
    of a 48 x 48 complex matrix already differ from numpy's in their last bits."""
    work, _ = getattr(_lapack(), routine + "_lwork")(*args)
    return int(work.real)


def _svd(x: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    """``np.linalg.svd(x, full_matrices, compute_uv)`` of a 2-D ``x``, by one call of
    LAPACK zgesdd, or dgesdd for real x, without numpy's wrapper around it.

    An empty ``x``, which LAPACK refuses, has no singular values and identity
    bases.  A decomposition that fails raises ``EvaluationError``.
    """
    rows, cols = x.shape
    prefix = "z" if x.dtype.kind == "c" else "d"
    if x.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s
        dtype = complex if prefix == "z" else float
        k = 1 if full_matrices else 0
        return np.eye(rows, k * rows, dtype=dtype), s, np.eye(k * cols, cols, dtype=dtype)
    lapack, lwork = _lapack(), _lwork(prefix + "gesdd", rows, cols, compute_uv, full_matrices)
    gesdd = lapack.zgesdd if prefix == "z" else lapack.dgesdd
    u, s, vh, info = gesdd(x, compute_uv, full_matrices, lwork)
    if info != 0:
        raise EvaluationError(f"singular value decomposition failed ({prefix}gesdd info {info})")
    return (u, s, vh) if compute_uv else s


def _eigvals(g: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(g)`` of a finite square complex g, bit for bit, by one call of
    LAPACK zgeev with the workspace numpy queries, without numpy's wrapper around it.

    A 0 x 0 ``g``, which LAPACK is not asked about, has no eigenvalues.  A
    solve that does not converge raises ``EvaluationError``.
    """
    if len(g) == 0:
        return np.zeros(0, dtype=complex)
    lwork = _lwork("zgeev", len(g), 0, 0)
    w, _, _, info = _lapack().zgeev(g, compute_vl=0, compute_vr=0, lwork=lwork)
    if info:
        raise EvaluationError(f"eigenvalues did not converge (zgeev info {info})")
    return w


def _schur_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur factors (t, u) of a finite square complex a = u t u*, by one call of
    LAPACK zgees without reordering.  A 0 x 0 ``a`` is its own factors.  A
    factorization that does not converge raises ``EvaluationError``."""
    if len(a) == 0:
        return a, a
    t, _, _, u, _, info = _lapack().zgees(lambda _: 0, a)
    if info != 0:
        raise EvaluationError(f"Schur factorization failed to converge (zgees info {info})")
    return t, u


def opnorm(x: np.ndarray) -> float:
    """Spectral norm, with the empty matrix having norm zero.

    The largest singular value, as ``np.linalg.norm(x, 2)`` computes it, from
    LAPACK's gesdd in the lazily loaded wrappers of ``_lapack`` (``_svd``).
    """
    if x.size == 0:
        return 0.0
    return float(_svd(x, compute_uv=False)[0])


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm sqrt(<x, x>), without the axis handling of np.linalg.norm."""
    return math.sqrt(np.vdot(x, x).real)


def _screen(frobenius: float, limit: float) -> bool:
    """Whether a Frobenius norm alone shows that the 2-norm it bounds is within ``limit``.

    A check whose value is not reported runs its exact rule only where this is
    False.  Accepting only at half the limit keeps a roundoff-level tie of the
    two computed norms out of the screen, so every decision is the exact rule's.
    """
    return frobenius <= 0.5 * limit


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (x + x*)/2."""
    return (x + x.conj().T) / 2.0


def _finite(x: np.ndarray, name: str) -> np.ndarray:
    """``x``, refused with ``StructureError`` if it has a NaN or infinite entry."""
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise StructureError(f"{name} has a NaN or infinite entry")
    return x


def _minus_identity(x: np.ndarray) -> np.ndarray:
    """x - I, bit for bit, in place in a square C-contiguous x such as a fresh product."""
    x.ravel()[:: len(x) + 1] -= 1.0  # ravel is a view of a contiguous x
    return x


def _freeze(x, name: str) -> np.ndarray:
    out = _finite(np.array(x, dtype=complex, ndmin=2), name)
    out.setflags(write=False)
    return out


def _empty(rows: int, cols: int) -> np.ndarray:
    try:
        return np.zeros((rows, cols), dtype=complex)
    except ValueError as exc:  # numpy refuses a shape past its address space before allocating
        raise MemoryError(f"cannot build a {rows} x {cols} complex array: {exc}") from exc


@dataclass(frozen=True)
class Realization:
    """State-space quadruple with a continuous or discrete flavor.

    ``a`` is n x n, ``b`` is n x m, ``c`` is m x n and ``d`` is m x m for a
    single coefficient-space dimension m.  Arrays are copied and locked on
    construction, so instances are safe to share between threads.  An entry
    that is NaN or infinite raises ``StructureError``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    flavor: str = CONTINUOUS

    def __post_init__(self):
        if self.flavor not in (CONTINUOUS, DISCRETE):
            raise StructureError(f"unknown flavor {self.flavor!r}")
        a, b, c, d = (_freeze(getattr(self, name), name) for name in "abcd")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructureError(f"d must be square, got shape {d.shape}")
        m = d.shape[0]
        # Empty inputs may arrive with ambiguous shapes such as (1, 0) or
        # (0, 0); normalize them against n and m before checking.
        n = a.shape[0] if a.size else 0
        if a.size == 0:
            a = _empty(0, 0)
        if b.size == 0:
            b = _empty(n, m) if n == 0 or m == 0 else b
        if c.size == 0:
            c = _empty(m, n) if n == 0 or m == 0 else c
        if a.shape != (n, n):
            raise StructureError(f"a must be square, got shape {a.shape}")
        if b.shape != (n, m):
            raise StructureError(f"b must be {n}x{m}, got shape {b.shape}")
        if c.shape != (m, n):
            raise StructureError(f"c must be {m}x{n}, got shape {c.shape}")
        for name, x in zip("abcd", (a, b, c, d)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def output_dim(self) -> int:
        return self.d.shape[0]


def constant_realization(d, flavor: str = CONTINUOUS) -> Realization:
    """Zero-state realization of the constant matrix function ``d``."""
    d = np.atleast_2d(np.asarray(d, dtype=complex))
    m = d.shape[0]
    return Realization(_empty(0, 0), _empty(0, m), _empty(m, 0), d, flavor)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a stability/energy-balance validation.

    For continuous realizations the residuals are ``|a + a* + c*c|``,
    ``|d*d - I|`` and ``|b + c*d|``.  For discrete realizations they are the
    blocks of ``S*S - I`` for the stacked system matrix ``S = [[a, b], [c, d]]``
    (state, feedthrough and coupling block respectively), and
    ``system_unitarity_residual`` holds ``|S*S - I|`` itself.
    """

    stable: bool
    dissipative_residual: float
    feedthrough_unitarity_residual: float
    coupling_residual: float
    verdict: bool
    near_marginal: bool = False
    system_unitarity_residual: Optional[float] = None

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        residuals = [
            self.dissipative_residual,
            self.feedthrough_unitarity_residual,
            self.coupling_residual,
        ]
        if self.system_unitarity_residual is not None:
            residuals.append(self.system_unitarity_residual)
        return float(np.max(residuals))


@dataclass(frozen=True)
class SymbolPair:
    """Two realizations (V-factor, W-factor) of one flavor for a unimodular symbol V W*.

    Continuous factors realize the symbol on the imaginary axis; discrete
    factors realize its Cayley image on the unit circle, as ``c2d`` of the
    continuous ones does.  The index pipeline accepts either flavor.
    """

    v: Realization
    w: Realization

    def __post_init__(self):
        if self.v.flavor != self.w.flavor:
            raise StructureError(f"factor flavors differ: {self.v.flavor} vs {self.w.flavor}")
        if self.v.output_dim != self.w.output_dim:
            raise StructureError(
                f"factor output dimensions differ: {self.v.output_dim} vs {self.w.output_dim}"
            )

    @property
    def output_dim(self) -> int:
        return self.v.output_dim

    def swapped(self) -> "SymbolPair":
        return SymbolPair(self.w, self.v)


def _stability(r: Realization, eigenvalues: np.ndarray) -> tuple[bool, bool]:
    """(stable, near_marginal) of ``r`` given the eigenvalues of ``a``, which must lie in
    the open left half plane if ``r`` is continuous and in the open unit disk if discrete."""
    if eigenvalues.size == 0:
        return True, False
    margins, limit = (np.abs(eigenvalues), 1.0) if r.flavor == DISCRETE else (eigenvalues.real, 0.0)
    top = float(margins.max())
    return top < limit, limit - NEAR_MARGINAL_GAP < top < limit


def _balance_defects(r: Realization) -> tuple[np.ndarray, ...]:
    """The matrices whose 2-norms are the validation residuals of ``r``:
    a + a* + c*c, d*d - I and b + c*d if continuous, S*S - I if discrete."""
    if r.flavor == DISCRETE:
        s = np.concatenate([np.concatenate([r.a, r.b], axis=1), np.concatenate([r.c, r.d], axis=1)])
        return (_minus_identity(s.conj().T @ s),)
    ch = r.c.conj().T
    return r.a + r.a.conj().T + ch @ r.c, _minus_identity(r.d.conj().T @ r.d), r.b + ch @ r.d


def validate_stable_dissipative(r: Realization) -> ValidationReport:
    """Check that a continuous realization is stable with the inner-function energy balance.

    Stability means every eigenvalue of ``a`` lies strictly in the open left
    half plane.  The three residuals measure ``a + a* + c*c = 0``, unitarity
    of ``d`` and the coupling ``b = -c*d``; the verdict holds them to
    ``VALIDATION_TOL``, as ``full_profile`` does, with the eigenvalues on the
    diagonal of the same Schur form (``_schur_factors``), so both give one verdict.
    """
    if r.flavor != CONTINUOUS:
        raise StructureError("validate_stable_dissipative expects a continuous realization")
    return _validation_report(r, _schur_factors(r.a)[0].diagonal())


def validate_stable_unitary(r: Realization) -> ValidationReport:
    """Check that a discrete realization is stable with a unitary system matrix.

    Stability means all eigenvalues of ``a`` lie strictly inside the unit
    disk.  The governing residual is ``|S*S - I|`` for the stacked system
    matrix ``S = [[a, b], [c, d]]``; its diagonal and off-diagonal blocks are
    reported individually as well.  The verdict holds it to ``VALIDATION_TOL``,
    as ``full_profile`` does, with the eigenvalues on the diagonal of the same
    Schur form (``_schur_factors``), so both give one verdict.
    """
    if r.flavor != DISCRETE:
        raise StructureError("validate_stable_unitary expects a discrete realization")
    return _validation_report(r, _schur_factors(r.a)[0].diagonal())


def _validation_report(r: Realization, eigenvalues: np.ndarray) -> ValidationReport:
    """``validate_stable_dissipative`` or ``validate_stable_unitary`` of ``r``, by its
    flavor, given the eigenvalues of ``a``.

    The eigenvalues may come from a factorization the caller needs anyway,
    such as the diagonal of a Schur form.
    """
    stable, near_marginal = _stability(r, eigenvalues)
    defects = _balance_defects(r)
    if r.flavor == DISCRETE:
        (defect,), n = defects, r.state_dim
        full = opnorm(defect)
        # The state, feedthrough and coupling blocks of S*S - I, in the report's order.
        blocks = (opnorm(defect[:n, :n]), opnorm(defect[n:, n:]), opnorm(defect[:n, n:]))
        return ValidationReport(stable, *blocks, stable and full <= VALIDATION_TOL,
                                near_marginal, system_unitarity_residual=full)
    energy, feed, coup = defects
    # a + a* + c*c is Hermitian, so its 2-norm is its largest eigenvalue magnitude.
    diss = float(np.abs(np.linalg.eigvalsh(energy)).max()) if energy.size else 0.0
    feed, coup = opnorm(feed), opnorm(coup)
    verdict = stable and all(x <= VALIDATION_TOL for x in (diss, feed, coup))
    return ValidationReport(stable, diss, feed, coup, verdict, near_marginal)


def _screened_report(r: Realization, eigenvalues: np.ndarray) -> Optional[ValidationReport]:
    """None if ``r`` is stable and ``_screen`` alone shows every residual within
    ``VALIDATION_TOL``; otherwise ``_validation_report``, whose verdict then decides.

    The screened norm is the Frobenius norm of all defects together, which
    bounds each of them and is NaN or infinite if any entry is.
    """
    frobenius = math.sqrt(sum([np.vdot(x, x).real for x in _balance_defects(r)]))
    if _stability(r, eigenvalues)[0] and _screen(frobenius, VALIDATION_TOL):
        return None
    return _validation_report(r, eigenvalues)


def eval_transfer(r: Realization, s: complex) -> np.ndarray:
    """Evaluate the transfer function of ``r`` at the point ``s``.

    Continuous: ``d + c (sI - a)^{-1} b``.  Discrete:
    ``d + s c (I - s a)^{-1} b``.  A zero-dimensional state returns ``d``.
    The resolvent system is solved by one call of LAPACK zgesv, the routine
    ``np.linalg.solve`` wraps; an exactly singular one raises ``EvaluationError``.
    """
    if r.state_dim == 0:
        return r.d.copy()
    s = complex(s)
    eye = np.eye(r.state_dim)
    if r.flavor == CONTINUOUS:
        resolvent_arg = s * eye - r.a
    else:
        resolvent_arg = eye - s * r.a
    # zgesv factors nothing for no right-hand side; a zero column keeps the test for a
    # pole, and its product c x of shape (0, 1) broadcasts to d's (0, 0).
    rhs = r.b if r.output_dim else np.zeros((r.state_dim, 1))
    _, _, x, info = _lapack().zgesv(resolvent_arg, rhs)
    if info:
        raise EvaluationError(f"transfer function evaluated at a pole (s = {s})")
    if r.flavor == CONTINUOUS:
        return r.d + r.c @ x
    return r.d + s * (r.c @ x)


def _block_diag(blocks) -> np.ndarray:
    out = _empty(sum(x.shape[0] for x in blocks), sum(x.shape[1] for x in blocks))
    i = j = 0
    for x in blocks:
        out[i : i + x.shape[0], j : j + x.shape[1]] = x
        i, j = i + x.shape[0], j + x.shape[1]
    return out


def direct_sum(*parts: Realization) -> Realization:
    """Block-diagonal sum of any number of realizations of one flavor; the transfer
    function is the block diagonal of theirs.  No parts give the 0-state
    continuous constant."""
    flavor = parts[0].flavor if parts else CONTINUOUS
    if any(r.flavor != flavor for r in parts):
        raise StructureError("direct_sum requires matching flavors")
    return Realization(*(_block_diag([getattr(r, name) for r in parts]) for name in "abcd"), flavor)


def cascade(outer: Realization, inner: Realization) -> Realization:
    """Series interconnection realizing the product (outer transfer) * (inner transfer).

    Stability and the energy-balance identities survive the interconnection,
    so cascading valid factors yields a valid product realization.
    """
    if outer.flavor != inner.flavor:
        raise StructureError("cascade requires matching flavors")
    if outer.flavor != CONTINUOUS:
        raise StructureError("cascade is defined for continuous realizations")
    if outer.output_dim != inner.output_dim:
        raise StructureError(
            f"cascade output dimensions differ: {outer.output_dim} vs {inner.output_dim}"
        )
    n_o, n_i = outer.state_dim, inner.state_dim
    a = np.zeros((n_o + n_i, n_o + n_i), dtype=complex)
    a[:n_o, :n_o] = outer.a
    a[:n_o, n_o:] = outer.b @ inner.c
    a[n_o:, n_o:] = inner.a
    b = np.vstack([outer.b @ inner.d, inner.b])
    c = np.hstack([outer.c, outer.d @ inner.c])
    d = outer.d @ inner.d
    return Realization(a, b, c, d, outer.flavor)


def _check_unitary(u, m: int) -> np.ndarray:
    """``u`` as a complex array if it is a finite m x m matrix unitary within ``VALIDATION_TOL``."""
    u = _finite(np.atleast_2d(np.asarray(u, dtype=complex)), "twist matrix")
    if u.shape != (m, m):
        raise StructureError(f"twist matrix must be {m}x{m}, got {u.shape}")
    defect = _minus_identity(u.conj().T @ u)
    if not _screen(_frobenius(defect), VALIDATION_TOL) and opnorm(defect) > VALIDATION_TOL:
        raise StructureError("twist matrix is not unitary within tolerance")
    return u


def unitary_twist(r: Realization, u: np.ndarray, side: str) -> Realization:
    """Multiply the transfer function by a constant unitary: U*Theta (left) or Theta*U (right).
    ``u`` must be unitary within ``VALIDATION_TOL``, the 2-norm of u*u - I."""
    u = _check_unitary(u, r.output_dim)
    if side == "left":
        return Realization(r.a, r.b, u @ r.c, u @ r.d, r.flavor)
    if side == "right":
        return Realization(r.a, r.b @ u, r.c, r.d @ u, r.flavor)
    raise StructureError(f"side must be 'left' or 'right', got {side!r}")
