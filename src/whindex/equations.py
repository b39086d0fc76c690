"""Schur-based solvers for the two matrix equations driving the index pipelines.

The continuous equation ``a x + x b + c = 0`` and the discrete equation
``x = a x b + c`` are both solved by the Bartels-Stewart method (Bartels &
Stewart, CACM 1972): reduce ``a`` and ``b`` to complex Schur form, solve the
triangular equation with LAPACK ``ztrsyl``, and transform back.  The discrete
equation reaches the same ``ztrsyl`` call through a Cayley transform of the
two triangular factors.  Everything is cubic in the state dimension, and a
Schur form computed once serves every equation whose coefficient is that
matrix or its adjoint.

Every solve is gated on conditioning, measured in the 2-norm of the
vectorized operator as a dense Kronecker solver would measure it.  The
operator's own norm is bounded from above, and a solution whose condition
number, so bounded or estimated, exceeds ``CONDITION_LIMIT`` is refused.

When both Sylvester coefficients are Hurwitz (every diagonal entry of both
Schur factors has negative real part), the norm of the inverse is bounded
from above by Gramians (after Hewer & Kenney, SIAM J. Control Optim. 1988):

    |L^{-1}|_2 <= sqrt(|P_a|_2 |P_b|_2)  for L(x) = a x + x b,
    where  a P_a + P_a a* + I = 0  and  b P_b + P_b b* + I = 0.

Proof: x = L^{-1}(c) = -int_0^inf e^{at} c e^{bt} dt.  For any y,
Cauchy-Schwarz in the trace inner product and then in t gives
|<y, x>| <= (int |e^{a*t} y|_F^2)^{1/2} (int |c e^{bt}|_F^2)^{1/2}
= tr(y* P_a y)^{1/2} tr(c P_b c*)^{1/2} <= sqrt(|P_a| |P_b|) |y|_F |c|_F.

In Schur coordinates each Gramian is one ``ztrsyl`` call on the triangular
factor, and a Sylvester solve makes one per coefficient.  Like every
tolerance check in whindex whose value is not reported, the gate decides
with a cheaper upper bound first.  P is positive semidefinite, so
|P|_2 <= tr P.  The gate accepts if the operator norm bound times
sqrt(tr P_a tr P_b) is at most half the limit, and otherwise applies the
2-norm rule above to the same two Gramians, with one Hermitian eigenvalue
solve each.  The decision is always the 2-norm rule's.  In every other
case -- the Stein equation, or a Sylvester coefficient that is not
Hurwitz -- the norm of the inverse is estimated from below with the
Hager/Higham estimator, driven by ``ztrsyl`` and its conjugate-transposed
form as LAPACK ``ztrsna`` does when it estimates ``sep``, followed by one
power step.

SciPy's LAPACK wrappers (``core._lapack``) are loaded by the first
factorization or SVD rather than with the package, and without the
``scipy.linalg`` package around them, whose import costs more than all of
whindex.  The SVDs of the pipeline, the 2-norms of ``core.opnorm`` among
them, call ``zgesdd`` from the same wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import _finite, _lapack, _screen, hermitize, opnorm
from .errors import ContractionViolationError, EvaluationError, StructureError, UnsolvableEquationError

#: Relative residual the solvers are expected to reach.
SOLVE_TOL = 1e-10

#: Condition number of an equation beyond which a solution is refused;
#: spectra this close to resonance make the result meaningless.
CONDITION_LIMIT = 1e12

#: Default clustering tolerance for counting unit eigenvalues.
CLUSTER_TOL = 1e-7

#: Iteration cap of the Hager/Higham norm estimator (ITMAX of LAPACK zlacn2).
_ESTIMATOR_ITERATIONS = 5

#: Cayley parameters tried for the discrete equation, the first one preferred on ties.
_CAYLEY_SHIFTS = np.exp(0.25j * np.pi * np.arange(8))


@dataclass(frozen=True)
class SchurForm:
    """A square matrix ``a`` with its complex Schur form ``a = u t u*``.

    t is upper triangular and u unitary.  With ``adjoint`` set the object
    stands for ``a*`` instead, so a matrix and its adjoint share one
    factorization.  The solvers and ``zeta_of_minus`` accept a SchurForm
    wherever they accept the matrix it stands for, and then reuse the
    factorization.  Everything else is computed from it where it is read.
    """

    a: np.ndarray
    t: np.ndarray
    u: np.ndarray
    adjoint: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @property
    def H(self) -> "SchurForm":
        """The same factorization standing for the adjoint matrix."""
        return replace(self, adjoint=not self.adjoint)

    @property
    def matrix(self) -> np.ndarray:
        """The matrix this form stands for, a or a*."""
        return self.a.conj().T if self.adjoint else self.a

    @property
    def norm_bound(self) -> float:
        """Upper bound sqrt(|t|_1 |t|_inf) on the 2-norm of t and of t*."""
        mag = np.abs(self.t)
        return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))

    @property
    def hurwitz(self) -> bool:
        """Whether every eigenvalue of the non-empty represented matrix has negative real part."""
        return bool(np.diag(self.t).real.max() < 0.0)

    def op(self) -> np.ndarray:
        """The represented triangular factor, t or t*."""
        return self.t.conj().T if self.adjoint else self.t

    def shifted(self, s: complex) -> np.ndarray:
        """Upper triangular r with op(r) = op(t) + s I."""
        return self.t + (np.conj(s) if self.adjoint else s) * np.eye(len(self.t))


def _square(a, name: str) -> np.ndarray:
    """``a`` as a complex square matrix, refused if it has a NaN or infinite entry."""
    a = _finite(np.atleast_2d(np.asarray(a, dtype=complex)), name)
    if a.size == 0:
        return a.reshape(0, 0)
    if a.shape[0] != a.shape[1]:
        raise StructureError(f"expected a square matrix, got {a.shape}")
    return a


def schur_form(a: np.ndarray) -> SchurForm:
    """Complex Schur form of ``a`` (LAPACK zgees, no eigenvalue reordering)."""
    a = _square(a, "a")
    if a.shape[0] == 0:
        return SchurForm(a, a, a)
    t, _, _, u, _, info = _lapack().zgees(lambda _: 0, a)
    if info != 0:
        raise EvaluationError(f"Schur factorization failed to converge (zgees info {info})")
    return SchurForm(a, t, u)


def _dense(m) -> np.ndarray:
    return m.matrix if isinstance(m, SchurForm) else m


def _factored(m: np.ndarray | SchurForm) -> SchurForm:
    return m if isinstance(m, SchurForm) else schur_form(m)


@dataclass(frozen=True)
class EquationSolution:
    """Solution matrix together with the operator norm of the defining residual."""

    x: np.ndarray
    residual: float


def _equation_inputs(a, b, c) -> tuple:
    """a and b checked square and finite unless they come as SchurForms, and c checked
    finite and against them."""
    a, b = (m if isinstance(m, SchurForm) else _square(m, name) for m, name in ((a, "a"), (b, "b")))
    c = _finite(np.atleast_2d(np.asarray(c, dtype=complex)), "c")
    p, q = len(a), len(b)
    if c.size == 0 and (p == 0 or q == 0):
        c = np.zeros((p, q), dtype=complex)
    if c.shape != (p, q):
        raise StructureError(f"c must be {p}x{q}, got {c.shape}")
    return a, b, c


def _trans(f: SchurForm, adjoint: bool) -> str:
    """LAPACK ``trans`` flag applying op(t), or its adjoint when ``adjoint`` is set."""
    return "C" if f.adjoint != adjoint else "N"


def _trsyl(fa: SchurForm, ta: np.ndarray, fb: SchurForm, tb: np.ndarray, rhs, adjoint):
    """Solve op(ta) y + y op(tb) = rhs, or its adjoint equation, with ztrsyl."""
    y, scale, _ = _lapack().ztrsyl(
        ta, tb, rhs, trana=_trans(fa, adjoint), tranb=_trans(fb, adjoint)
    )
    return y if scale == 1.0 else y / scale


def _gramian(f: SchurForm) -> tuple[np.ndarray | None, float]:
    """P with op(t) P + P op(t)* + I = 0 and its trace, which bounds |P|_2 as P >= 0.

    P is None when it is not finite.  The trace is infinite then, and also where
    ztrsyl perturbed a near-singular pivot, as P is then no semidefinite Gramian.
    """
    p, scale, info = _lapack().ztrsyl(
        f.t, f.t, -np.eye(len(f)), trana=_trans(f, False), tranb=_trans(f, True)
    )
    if not np.isfinite(p).all():
        return None, np.inf
    p = p if scale == 1.0 else p / scale
    return p, np.inf if info else float(np.trace(p).real)


def _sylvester_operator(fa: SchurForm, fb: SchurForm):
    """2-norm bound of y -> op(ta) y + y op(tb), a solver for it and its adjoint,
    and a Gramian bound on the 2-norm of its inverse (None unless both are Hurwitz):
    sqrt(tr P_a tr P_b) where ``_screen`` accepts with it, sqrt(|P_a|_2 |P_b|_2) otherwise."""

    def solve(rhs, adjoint=False):
        return _trsyl(fa, fa.t, fb, fb.t, rhs, adjoint)

    norm, inverse_bound = fa.norm_bound + fb.norm_bound, None
    if fa.hurwitz and fb.hurwitz:
        (pa, trace_a), (pb, trace_b) = _gramian(fa), _gramian(fb)
        inverse_bound = float(np.sqrt(trace_a * trace_b))
        if not _screen(norm * inverse_bound, CONDITION_LIMIT):
            norm_a, norm_b = (
                np.inf if p is None else float(np.abs(np.linalg.eigvalsh(p)).max()) for p in (pa, pb)
            )
            inverse_bound = float(np.sqrt(norm_a * norm_b))
    return norm, solve, inverse_bound


def _cayley_shift(fa: SchurForm, fb: SchurForm) -> complex:
    """Unit-modulus s keeping -s off spec(op(ta)) and -conj(s) off spec(op(tb))."""
    ea, eb = np.diag(fa.op()), np.diag(fb.op())
    gaps = np.minimum(
        np.abs(ea[None, :] + _CAYLEY_SHIFTS[:, None]).min(axis=1),
        np.abs(eb[None, :] + _CAYLEY_SHIFTS.conj()[:, None]).min(axis=1),
    )
    return complex(_CAYLEY_SHIFTS[int(np.argmax(gaps))])


def _shift_inverse(f: SchurForm, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """Cayley factor c with op(c) = (op(t) + s)^{-1}(op(t) - s), and (op(t) + s)^{-1} itself."""
    inverse, info = _lapack().ztrtri(f.shifted(s))
    if info != 0:
        raise UnsolvableEquationError("shifted Schur factor is exactly singular", 0.0)
    cayley = inverse @ f.shifted(-s)
    return cayley, (inverse.conj().T if f.adjoint else inverse)


def _stein_operator(fa: SchurForm, fb: SchurForm):
    """2-norm bound of y -> y - op(ta) y op(tb), a solver for it and its adjoint, and None.

    With A = (op(ta) + s)^{-1}(op(ta) - s) and B = (op(tb) + s̄)^{-1}(op(tb) - s̄),
    both triangular, y - op(ta) y op(tb) = -2 (I - A)^{-1} (A y + y B) (I - B)^{-1},
    so the Stein equation becomes A y + y B = -2 (op(ta) + s)^{-1} c (op(tb) + s̄)^{-1}.
    s is the eighth root of unity whose negative lies farthest from both
    spectra, so the two shifted factors are safely invertible.
    """
    s = _cayley_shift(fa, fb)
    ca, ia = _shift_inverse(fa, s)
    cb, ib = _shift_inverse(fb, np.conj(s))

    def solve(rhs, adjoint=False):
        if adjoint:
            return -2.0 * (ia.conj().T @ _trsyl(fa, ca, fb, cb, rhs, True) @ ib.conj().T)
        return _trsyl(fa, ca, fb, cb, -2.0 * (ia @ rhs @ ib), False)

    return 1.0 + fa.norm_bound * fb.norm_bound, solve, None


def _inverse_norm_estimate(solve, shape: tuple[int, int]) -> float:
    """Lower estimate of the 2-norm of the linear map ``solve``.

    ``solve(r)`` applies the map and ``solve(r, True)`` its adjoint.  The
    Hager/Higham 1-norm estimator (Hager 1984, Higham 1988; LAPACK zlacn2)
    picks the input the map stretches most; one power step on its last
    adjoint image then turns that into a 2-norm estimate, which is nearly
    exact when the map is close to singular.  Every candidate is a ratio
    attained by an actual vector, so the estimate never exceeds the norm.
    """
    size = shape[0] * shape[1]
    y = solve(np.full(shape, 1.0 / size, dtype=complex))
    est = float(np.abs(y).sum())
    if size == 1:
        return est
    z = solve(np.exp(1j * np.angle(y)), True)
    j = int(np.argmax(np.abs(z)))
    for _ in range(1, _ESTIMATOR_ITERATIONS):
        unit = np.zeros(shape, dtype=complex)
        unit.flat[j] = 1.0
        y = solve(unit)
        previous, est = est, max(est, float(np.abs(y).sum()))
        if est <= previous:
            break
        z = solve(np.exp(1j * np.angle(y)), True)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if abs(z.flat[j_last]) == abs(z.flat[j]):
            break
    alternating = (1.0 + np.arange(size) / (size - 1)) * (-1.0) ** np.arange(size)
    y = solve(alternating.reshape(shape, order="F").astype(complex))
    est = max(est, 2.0 * float(np.abs(y).sum()) / (3.0 * size))
    return max(est / np.sqrt(size), float(np.linalg.norm(solve(z)) / np.linalg.norm(z)))


def _solve_gated(fa: SchurForm, fb: SchurForm, c: np.ndarray, operator) -> np.ndarray:
    """Solve L(x) = c for the triangular operator L in the Schur bases of fa and fb.

    Refuses the solution when an upper bound on the operator's 2-norm times
    the 2-norm of its inverse exceeds ``CONDITION_LIMIT``.  The latter is the
    operator's own upper bound where it has one, and estimated otherwise.
    Only the zero operator has a zero norm bound; it is refused without
    estimating.
    """
    norm, solve, inverse_norm = operator(fa, fb)
    if inverse_norm is None:
        inverse_norm = _inverse_norm_estimate(solve, c.shape) if norm > 0.0 else np.inf
    if not np.isfinite(inverse_norm) or norm * inverse_norm > CONDITION_LIMIT:
        smallest = 1.0 / inverse_norm
        raise UnsolvableEquationError(
            f"equation is numerically singular "
            f"(estimated smallest singular value {smallest:.3e})",
            smallest_singular_value=smallest,
        )
    y = solve(fa.u.conj().T @ c @ fb.u)
    return fa.u @ y @ fb.u.conj().T


def solve_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> EquationSolution:
    """Solve ``a x + x b + c = 0``.

    Unique solvability requires the spectra of ``a`` and ``-b`` to be
    disjoint, which holds in particular when both ``a`` and ``b`` are
    Hurwitz stable.  Either dimension may be zero, in which case the unique
    empty solution is returned.  ``a`` and ``b`` may be given as
    ``SchurForm`` objects, whose factorizations are then reused.
    """
    a, b, c = _equation_inputs(a, b, c)
    if c.size == 0:
        return EquationSolution(np.zeros(c.shape, dtype=complex), 0.0)
    x = _solve_gated(_factored(a), _factored(b), -c, _sylvester_operator)
    residual = opnorm(_dense(a) @ x + x @ _dense(b) + c)
    return EquationSolution(x, residual)


def solve_stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> EquationSolution:
    """Solve ``x = a x b + c``.

    Unique solvability requires that no product of an eigenvalue of ``a``
    with an eigenvalue of ``b`` equals one; both factors being Schur stable
    guarantees this.  ``a`` and ``b`` may be given as ``SchurForm`` objects.
    """
    a, b, c = _equation_inputs(a, b, c)
    if c.size == 0:
        return EquationSolution(np.zeros(c.shape, dtype=complex), 0.0)
    x = _solve_gated(_factored(a), _factored(b), c, _stein_operator)
    residual = opnorm(x - _dense(a) @ x @ _dense(b) - c)
    return EquationSolution(x, residual)


def zeta_of_minus(a: np.ndarray) -> np.ndarray:
    """Evaluate the half-plane-to-disk map (1-s)/(1+s) at ``-a``.

    Returns ``(I + a)(I - a)^{-1}``, computed as ``u (I - t)^{-1}(I + t) u*``
    from the Schur form of ``a``; ``a`` may be given as a ``SchurForm``.
    For Hurwitz-stable ``a`` every eigenvalue lands strictly inside the unit
    disk.
    """
    f = _factored(a)
    if len(f) == 0:
        return np.zeros((0, 0), dtype=complex)
    eye = np.eye(len(f))
    # sqrt(kappa_1 kappa_inf) bounds the 2-norm condition number of I - a from above.
    rcond = np.sqrt(np.prod([_lapack().ztrcon(eye - f.t, norm=norm)[0] for norm in "1I"]))
    if rcond * CONDITION_LIMIT < 1.0:
        raise EvaluationError("an eigenvalue of a is too close to 1; the map has a pole there")
    # (I - t) and (I + t) commute, so this equals u (I + t)(I - t)^{-1} u*.
    y, _ = _lapack().ztrtrs(eye - f.t, eye + f.op(), trans=2 if f.adjoint else 0)
    return f.u @ y @ f.u.conj().T


def _unit_cut(evals: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the ascending, non-empty eigenvalues of a Hermitian contraction that count as 1.

    An eigenvalue counts when it is ``>= 1 - tol``; one above ``1 + tol``
    means the matrix was not the contraction the pipeline promised, and
    raises ``ContractionViolationError``.
    """
    top = float(evals[-1])
    if top > 1.0 + tol:
        raise ContractionViolationError(
            f"eigenvalue {top!r} exceeds 1 beyond tolerance {tol}", eigenvalue=top
        )
    return evals >= 1.0 - tol


def _unit_eigenspace(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a Hermitian contraction and an orthonormal basis
    of its eigenvectors counted by ``_unit_cut``, after the checks of
    ``eigenvalue_one_multiplicity``."""
    h = _square(h, "h")
    if h.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    asym = opnorm(h - h.conj().T)
    if asym > 1e-10 * (1.0 + opnorm(h)):
        raise StructureError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
    evals, evecs = np.linalg.eigh(hermitize(h))
    return evals, evecs[:, _unit_cut(evals, tol)]


def eigenvalue_one_multiplicity(h: np.ndarray, tol: float = CLUSTER_TOL) -> tuple[int, np.ndarray]:
    """Count eigenvalues of a Hermitian contraction clustered at 1.

    Returns the count of eigenvalues ``>= 1 - tol`` together with the full
    ascending eigenvalue list, and raises if any eigenvalue exceeds
    ``1 + tol`` (the input was not the contraction the pipeline promised).
    ``h`` is symmetrized first; inputs further than 1e-10 from Hermitian are
    rejected.
    """
    evals, basis = _unit_eigenspace(h, tol)
    return basis.shape[1], evals


def unit_eigenvectors(h: np.ndarray, tol: float = CLUSTER_TOL) -> np.ndarray:
    """Orthonormal eigenvectors of a Hermitian contraction with eigenvalue in [1-tol, 1+tol].

    Columns of the returned matrix span the clustered unit eigenspace; the
    matrix has zero columns when the cluster is empty.  The checks and the
    cut are those of ``eigenvalue_one_multiplicity``.
    """
    return _unit_eigenspace(h, tol)[1]
