"""Schur-based solvers for the two matrix equations driving the index pipelines.

The continuous equation ``a x + x b + c = 0`` and the discrete equation
``x = a x b + c`` are both solved by the Bartels-Stewart method (Bartels &
Stewart, CACM 1972): reduce ``a`` and ``b`` to complex Schur forms T_a and
T_b, solve one triangular Sylvester equation with LAPACK ``ztrsyl``, and
transform back.  The continuous equation's triangular pair is (T_a, T_b).
The discrete one's is the pair of Cayley factors A = (T_a + s)^{-1}(T_a - s)
and B = (T_b + s̄)^{-1}(T_b - s̄) for a unit-modulus s, as
y - T_a y T_b = -(T_a + s)(A y + y B)(T_b + s̄)/2.  Everything is cubic in
the state dimension, and a Schur form computed once serves every equation
whose coefficient is that matrix or its adjoint.

Every solve is gated on conditioning, measured in the 2-norm of the
vectorized operator as a dense Kronecker solver would measure it.  The
operator's norm and the norm of its inverse are bounded from above, and a
solution whose condition number so bounded exceeds ``CONDITION_LIMIT`` is
refused.  No estimate enters, so every acceptance is certified.  Two bounds
on the inverse fail in opposite cases.  When both factors of the triangular
pair are Hurwitz, Gramians bound it (after Hewer & Kenney, SIAM J. Control
Optim. 1988):

    |L^{-1}|_2 <= sqrt(|P_a|_2 |P_b|_2)  for L(x) = a x + x b,
    where  a P_a + P_a a* + I = 0  and  b P_b + P_b b* + I = 0.

Proof: x = L^{-1}(c) = -int_0^inf e^{at} c e^{bt} dt.  For any y,
Cauchy-Schwarz in the trace inner product and then in t gives
|<y, x>| <= (int |e^{a*t} y|_F^2)^{1/2} (int |c e^{bt}|_F^2)^{1/2}
= tr(y* P_a y)^{1/2} tr(c P_b c*)^{1/2} <= sqrt(|P_a| |P_b|) |y|_F |c|_F.
For S(x) = x - a x b with Schur-stable a and b, x = S^{-1}(c) = sum_k a^k c b^k,
and the same argument, summing over k, gives |S^{-1}|_2 <= sqrt(|Q_a| |Q_b|)
with Q_a - a Q_a a* = I and Q_b - b Q_b b* = I.  T is Schur stable exactly
when its Cayley factor A is Hurwitz, and then Q = 2 (T + s)^{-1} P (T + s)^{-*}
with A P + P A* + I = 0: as |s| = 1, multiplying A P + P A* = -I by T + s on
the left and (T + s)* on the right gives 2 (T P T* - P) = -(T + s)(T + s)*,
and (T + s)^{-1} commutes with T.  So either equation pays one ``ztrsyl``
call per coefficient, on the triangular factor its solve uses.

The Gramian bound grows like 1/|Re lambda| when each coefficient has an
eigenvalue near the axis (the circle, for Stein), even at unrelated
frequencies.  The comparison bound holds for every pair (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed. 2002, sec. 8.2) and grows instead
with the off-diagonal mass of the Schur factors.  Ordered by column, and
within a column from the last row up, the unknowns make y -> T_a y + y T_b
and y -> y - T_a y T_b triangular matrices L = D - E, D diagonal, whose
comparison matrix M = |D| - |E| has diagonal |t_a,ii + t_b,jj| or
|1 - t_a,ii t_b,jj|.  As D^{-1} E is nilpotent, L^{-1} = sum_k (D^{-1} E)^k D^{-1}
is bounded entrywise by sum_k (|D|^{-1} |E|)^k |D|^{-1} = M^{-1}, so
|L^{-1}|_2 <= sqrt(|M^{-1}|_1 |M^{-1}|_inf) = sqrt(|M^{-T} e|_inf |M^{-1} e|_inf)
with e the vector of ones: one real triangular solve per column of the
unknown each, with nonnegative terms only.  A singular M gives infinity.

Like every tolerance check in whindex whose value is not reported, the gate
decides with a cheaper upper bound first.  A Gramian is positive
semidefinite, so its 2-norm is at most its trace.  The gate accepts if the
operator norm bound times sqrt(tr G_a tr G_b), G = P or Q, is at most half
the limit.  Otherwise one rule decides both equations: the smaller of the
comparison bound and, where ztrsyl solved both Gramians without perturbing a
pivot, their 2-norm bound.

The disk map ``zeta_of_minus`` refuses a pole of (I + a)(I - a)^{-1} by the
exact 2-norm condition number of I - a, from one zgesdd of its singular
values alone, so no estimate enters anywhere in this module.  The kernel
chain, whose factor validation already proves I - a far from singular,
calls ``_disk_map``, the same evaluation without that test.

SciPy's LAPACK wrappers (``core._lapack``) are loaded by the first
factorization or SVD rather than with the package, and without the
``scipy.linalg`` package around them, whose import costs more than all of
whindex.  The SVDs of the pipeline, the 2-norms of ``core.opnorm`` among
them, call ``zgesdd`` from the same wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _finite, _lapack, _schur_factors, _screen, _svd, hermitize, opnorm
from .errors import ContractionViolationError, EvaluationError, StructureError, UnsolvableEquationError

#: Relative residual the solvers are expected to reach.
SOLVE_TOL = 1e-10

#: Condition number of an equation beyond which a solution is refused;
#: spectra this close to resonance make the result meaningless.
CONDITION_LIMIT = 1e12

#: Default clustering tolerance for counting unit eigenvalues.
CLUSTER_TOL = 1e-7

#: Cayley parameters tried for the discrete equation, the first one preferred on ties.
_CAYLEY_SHIFTS = np.exp(0.25j * np.pi * np.arange(8))


@dataclass(frozen=True)
class SchurForm:
    """A square matrix ``a`` with its complex Schur form ``a = u t u*``.

    t is upper triangular and u unitary.  With ``adjoint`` set the object
    stands for ``a*`` instead, so a matrix and its adjoint share one
    factorization.  The solvers accept a SchurForm wherever they accept the
    matrix it stands for, and then reuse the factorization.  Everything else
    is computed from it where it is read.
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
        return SchurForm(self.a, self.t, self.u, not self.adjoint)

    @property
    def matrix(self) -> np.ndarray:
        """The matrix this form stands for, a or a*."""
        return self.a.conj().T if self.adjoint else self.a

    @property
    def norm_bound(self) -> float:
        """Upper bound sqrt(|t|_1 |t|_inf) on the 2-norm of t and of t*."""
        mag = np.abs(self.t)
        return float(np.sqrt(np.add.reduce(mag, 0).max() * np.add.reduce(mag, 1).max()))

    def op(self) -> np.ndarray:
        """The represented triangular factor, t or t*."""
        return self.t.conj().T if self.adjoint else self.t


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
    return _schur(_square(a, "a"))


def _schur(a: np.ndarray) -> SchurForm:
    """``schur_form`` of a finite complex square ``a``, such as a Realization's, unchecked."""
    return SchurForm(a, *_schur_factors(a))


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
    a, b = [m if isinstance(m, SchurForm) else _square(m, name) for m, name in ((a, "a"), (b, "b"))]
    c = _finite(np.atleast_2d(np.asarray(c, dtype=complex)), "c")
    p, q = len(a), len(b)
    if c.size == 0 and (p == 0 or q == 0):
        c = np.zeros((p, q), dtype=complex)
    if c.shape != (p, q):
        raise StructureError(f"c must be {p}x{q}, got {c.shape}")
    return a, b, c


def _gramian(f: SchurForm, t=None, inverse=None) -> tuple[np.ndarray | None, float]:
    """Gramian of a coefficient and its trace, which bounds its 2-norm as it is >= 0.

    That is P with op(t) P + P op(t)* + I = 0, t the Schur factor of f unless
    given, or for the Cayley factor t and ``inverse`` of ``_shift_inverse`` the
    Stein Gramian 2 inverse P inverse*, which solves Q - op(f.t) Q op(f.t)* = I.
    It is None when P is not finite.  The trace is infinite then, and also where
    ztrsyl perturbed a near-singular pivot, as P is then no semidefinite Gramian.
    """
    t = f.t if t is None else t
    p, scale, info = _lapack().ztrsyl(t, t, -np.eye(len(f)), trana="NC"[f.adjoint], tranb="CN"[f.adjoint])
    if np.count_nonzero(np.isfinite(p)) < p.size:
        return None, np.inf
    p = p if scale == 1.0 else p / scale
    if inverse is not None:
        p = 2.0 * (inverse @ p @ inverse.conj().T)
    return p, np.inf if info else float(p.trace().real)


def _cayley_shift(fa: SchurForm, fb: SchurForm) -> complex:
    """Unit-modulus s keeping -s off spec(op(ta)) and -conj(s) off spec(op(tb))."""
    ea, eb = fa.op().diagonal(), fb.op().diagonal()
    gaps = np.minimum(
        np.abs(ea[None, :] + _CAYLEY_SHIFTS[:, None]).min(axis=1),
        np.abs(eb[None, :] + _CAYLEY_SHIFTS.conj()[:, None]).min(axis=1),
    )
    return complex(_CAYLEY_SHIFTS[int(np.argmax(gaps))])


def _shift_inverse(f: SchurForm, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """Cayley factor c with op(c) = (op(t) + s)^{-1}(op(t) - s), and (op(t) + s)^{-1} itself."""
    shift = (np.conj(s) if f.adjoint else s) * np.eye(len(f))
    inverse, info = _lapack().ztrtri(f.t + shift)
    if info != 0:
        raise UnsolvableEquationError("shifted Schur factor is exactly singular", 0.0)
    cayley = inverse @ (f.t - shift)
    return cayley, (inverse.conj().T if f.adjoint else inverse)


def _upper(f: SchurForm) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal magnitudes of op(t), reversed for an adjoint to be upper triangular."""
    d, m = f.op().diagonal(), np.abs(np.triu(f.t, 1))
    return (d[::-1], m.T[::-1, ::-1]) if f.adjoint else (d, m)


def _comparison_sweep(da, ma, db, mb, stein: bool) -> float:
    """Largest entry of M^{-1} e, M the comparison matrix of y -> A y + y B (with
    ``stein`` y -> y - A y B) for the ``_upper`` pairs (da, ma) of A and (db, mb)
    of B; inf where M is singular or the entries overflow.  Column j of M z = e
    is an upper triangular system whose right-hand side gathers the columns before it."""
    z, full_a = np.zeros((len(da), len(db))), ma + np.diag(np.abs(da))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(db)):
            earlier = z[:, :j] @ mb[:j, j]
            if stein:
                system = np.diag(np.abs(1.0 - da * db[j])) - abs(db[j]) * ma
                earlier = full_a @ earlier
            else:
                system = np.diag(np.abs(da + db[j])) - ma
            column, info = _lapack().dtrtrs(system, (1.0 + earlier)[:, None])
            if info != 0 or not np.isfinite(column).all():
                return np.inf
            z[:, j] = column[:, 0]
    return float(z.max())


def _comparison_bound(fa: SchurForm, fb: SchurForm, stein: bool) -> float:
    """Comparison bound sqrt(|M^{-1} e|_inf |M^{-T} e|_inf) on |L^{-1}|_2 for the
    operator L of ``_operator`` on the Schur factors themselves.  Transposing
    the unknown turns M^T into the comparison matrix of L with swapped factors."""
    a, b = _upper(fa), _upper(fb)
    return float(np.sqrt(_comparison_sweep(*a, *b, stein) * _comparison_sweep(*b, *a, stein)))


def _operator(fa: SchurForm, fb: SchurForm, stein: bool = False):
    """2-norm bound of the operator L, a solver for L, and a certified upper
    bound on the 2-norm of L's inverse.

    L is y -> op(ta) y + y op(tb) in the Schur bases of fa and fb, or with
    ``stein`` y -> y - op(ta) y op(tb), solved on the Cayley factors of ta and
    tb for the eighth root of unity s whose negative lies farthest from both
    spectra.  The bound is sqrt(tr G_a tr G_b) if both factors of the triangular
    pair are Hurwitz and ``_screen`` accepts with it, and otherwise the smaller
    of the comparison bound and, where both traces are finite, sqrt(|G_a| |G_b|).
    """
    if stein:
        s = _cayley_shift(fa, fb)
        (ta, ia), (tb, ib) = _shift_inverse(fa, s), _shift_inverse(fb, np.conj(s))
        norm = 1.0 + fa.norm_bound * fb.norm_bound
    else:
        ta, ia, tb, ib = fa.t, None, fb.t, None
        norm = fa.norm_bound + fb.norm_bound

    def solve(rhs):
        if ia is not None:
            rhs = -2.0 * (ia @ rhs @ ib)
        y, scale, _ = _lapack().ztrsyl(ta, tb, rhs, trana="NC"[fa.adjoint], tranb="NC"[fb.adjoint])
        return y if scale == 1.0 else y / scale

    bound = np.inf
    if max(ta.diagonal().real.max(), tb.diagonal().real.max()) < 0.0:
        (pa, trace_a), (pb, trace_b) = _gramian(fa, ta, ia), _gramian(fb, tb, ib)
        bound = float(np.sqrt(trace_a * trace_b))
        if _screen(norm * bound, CONDITION_LIMIT):
            return norm, solve, bound
        if max(trace_a, trace_b) < np.inf:
            norms = [np.abs(np.linalg.eigvalsh(p)).max() for p in (pa, pb)]
            bound = float(np.sqrt(norms[0] * norms[1]))
    return norm, solve, min(bound, _comparison_bound(fa, fb, stein))


def _solve(a, b, c, stein: bool) -> EquationSolution:
    """Solve ``a x + x b + c = 0``, or with ``stein`` ``x = a x b + c``, refused
    unless the operator's norm bound times the certified bound on the norm of
    its inverse is at most ``CONDITION_LIMIT``."""
    a, b, c = _equation_inputs(a, b, c)
    if c.size == 0:
        return EquationSolution(np.zeros(c.shape, dtype=complex), 0.0)
    fa, fb = _factored(a), _factored(b)
    norm, solve, inverse_norm = _operator(fa, fb, stein)
    # A zero operator has norm 0 and an infinite bound, whose NaN product is refused too.
    if not norm * inverse_norm <= CONDITION_LIMIT:
        smallest = 1.0 / inverse_norm
        raise UnsolvableEquationError(
            f"equation is numerically singular "
            f"(certified lower bound {smallest:.3e} on its smallest singular value)",
            smallest_singular_value=smallest,
        )
    x = fa.u @ solve(fa.u.conj().T @ (c if stein else -c) @ fb.u) @ fb.u.conj().T
    a, b = fa.matrix, fb.matrix
    return EquationSolution(x, opnorm(x - a @ x @ b - c if stein else a @ x + x @ b + c))


def solve_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> EquationSolution:
    """Solve ``a x + x b + c = 0``.

    Unique solvability requires the spectra of ``a`` and ``-b`` to be
    disjoint, which holds in particular when both ``a`` and ``b`` are
    Hurwitz stable.  Either dimension may be zero, in which case the unique
    empty solution is returned.  ``a`` and ``b`` may be given as
    ``SchurForm`` objects, whose factorizations are then reused.
    """
    return _solve(a, b, c, stein=False)


def solve_stein(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> EquationSolution:
    """Solve ``x = a x b + c``.

    Unique solvability requires that no product of an eigenvalue of ``a``
    with an eigenvalue of ``b`` equals one; both factors being Schur stable
    guarantees this.  ``a`` and ``b`` may be given as ``SchurForm`` objects.
    """
    return _solve(a, b, c, stein=True)


def _disk_map(f: SchurForm) -> np.ndarray:
    """``zeta_of_minus`` of the matrix a that the non-empty form ``f`` stands for,
    without its pole test: u (I - t)^{-1}(I + t) u* by one ztrtrs.  For callers
    that have proved I - a far from singular; an exactly singular I - t raises
    ``EvaluationError``."""
    lapack, eye = _lapack(), np.eye(len(f.t), dtype=complex)
    # (I - t) and (I + t) commute, so this equals u (I + t)(I - t)^{-1} u*.
    y, info = lapack.ztrtrs(eye - f.t, eye + f.op(), trans=2 if f.adjoint else 0)
    if info != 0:
        raise EvaluationError(f"I - a is exactly singular (ztrtrs info {info})")
    return f.u @ y @ f.u.conj().T


def zeta_of_minus(a: np.ndarray) -> np.ndarray:
    """Evaluate the half-plane-to-disk map (1-s)/(1+s) at ``-a``.

    Returns ``(I + a)(I - a)^{-1}``, computed as ``u (I - t)^{-1}(I + t) u*``
    from the Schur form of ``a``.  For Hurwitz-stable ``a`` every eigenvalue
    lands strictly inside the unit disk.  A pole is refused where the 2-norm
    condition number of I - a, the ratio of its extreme singular values,
    exceeds ``CONDITION_LIMIT``.
    """
    f = schur_form(a)
    if len(f.t) == 0:
        return np.zeros((0, 0), dtype=complex)
    s = _svd(np.eye(len(f.t)) - f.t, compute_uv=False)  # u is unitary: those of I - a
    if not s[-1] * CONDITION_LIMIT >= s[0]:
        raise EvaluationError("an eigenvalue of a is too close to 1; the map has a pole there")
    return _disk_map(f)


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
