"""Builders for inner-function realizations and the matrix Blaschke calculus.

The two families of building blocks are powers of the half-plane-to-disk map
``(1-s)/(1+s)`` (built in closed form, exact up to the sqrt(2) scalings) and
general scalar Blaschke products (built in closed form as the unrolled
cascade of balanced first-order sections).  Validity stays structural rather
than numerical: the balance identities of either family hold entry by entry
for every admissible input, up to the rounding of the entries, so no
builder has to check its result.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONTINUOUS,
    Realization,
    SymbolPair,
    VALIDATION_TOL,
    _eigvals,
    _empty,
    _svd,
    hermitize,
    opnorm,
)
from .equations import CLUSTER_TOL, CONDITION_LIMIT, _unit_cut
from .errors import EvaluationError, PreconditionError, StructureError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BlaschkeSpec:
    """A scalar Blaschke product: rho * prod (s + conj(alpha_k)) / (s - alpha_k).

    ``rho`` must be unimodular and every pole must lie strictly in the open
    left half plane, with finite real and imaginary parts.  Repeated poles
    are allowed; the degree is the number of poles counted with multiplicity.
    """

    rho: complex
    poles: tuple[complex, ...] = ()

    def __post_init__(self):
        rho = complex(self.rho)
        poles = tuple(complex(p) for p in self.poles)
        if not all(map(cmath.isfinite, (rho, *poles))):
            raise StructureError("rho and the poles must be finite numbers")
        if abs(abs(rho) - 1.0) > 1e-12:
            raise StructureError(f"rho must be unimodular, got |rho| = {abs(rho)!r}")
        for k, pole in enumerate(poles):
            if pole.real >= 0.0:
                raise StructureError(f"pole {k} has nonnegative real part: {pole!r}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "poles", poles)

    @property
    def degree(self) -> int:
        return len(self.poles)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with finite ascending complex coefficients and nonzero leading coefficient."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise StructureError("a polynomial needs at least one coefficient")
        if not all(map(cmath.isfinite, coeffs)):
            raise StructureError("polynomial coefficients must be finite numbers")
        if coeffs[-1] == 0:
            raise StructureError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def multiply(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic polynomial with the given roots."""
        coeffs = np.array([1.0 + 0.0j])
        for root in roots:
            coeffs = np.convolve(coeffs, np.array([-complex(root), 1.0]))
        return cls(tuple(coeffs))


def _roots(p: Polynomial) -> np.ndarray:
    """``np.roots`` of the coefficients of p, highest first, as a complex array, bit for bit.

    As there, the eigenvalues of the companion matrix of p stripped of its
    zero low-order coefficients come first, by one call of LAPACK zgeev
    (``core._eigvals``), then a root 0 for each stripped coefficient.  A
    monomial c s^k has just its k roots 0, as float zeros.  The companion
    matrix must be finite.
    """
    coeffs = np.asarray(p.coeffs, dtype=complex)
    zeros = int(np.flatnonzero(coeffs)[0])
    rest = coeffs[zeros:][::-1]
    n = len(rest) - 1
    if n == 0:
        return np.zeros(zeros)
    companion = np.eye(n, k=-1, dtype=complex)
    companion[0] = -rest[1:] / rest[0]
    return np.concatenate((_eigvals(companion), np.zeros(zeros, dtype=complex)))


def zeta_power_realization(n: int) -> Realization:
    """Stable dissipative realization of the n-th power of (1-s)/(1+s).

    The state matrix is the upper triangular Toeplitz matrix with -1 on the
    diagonal and alternating +-2 above it; input and output vectors carry
    alternating signs scaled by sqrt(2), and the feedthrough is (-1)^n.
    """
    if n < 1:
        raise StructureError(f"power must be a positive integer, got {n}")
    return Realization(*_zeta_power_blocks(n), CONTINUOUS)


def _zeta_power_blocks(*powers: int) -> tuple[np.ndarray, ...]:
    """The arrays (a, b, c, d) of the direct sum of ``zeta_power_realization(n)`` over
    ``powers``, written in one pass; a power 0 gives the constant 1.

    The entries are those of the formula in ``zeta_power_realization``.  Every
    zero imaginary part is +0.0 but that of a power-1 block's one state entry,
    -0.0, the sign ``-np.eye(1, dtype=complex)`` gives it.
    """
    a, b, c, d = blocks = _direct_sum_zeros(powers)
    a.ravel()[:: len(a) + 1] = -1.0
    k = 0
    for i, n in enumerate(powers):
        alternating = np.ones(n)
        alternating[1::2] = -1.0  # (-1)^j
        if n > 1:
            rows, cols = _strict_upper(n)
            a.real[k + rows, k + cols] = -2.0 * alternating[cols - rows]
        elif n == 1:
            a[k, k] = complex(-1.0, -0.0)
        b[k : k + n, i] = _SQRT2 * alternating[::-1]
        c[i, k : k + n] = _SQRT2 * alternating
        d[i, i] = (-1.0) ** n
        k += n
    return blocks


def blaschke_realization(spec: BlaschkeSpec) -> Realization:
    """Stable dissipative realization of a scalar Blaschke product, in closed form.

    With the poles in reverse order (the last pole first) and
    ``g_k = sqrt(-2 Re alpha_k)``, the realization is

        a = diag(alpha) - triu(g g^T, 1),   b = -g,   c = rho g^T,   d = rho,

    the cascade of the balanced first-order sections (s + conj(alpha_k)) /
    (s - alpha_k) in pole order, with ``rho`` absorbed into the outermost
    (last) one.  As ``|rho| = 1``, c*c = g g^T, so ``a + a* + c*c = 0`` holds
    entry by entry: 2 Re alpha_k + g_k^2 = 0 on the diagonal and
    -g_j g_k + g_j g_k = 0 off it; likewise ``b + c*d = -g + |rho|^2 g = 0``.
    The state dimension equals the degree; no poles give the constant rho.
    """
    return Realization(*_blaschke_blocks(spec), CONTINUOUS)


def _blaschke_blocks(*specs: BlaschkeSpec) -> tuple[np.ndarray, ...]:
    """The arrays (a, b, c, d) of the direct sum of ``blaschke_realization(spec)`` over
    ``specs``, written in one pass with the entries of its closed form."""
    a, b, c, d = blocks = _direct_sum_zeros([spec.degree for spec in specs])
    a.ravel()[:: len(a) + 1] = [pole for spec in specs for pole in spec.poles[::-1]]
    g = np.sqrt(-2.0 * a.diagonal().real)
    k = 0
    for i, spec in enumerate(specs):
        n = spec.degree
        part = g[k : k + n]
        if n > 1:
            rows, cols = _strict_upper(n)
            a.real[k + rows, k + cols] = -part[rows] * part[cols]
        b[k : k + n, i] = -part
        c[i, k : k + n] = spec.rho * part
        d[i, i] = spec.rho
        k += n
    return blocks


def _direct_sum_zeros(dims) -> tuple[np.ndarray, ...]:
    """Zero arrays (a, b, c, d) for a direct sum of scalar parts of state dimensions ``dims``."""
    n, m = sum(dims), len(dims)
    return _empty(n, n), _empty(n, m), _empty(m, n), _empty(m, m)


@functools.cache
def _strict_upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries above the diagonal of an n x n matrix,
    read-only, as every caller shares them."""
    indices = np.triu_indices(n, 1)
    for x in indices:
        x.setflags(write=False)
    return indices


def blaschke_eval(spec: BlaschkeSpec, s):
    """Pointwise value of the Blaschke product; accepts scalars or arrays.

    Each factor (s + conj(alpha)) / (s - alpha) is formed in two scratch
    arrays and multiplied into the result in place, with the operations, and
    so the bits, of the plain product.
    """
    s = np.asarray(s, dtype=complex)
    out = np.full(s.shape, spec.rho, dtype=complex)
    num, den = np.empty_like(out), np.empty_like(out)
    for alpha in spec.poles:
        np.add(s, np.conj(alpha), out=num)
        np.subtract(s, alpha, out=den)
        out *= np.divide(num, den, out=num)
    if out.shape == ():
        return complex(out)
    return out


def diagonal_symbol_factors(powers) -> SymbolPair:
    """Factor a diagonal symbol of powers of (1-s)/(1+s) into its two inner parts.

    Entry j contributes a power-``p_j`` block to the V factor when ``p_j > 0``
    and a power-``|p_j|`` block to the W factor when ``p_j < 0``; the other
    factor gets a constant 1 in that coordinate.  Block order follows the
    input order.
    """
    powers = [int(p) for p in powers]
    v, w = (_zeta_power_blocks(*(max(sign * p, 0) for p in powers)) for sign in (1, -1))
    return SymbolPair(Realization(*v, CONTINUOUS), Realization(*w, CONTINUOUS))


def p_sharp(p: Polynomial) -> Polynomial:
    """Para-conjugate polynomial: conjugate((p at -conj(s)))."""
    return Polynomial(tuple(np.conj(c) * (-1.0) ** k for k, c in enumerate(p.coeffs)))


def poly_of_matrix(p: Polynomial, m: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at a square matrix by the Horner scheme."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.size == 0:
        return np.zeros((0, 0), dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise StructureError(f"expected a square matrix, got {m.shape}")
    eye = np.eye(m.shape[0], dtype=complex)
    out = p.coeffs[-1] * eye
    for coeff in reversed(p.coeffs[:-1]):
        out = out @ m + coeff * eye
    return out


def blaschke_of_minus_A(p: Polynomial, a: np.ndarray) -> np.ndarray:
    """Evaluate the Blaschke quotient psharp/p at ``-a``.

    Returns ``psharp(-a) p(-a)^{-1}``.  When ``p`` is Hurwitz stable and
    ``a`` is Hurwitz stable, ``p(-a)`` is invertible; when ``a`` is also
    dissipative the result is a contraction.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    minus_a = -a
    den = poly_of_matrix(p, minus_a)
    num = poly_of_matrix(p_sharp(p), minus_a)
    if den.size == 0:
        return den
    s = _svd(den, compute_uv=False)  # the rule of np.linalg.cond(den) > CONDITION_LIMIT
    if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise EvaluationError("p(-a) is numerically singular; p and a share spectrum")
    return np.linalg.solve(den.conj().T, num.conj().T).conj().T


def blaschke_eval_at_minus(spec: BlaschkeSpec, a: np.ndarray) -> np.ndarray:
    """Evaluate a full Blaschke product at ``-a``, including its unimodular constant.

    With ``p`` the denominator polynomial built from the poles, the product
    equals ``rho (-1)^degree * psharp/p``, so this wraps blaschke_of_minus_A
    with that prefactor.
    """
    p = Polynomial.from_roots(spec.poles)
    return spec.rho * (-1.0) ** spec.degree * blaschke_of_minus_A(p, a)


def defect_rank(m: np.ndarray, tol: float = CLUSTER_TOL) -> int:
    """Rank of I - m*m at the given tolerance, for a contraction ``m``.

    The rank counts the eigenvalues sigma^2 of m*m below the unit cut
    1 - tol of ``eigenvalue_one_multiplicity``; a sigma^2 above 1 + tol
    raises ``ContractionViolationError``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.size == 0:
        return 0
    sigma2 = np.linalg.eigvalsh(hermitize(m.conj().T @ m))
    return int(np.count_nonzero(~_unit_cut(sigma2, tol)))


def recover_blaschke_pointwise(
    a: np.ndarray,
    c: np.ndarray,
    phi: BlaschkeSpec,
    x: np.ndarray,
    s: complex,
) -> complex:
    """Reconstruct a Blaschke product value from a unit-defect vector.

    Requires ``a`` stable dissipative with ``a + a* + c*c = 0`` (so ``a + a*``
    has rank one), ``deg(phi) < dim(a)`` and a nonzero ``x`` fixed by
    ``phi(-a*)* phi(-a*)`` to within ``CLUSTER_TOL`` |x|.  Returns
    ``c (sI - a)^{-1} phi(-a*) x  /  c (sI - a)^{-1} x``, which equals
    ``phi(s)`` wherever the denominator is nonzero.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    x = np.asarray(x, dtype=complex).reshape(-1)
    n = a.shape[0]
    if a.shape != (n, n) or c.shape != (1, n) or x.shape != (n,):
        raise StructureError("expected a n x n, c 1 x n and x of length n")
    if opnorm(a + a.conj().T + c.conj().T @ c) > VALIDATION_TOL:
        raise PreconditionError("a + a* + c*c does not vanish; a is not the dissipative state map for c")
    if phi.degree >= n:
        raise PreconditionError(
            f"recovery needs deg(phi) < dim(a), got degree {phi.degree} and dimension {n}"
        )
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0:
        raise PreconditionError("x must be nonzero")
    evaluated = blaschke_eval_at_minus(phi, a.conj().T)
    drift = np.linalg.norm(evaluated.conj().T @ (evaluated @ x) - x)
    if drift > CLUSTER_TOL * norm_x:
        raise PreconditionError(
            f"x is not fixed by phi(-a*)* phi(-a*) at tolerance {CLUSTER_TOL} (defect {drift:.3e})"
        )
    resolvent_arg = complex(s) * np.eye(n) - a
    try:
        pair = np.linalg.solve(resolvent_arg, np.column_stack([evaluated @ x, x]))
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"resolvent is singular at s = {s}") from exc
    numerator = complex((c @ pair[:, 0]).item())
    denominator = complex((c @ pair[:, 1]).item())
    if abs(denominator) <= 1e-14 * (1.0 + abs(numerator)):
        raise EvaluationError(f"denominator vanishes at s = {s}")
    return numerator / denominator
