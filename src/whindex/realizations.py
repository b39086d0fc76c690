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
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CONTINUOUS,
    Realization,
    SymbolPair,
    VALIDATION_TOL,
    _svd,
    constant_realization,
    direct_sum,
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
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        """Monic-times-``leading`` polynomial with the given roots."""
        coeffs = np.array([complex(leading)])
        for root in roots:
            coeffs = np.convolve(coeffs, np.array([-complex(root), 1.0]))
        return cls(tuple(coeffs))


def zeta_power_realization(n: int) -> Realization:
    """Stable dissipative realization of the n-th power of (1-s)/(1+s).

    The state matrix is the upper triangular Toeplitz matrix with -1 on the
    diagonal and alternating +-2 above it; input and output vectors carry
    alternating signs scaled by sqrt(2), and the feedthrough is (-1)^n.
    """
    if n < 1:
        raise StructureError(f"power must be a positive integer, got {n}")
    a = -np.eye(n, dtype=complex)
    if n > 1:  # adding a 1 x 1 zero would flip the sign of the zero imaginary part
        offset = np.arange(n) - np.arange(n)[:, None]  # j - i at entry (i, j)
        a += np.triu(np.where(offset % 2, 2.0, -2.0), 1)
    b = _SQRT2 * np.array([[(-1.0) ** (n - 1 - i)] for i in range(n)], dtype=complex)
    c = _SQRT2 * np.array([[(-1.0) ** j for j in range(n)]], dtype=complex)
    d = np.array([[(-1.0) ** n]], dtype=complex)
    return Realization(a, b, c, d, CONTINUOUS)


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
    poles = np.array(spec.poles[::-1], dtype=complex)
    g = np.sqrt(-2.0 * poles.real)
    a = np.diag(poles) - np.triu(np.outer(g, g), 1)
    return Realization(a, -g[:, None], spec.rho * g[None, :], [[spec.rho]], CONTINUOUS)


def blaschke_eval(spec: BlaschkeSpec, s):
    """Pointwise value of the Blaschke product; accepts scalars or arrays."""
    s = np.asarray(s, dtype=complex)
    out = np.full(s.shape, spec.rho, dtype=complex)
    for alpha in spec.poles:
        out *= (s + np.conj(alpha)) / (s - alpha)
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

    def block(p):
        return zeta_power_realization(p) if p > 0 else constant_realization([[1.0]])

    return SymbolPair(direct_sum(*map(block, powers)), direct_sum(*(block(-p) for p in powers)))


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
    tol: float = CLUSTER_TOL,
) -> complex:
    """Reconstruct a Blaschke product value from a unit-defect vector.

    Requires ``a`` stable dissipative with ``a + a* + c*c = 0`` (so ``a + a*``
    has rank one), ``deg(phi) < dim(a)`` and a nonzero ``x`` fixed by
    ``phi(-a*)* phi(-a*)``.  Returns
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
    if drift > tol * norm_x:
        raise PreconditionError(
            f"x is not fixed by phi(-a*)* phi(-a*) at tolerance {tol} (defect {drift:.3e})"
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
