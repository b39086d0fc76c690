"""Seeded generators of random test instances.

Everything takes an explicit numpy Generator so the verification battery and
the test suite stay reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .core import Realization, SymbolPair, direct_sum, unitary_twist
from .realizations import BlaschkeSpec, Polynomial, blaschke_realization

#: Pole box used when nothing else is requested: comfortably off the axis.
POLE_RE_RANGE = (-3.0, -0.1)
POLE_IM_SPAN = 3.0


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed m x m unitary matrix."""
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_pole(rng: np.random.Generator, re_range=POLE_RE_RANGE, im_span=POLE_IM_SPAN) -> complex:
    return complex(rng.uniform(*re_range), rng.uniform(-im_span, im_span))


def random_blaschke_spec(
    rng: np.random.Generator,
    degree: int,
    re_range=POLE_RE_RANGE,
    im_span=POLE_IM_SPAN,
) -> BlaschkeSpec:
    rho = complex(np.exp(2j * np.pi * rng.uniform()))
    poles = tuple(random_pole(rng, re_range, im_span) for _ in range(degree))
    return BlaschkeSpec(rho, poles)


def random_siso_realization(rng: np.random.Generator, max_degree: int = 3) -> Realization:
    """Random scalar inner function as a stable dissipative realization."""
    degree = int(rng.integers(0, max_degree + 1))
    return blaschke_realization(random_blaschke_spec(rng, degree))


def random_mimo_realization(
    rng: np.random.Generator, m: int, max_block_degree: int = 3
) -> Realization:
    """Random m x m inner function: a diagonal of scalar factors twisted by unitaries."""
    out = direct_sum(*(random_siso_realization(rng, max_block_degree) for _ in range(m)))
    out = unitary_twist(out, random_unitary(rng, m), "left")
    return unitary_twist(out, random_unitary(rng, m), "right")


def random_symbol_pair(
    rng: np.random.Generator, max_m: int = 3, max_block_degree: int = 3
) -> SymbolPair:
    m = int(rng.integers(1, max_m + 1))
    return SymbolPair(
        random_mimo_realization(rng, m, max_block_degree),
        random_mimo_realization(rng, m, max_block_degree),
    )


def random_hurwitz_matrix(rng: np.random.Generator, n: int, margin: float = 0.2) -> np.ndarray:
    """Random dense matrix with spectrum shifted strictly into the left half plane."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    top = float(np.linalg.eigvals(g).real.max()) if n else 0.0
    return g - (top + margin) * np.eye(n)


def random_schur_matrix(rng: np.random.Generator, n: int, radius: float = 0.8) -> np.ndarray:
    """Random dense matrix rescaled to spectral radius at most ``radius``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = float(np.abs(np.linalg.eigvals(g)).max()) if n else 0.0
    if rho == 0.0:
        return g
    return g * (radius * rng.uniform(0.3, 1.0) / rho)


def random_polynomial(rng: np.random.Generator, degree: int, min_leading: float = 0.1) -> Polynomial:
    """Coefficients from the complex unit box; the leading one bounded away from zero."""
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    while abs(coeffs[-1]) < min_leading:
        coeffs[-1] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Polynomial(tuple(coeffs))


def random_polynomial_off_axis(
    rng: np.random.Generator, degree: int, exclusion: float = 1e-6
) -> Polynomial:
    """Unit-box polynomial whose roots all have |Re| above the exclusion band."""
    while True:
        p = random_polynomial(rng, degree)
        roots = np.roots(np.asarray(p.coeffs[::-1]))
        if np.all(np.abs(roots.real) > exclusion):
            return p


def random_stable_polynomial(rng: np.random.Generator, degree: int) -> Polynomial:
    """Monic polynomial with all roots in the standard pole box."""
    return Polynomial.from_roots([random_pole(rng) for _ in range(degree)])


def random_rank_one_dissipative(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable dissipative state map of dimension n whose a + a* has rank one.

    Returns (a, c) with a + a* + c*c = 0; these are the state and output maps
    of a random degree-n scalar inner function.
    """
    r = blaschke_realization(random_blaschke_spec(rng, n))
    return r.a, r.c
