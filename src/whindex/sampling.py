"""Seeded generators of random test instances.

Everything takes an explicit numpy Generator so the verification battery and
the test suite stay reproducible from a single seed.  A generator built by a
shorter route than the one it names draws the same stream and the same bits.
Each generator draws from one fixed law (one pole box, fixed margins); a
caller chooses only sizes and degrees.

Decompositions call LAPACK through ``core._lapack``, the routines numpy's
``np.linalg.qr`` and ``np.linalg.eigvals`` wrap, with the workspace numpy
queries, so their bits equal numpy's route: eigenvalues come from
``core._eigvals`` and polynomial roots from ``realizations._roots``, numpy's
``np.roots``.  The plain-route tests in ``tests/test_sampling.py`` pin each
generator to that route.
"""

from __future__ import annotations

import numpy as np

from .core import Realization, SymbolPair, _check_unitary, _eigvals, _lapack, _lwork
from .realizations import BlaschkeSpec, Polynomial, _blaschke_blocks, _roots

#: Pole box of every generator: comfortably off the axis.
POLE_RE_RANGE = (-3.0, -0.1)
POLE_IM_SPAN = 3.0


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed m x m unitary matrix: the Q factor of a complex Gaussian
    matrix, its columns multiplied by the phases of R's diagonal (Mezzadri 2007)."""
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    # zungqr's optimal workspace is zgeqrf's, m times LAPACK's block size.  Neither
    # routine has a failure to report: their only nonzero info is a bad argument.
    lapack, lwork = _lapack(), _lwork("zgeqrf", m, m)
    qr, tau, _, _ = lapack.zgeqrf(z, lwork=lwork, overwrite_a=True)
    r = qr.diagonal()
    phases = r / np.abs(r)  # before zungqr overwrites qr with Q
    q, _, _ = lapack.zungqr(qr, tau, lwork=lwork, overwrite_a=True)
    return np.multiply(q, phases, order="C")


def random_pole(rng: np.random.Generator) -> complex:
    """Uniform pole in the box ``POLE_RE_RANGE`` x ``[-POLE_IM_SPAN, POLE_IM_SPAN]``."""
    return complex(rng.uniform(*POLE_RE_RANGE), rng.uniform(-POLE_IM_SPAN, POLE_IM_SPAN))


def random_blaschke_spec(rng: np.random.Generator, degree: int) -> BlaschkeSpec:
    """Uniform unimodular constant and ``degree`` poles from ``random_pole``."""
    rho = complex(np.exp(2j * np.pi * rng.uniform()))
    return BlaschkeSpec(rho, tuple(random_pole(rng) for _ in range(degree)))


def random_mimo_realization(
    rng: np.random.Generator, m: int, max_block_degree: int = 3
) -> Realization:
    """Random m x m inner function, ``unitary_twist(unitary_twist(direct_sum(*scalars), u,
    "left"), v, "right")`` for m scalar Blaschke realizations of random degree, then u and v."""
    specs = [random_blaschke_spec(rng, int(rng.integers(0, max_block_degree + 1))) for _ in range(m)]
    a, b, c, d = _blaschke_blocks(*specs)
    u, v = (_check_unitary(random_unitary(rng, m), m) for _ in range(2))
    return Realization(a, b @ v, u @ c, u @ d @ v)


def random_symbol_pair(
    rng: np.random.Generator, max_m: int = 3, max_block_degree: int = 3
) -> SymbolPair:
    m = int(rng.integers(1, max_m + 1))
    return SymbolPair(
        random_mimo_realization(rng, m, max_block_degree),
        random_mimo_realization(rng, m, max_block_degree),
    )


def random_hurwitz_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random dense matrix with spectrum shifted 0.2 left of the imaginary axis."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    top = float(_eigvals(g).real.max()) if n else 0.0
    return g - (top + 0.2) * np.eye(n)


def random_schur_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random dense matrix rescaled to spectral radius at most 0.8."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = float(np.abs(_eigvals(g)).max()) if n else 0.0
    if rho == 0.0:
        return g
    return g * (0.8 * rng.uniform(0.3, 1.0) / rho)


def random_polynomial(rng: np.random.Generator, degree: int) -> Polynomial:
    """Coefficients from the complex unit box; the leading one of modulus at least 0.1."""
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    while abs(coeffs[-1]) < 0.1:
        coeffs[-1] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return Polynomial(tuple(coeffs))


def random_polynomial_off_axis(rng: np.random.Generator, degree: int) -> Polynomial:
    """Unit-box polynomial whose roots all have |Re| above 1e-6."""
    while True:
        p = random_polynomial(rng, degree)
        if np.all(np.abs(_roots(p).real) > 1e-6):
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
    a, _, c, _ = _blaschke_blocks(random_blaschke_spec(rng, n))
    return a, c
