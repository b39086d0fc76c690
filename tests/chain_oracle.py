"""Kernel-dimension chain by matrix powers, kept as the reference for whindex.indices.

This is the library's original chain: it forms M^k Q M*^k by repeated
conjugation, re-Hermitizes each power and counts its eigenvalues at or
above 1 - tol.  Every step costs two n x n products and an n x n
eigendecomposition, and the counts drift for a non-normal M, so the
reference is only meant for the small, well-separated cases the tests use.
It shares no code with whindex.  ``step_rows`` gives the rows of c_d that
whindex's chain steps with, which fix the decompositions the tests count.
"""

from __future__ import annotations

import numpy as np


class ChainFailure(ArithmeticError):
    """The power chain broke one of its own rules at this tolerance."""


def _unit_count(h: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    evals = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    if evals.size and evals[-1] > 1.0 + tol:
        raise ChainFailure(f"eigenvalue {evals[-1]!r} exceeds 1 beyond tolerance {tol}")
    return int(np.count_nonzero(evals >= 1.0 - tol)), evals


def kernel_dimension_chain(q, m, tol: float, cap: int) -> list[int]:
    """Unit-eigenvalue multiplicities of M^k Q M*^k for k = 0, 1, ... until zero."""
    current = np.asarray(q, dtype=complex)
    m = np.asarray(m, dtype=complex)
    count, evals = _unit_count(current, tol)
    if evals.size and evals[0] < -tol:
        raise ChainFailure(f"Q has a negative eigenvalue {evals[0]!r} beyond tolerance")
    dims = [count]
    while dims[-1] > 0:
        if len(dims) > cap:
            raise ChainFailure(f"kernel dimensions failed to reach zero within {cap} steps: {dims}")
        current = m @ current @ m.conj().T
        current = (current + current.conj().T) / 2.0
        count, _ = _unit_count(current, tol)
        if count >= dims[-1]:
            raise ChainFailure(f"kernel dimensions are not strictly decreasing: {dims + [count]}")
        dims.append(count)
    return dims


def step_rows(c, d0: int) -> int:
    """Rows of c_d that the chain of whindex steps with from d_0, for the output
    matrix ``c`` of its factor: the nonzero ones where d_0 exceeds the m rows of
    c, else all m.  c_d = (c + c M)/sqrt(2), or c itself for a discrete factor,
    keeps exactly the zero rows of c, and a zero row drops no direction."""
    c = np.asarray(c)
    nonzero = int(np.count_nonzero(c.any(axis=1)))
    return nonzero if d0 > len(c) and nonzero else len(c)
