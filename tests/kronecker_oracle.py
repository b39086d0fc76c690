"""Dense Kronecker/SVD solvers, kept as an oracle that shares no code with whindex.equations.

Both equations are vectorized into a (pq) x (pq) linear system and solved
through its SVD.  The cost grows like (pq)^3, so the oracle is only meant for
the small sizes the tests use.  The refusal rule is the library's original
one: a 2-norm condition number of the vectorized system above
``CONDITION_LIMIT`` (or an exactly zero singular value) is refused.
"""

from __future__ import annotations

import numpy as np

CONDITION_LIMIT = 1e12


class Refused(ArithmeticError):
    """The vectorized system is numerically singular under the original rule."""

    def __init__(self, smallest: float, condition: float):
        super().__init__(f"refused: smallest singular value {smallest:.3e}, condition {condition:.3e}")
        self.smallest = smallest
        self.condition = condition


def sylvester_system(a, b) -> np.ndarray:
    """Matrix of x -> a x + x b acting on column-major vec(x)."""
    p, q = len(a), len(b)
    return np.kron(np.eye(q), a) + np.kron(np.asarray(b).T, np.eye(p))


def stein_system(a, b) -> np.ndarray:
    """Matrix of x -> x - a x b acting on column-major vec(x)."""
    p, q = len(a), len(b)
    return np.eye(p * q) - np.kron(np.asarray(b).T, a)


def _solve(m: np.ndarray, rhs: np.ndarray, p: int, q: int) -> np.ndarray:
    u, sing, vh = np.linalg.svd(m)
    smallest = float(sing[-1])
    cond = float("inf") if smallest == 0.0 else float(sing[0]) / smallest
    if cond > CONDITION_LIMIT:
        raise Refused(smallest, cond)
    vec = vh.conj().T @ ((u.conj().T @ rhs) / sing)
    return vec.reshape((p, q), order="F")


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve a x + x b + c = 0."""
    a, b, c = (np.asarray(m, dtype=complex) for m in (a, b, c))
    return _solve(sylvester_system(a, b), -c.reshape(-1, order="F"), len(a), len(b))


def solve_stein(a, b, c) -> np.ndarray:
    """Solve x = a x b + c."""
    a, b, c = (np.asarray(m, dtype=complex) for m in (a, b, c))
    return _solve(stein_system(a, b), c.reshape(-1, order="F"), len(a), len(b))
