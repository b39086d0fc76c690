"""Dense Kronecker/SVD solvers, kept as an oracle that shares no code with whindex.equations.

Both equations are vectorized into a (pq) x (pq) linear system and solved
through its SVD.  The cost grows like (pq)^3, so the oracle is only meant for
the small sizes the tests use.  The refusal rule is the library's original
one: a 2-norm condition number of the vectorized system above
``CONDITION_LIMIT`` (or an exactly zero singular value) is refused.

``contraction`` solves the paper's equations for the contraction Q of a pair
of inner factors the way the library's original pipeline did, through the
coupling omega and c_circ, and is the reference for Q = I - omega* omega.
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


def contraction(v, w, discrete: bool) -> np.ndarray:
    """Q of the pair (v, w) of realizations with fields a, b, c, d.

    Continuous:  a_v X + X a_w* + b_v b_w* = 0,  c_circ = d_v b_w* + c_v X,
                 a_w Q + Q a_w* + c_circ* c_circ = 0.
    Discrete:    X = a_v X a_w* + b_v b_w*,  c_circ = d_v b_w* + c_v X a_w*,
                 Q = a_w Q a_w* + c_circ* c_circ.
    """
    av, bv, cv, dv, aw, bw = (np.asarray(m, dtype=complex) for m in (v.a, v.b, v.c, v.d, w.a, w.b))
    awh = aw.conj().T
    if discrete:
        x = solve_stein(av, awh, bv @ bw.conj().T)
        c_circ = dv @ bw.conj().T + cv @ x @ awh
        return solve_stein(aw, awh, c_circ.conj().T @ c_circ)
    x = solve_sylvester(av, awh, bv @ bw.conj().T)
    c_circ = dv @ bw.conj().T + cv @ x
    return solve_sylvester(aw, awh, c_circ.conj().T @ c_circ)
