"""Dictionary between discrete-time and continuous-time realizations.

The maps below implement the change of variable z = (1-s)/(1+s) at the
realization level.  They are exact inverses of each other, take stable
unitary quadruples to stable dissipative ones and back, and map the state
matrix spectrum by lambda -> (1+lambda)/(1-lambda).

Both are one signed map built on the disk map ``zeta_of_minus``.  With
M = (I - a)^{-1}(I + a), the resolvent is (I - a)^{-1} = (I + M)/2, since
(I - a) + (I + a) = 2I; so c2d needs M and nothing else.  d2c is the same
map applied to -a with the signs of the state matrix and the feedthrough
correction flipped.  The pole check of ``zeta_of_minus`` is the only one.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CONTINUOUS, DISCRETE, Realization
from .equations import zeta_of_minus
from .errors import EvaluationError, StructureError

_SQRT2 = math.sqrt(2.0)


def _signed_map(r: Realization, sign: float, flavor: str) -> Realization:
    """Apply a -> sign M, b -> sqrt(2) R b, c -> sqrt(2) c R, d -> d + sign c R b.

    Here M = zeta_of_minus(sign a) and R = (I + M)/2 = (I - sign a)^{-1}.
    """
    try:
        m = zeta_of_minus(sign * r.a)
    except EvaluationError:
        raise EvaluationError(
            f"I {'-' if sign > 0 else '+'} a is numerically singular; "
            f"an eigenvalue of a sits at the map's pole {sign:+.0f}"
        ) from None
    resolvent = 0.5 * (np.eye(r.state_dim) + m)
    shifted_b = resolvent @ r.b
    return Realization(
        sign * m,
        _SQRT2 * shifted_b,
        _SQRT2 * (r.c @ resolvent),
        r.d + sign * (r.c @ shifted_b),
        flavor,
    )


def d2c(r: Realization) -> Realization:
    """Continuous-time realization of the same function under z = (1-s)/(1+s).

    a_c = (a - I)(I + a)^{-1}, b_c = sqrt(2) (I + a)^{-1} b,
    c_c = sqrt(2) c (I + a)^{-1}, d_c = d - c (I + a)^{-1} b.
    Stable unitary inputs give stable dissipative outputs.
    """
    if r.flavor != DISCRETE:
        raise StructureError("d2c expects a discrete realization, got a continuous one")
    return _signed_map(r, -1.0, CONTINUOUS)


def c2d(r: Realization) -> Realization:
    """Inverse dictionary of d2c.

    a_d = (I - a)^{-1}(a + I), b_d = sqrt(2) (I - a)^{-1} b,
    c_d = sqrt(2) c (I - a)^{-1}, d_d = d + c (I - a)^{-1} b.
    Stable dissipative inputs give stable unitary outputs.
    """
    if r.flavor != CONTINUOUS:
        raise StructureError("c2d expects a continuous realization, got a discrete one")
    return _signed_map(r, 1.0, DISCRETE)
