"""Scalar Blaschke products built as cascades of balanced first-order sections.

This is the construction ``blaschke_realization`` unrolls into its closed
form: one section (s + conj(alpha)) / (s - alpha) per pole, cascaded in pole
order with ``core.cascade``, the unimodular constant absorbed into the
outermost (last) section.  It makes one ``Realization`` per section and per
cascade step, so it is only meant as a reference for the tests.
"""

from __future__ import annotations

import math

import numpy as np

from whindex.core import CONTINUOUS, Realization, cascade, constant_realization
from whindex.realizations import BlaschkeSpec


def first_order_section(alpha: complex, scale: complex = 1.0) -> Realization:
    """Balanced realization of scale * (s + conj(alpha)) / (s - alpha)."""
    gain = math.sqrt(-2.0 * alpha.real)
    a = np.array([[alpha]], dtype=complex)
    b = np.array([[-gain]], dtype=complex)
    c = np.array([[scale * gain]], dtype=complex)
    d = np.array([[scale]], dtype=complex)
    return Realization(a, b, c, d, CONTINUOUS)


def cascaded_blaschke(spec: BlaschkeSpec) -> Realization:
    if spec.degree == 0:
        return constant_realization([[spec.rho]])
    sections = [first_order_section(alpha) for alpha in spec.poles[:-1]]
    sections.append(first_order_section(spec.poles[-1], scale=spec.rho))
    out = sections[0]
    for section in sections[1:]:
        out = cascade(section, out)
    return out
