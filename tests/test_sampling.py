"""The samplers build each instance by a shorter route than the one they stand for.

Each test here keeps the plain route, draws from a clone of the same Generator
and requires the same numbers drawn and the same instance bit for bit, signed
zeros included, since the battery's cases and verdicts rest on the streams.
"""

import copy

import numpy as np
import pytest

from whindex.core import Realization, constant_realization, direct_sum, unitary_twist
from whindex.oracle import schur_cohen_stable
from whindex.realizations import blaschke_realization, diagonal_symbol_factors, zeta_power_realization
from whindex.sampling import (
    random_blaschke_spec,
    random_mimo_realization,
    random_polynomial_off_axis,
    random_rank_one_dissipative,
    random_unitary,
)


def _twisted_direct_sum(rng, m, max_block_degree=3):
    def scalar():
        return blaschke_realization(random_blaschke_spec(rng, int(rng.integers(0, max_block_degree + 1))))

    out = direct_sum(*(scalar() for _ in range(m)))
    out = unitary_twist(out, random_unitary(rng, m), "left")
    return unitary_twist(out, random_unitary(rng, m), "right")


def _same_bits(x, y):
    return (x.dtype, x.shape, x.strides, x.tobytes()) == (y.dtype, y.shape, y.strides, y.tobytes())


def _same_realization(x, y):
    return x.flavor == y.flavor and all(_same_bits(getattr(x, k), getattr(y, k)) for k in "abcd")


def _clone(seed):
    rng = np.random.default_rng(seed)
    return rng, copy.deepcopy(rng)


def _same_stream(rng, clone):
    return rng.bit_generator.state == clone.bit_generator.state and rng.uniform() == clone.uniform()


def test_random_mimo_realization_is_the_twisted_direct_sum():
    rng, clone = _clone(4103)
    for k in range(200):
        m, degree = k % 5, k % 4
        got = random_mimo_realization(rng, m, degree)
        assert _same_realization(got, _twisted_direct_sum(clone, m, degree))
        assert _same_stream(rng, clone)


def test_random_rank_one_dissipative_is_the_blaschke_realization():
    rng, clone = _clone(4106)
    for n in list(range(9)) * 5:
        a, c = random_rank_one_dissipative(rng, n)
        r = blaschke_realization(random_blaschke_spec(clone, n))
        assert _same_bits(a, r.a) and _same_bits(c, r.c)
    assert _same_stream(rng, clone)


def test_diagonal_symbol_factors_is_the_direct_sum_of_its_blocks():
    def block(p):
        return zeta_power_realization(p) if p > 0 else constant_realization([[1.0]])

    rng = np.random.default_rng(4104)
    for length in list(range(8)) * 10:
        powers = [int(p) for p in rng.integers(-9, 10, length)]
        pair = diagonal_symbol_factors(powers)
        assert _same_realization(pair.v, direct_sum(*map(block, powers)))
        assert _same_realization(pair.w, direct_sum(*(block(-p) for p in powers)))


@pytest.mark.parametrize("build, constructions", [
    (lambda rng: random_mimo_realization(rng, 3), 1),
    (lambda rng: diagonal_symbol_factors([-4, -2, 0, 3, 5]), 2),
    (lambda rng: schur_cohen_stable(random_polynomial_off_axis(rng, 8)), 0),
])
def test_builders_construct_only_their_results(monkeypatch, build, constructions):
    constructed = []
    post_init = Realization.__post_init__
    monkeypatch.setattr(Realization, "__post_init__", lambda r: constructed.append(r) or post_init(r))
    build(np.random.default_rng(4105))
    assert len(constructed) == constructions
