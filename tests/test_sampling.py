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
from whindex.realizations import (
    BlaschkeSpec,
    _blaschke_blocks,
    _zeta_power_blocks,
    blaschke_realization,
    diagonal_symbol_factors,
    zeta_power_realization,
)
from whindex.sampling import (
    random_blaschke_spec,
    random_hurwitz_matrix,
    random_mimo_realization,
    random_polynomial_off_axis,
    random_rank_one_dissipative,
    random_schur_matrix,
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


def _numpy_unitary(rng, m):
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _numpy_hurwitz_matrix(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    top = float(np.linalg.eigvals(g).real.max()) if n else 0.0
    return g - (top + 0.2) * np.eye(n)


def _numpy_schur_matrix(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = float(np.abs(np.linalg.eigvals(g)).max()) if n else 0.0
    if rho == 0.0:
        return g
    return g * (0.8 * rng.uniform(0.3, 1.0) / rho)


def _triu_blaschke_blocks(spec):
    poles = np.array(spec.poles[::-1], dtype=complex)
    g = np.sqrt(-2.0 * poles.real)
    a = np.diag(poles) - np.triu(np.outer(g, g), 1)
    return a, -g[:, None], spec.rho * g[None, :], np.array([[spec.rho]])


def _toeplitz_zeta_power_blocks(n):
    a = -np.eye(n, dtype=complex)
    if n > 1:
        offset = np.arange(n) - np.arange(n)[:, None]
        a += np.triu(np.where(offset % 2, 2.0, -2.0), 1)
    b = np.sqrt(2.0) * np.array([[(-1.0) ** (n - 1 - i)] for i in range(n)], dtype=complex).reshape(n, 1)
    c = np.sqrt(2.0) * np.array([[(-1.0) ** j for j in range(n)]], dtype=complex)
    return a, b, c, np.array([[(-1.0) ** n]], dtype=complex)


def test_random_unitary_is_numpys_qr_route():
    rng, clone = _clone(4107)
    for k in range(450):
        assert _same_bits(random_unitary(rng, k % 9), _numpy_unitary(clone, k % 9))
    for m in (40, 130):  # past LAPACK's blocking crossover, where the workspace decides the bits
        assert _same_bits(random_unitary(rng, m), _numpy_unitary(clone, m))
    assert _same_stream(rng, clone)


@pytest.mark.parametrize("generator, plain", [
    (random_hurwitz_matrix, _numpy_hurwitz_matrix),
    (random_schur_matrix, _numpy_schur_matrix),
])
def test_matrix_generators_are_numpys_eigvals_route(generator, plain):
    rng, clone = _clone(4108)
    for n in list(range(13)) * 20 + [80, 160]:  # 160 needs zgeev's full workspace
        assert _same_bits(generator(rng, n), plain(clone, n))
    assert _same_stream(rng, clone)


def test_blaschke_blocks_are_the_triu_formula():
    rng = np.random.default_rng(4109)
    specs = [random_blaschke_spec(rng, degree) for degree in range(41)]
    # Signed zeros in rho and in a pole, a purely imaginary rho, and poles next
    # to the axis, where g is subnormal or close to it.
    specs += [BlaschkeSpec(complex(-1.0, -0.0), (complex(-1.0, -0.0), -2 + 1j)),
              BlaschkeSpec(1j, (-1e-300, -1e-320, -3.0))]
    for spec in specs:
        got = _blaschke_blocks(spec)
        want = _triu_blaschke_blocks(spec)
        assert _same_bits(got[0], want[0]) and _same_bits(got[2], want[2]) and _same_bits(got[3], want[3])
        assert _same_bits(got[1], want[1].astype(complex))  # b as the realization stores it


def test_zeta_power_blocks_are_the_toeplitz_formula():
    for n in range(131):
        assert all(map(_same_bits, _zeta_power_blocks(n), _toeplitz_zeta_power_blocks(n)))


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
