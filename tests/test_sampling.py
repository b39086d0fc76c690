"""The samplers build each instance by a shorter route than the one they stand for.

Each test here keeps the plain route, draws from a clone of the same Generator
and requires the same numbers drawn and the same instance bit for bit, signed
zeros included, since the battery's cases and verdicts rest on the streams.
The kernels the samplers and the battery's checks share (roots, eigenvalues,
Blaschke and transfer-function values) are pinned to numpy's route the same way.
"""

import copy

import numpy as np
import pytest

from whindex.cayley import c2d
from whindex.core import (
    CONTINUOUS,
    DISCRETE,
    Realization,
    _eigvals,
    constant_realization,
    direct_sum,
    eval_transfer,
    unitary_twist,
)
from whindex.errors import EvaluationError
from whindex.oracle import schur_cohen_stable
from whindex.realizations import (
    BlaschkeSpec,
    Polynomial,
    _blaschke_blocks,
    _roots,
    _zeta_power_blocks,
    blaschke_eval,
    blaschke_realization,
    diagonal_symbol_factors,
    zeta_power_realization,
)
from whindex.sampling import (
    random_blaschke_spec,
    random_hurwitz_matrix,
    random_mimo_realization,
    random_polynomial,
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


def _numpy_polynomial_off_axis(rng, degree):
    while True:
        p = random_polynomial(rng, degree)
        roots = np.roots(np.asarray(p.coeffs[::-1]))
        if np.all(np.abs(roots.real) > 1e-6):
            return p


def _per_pole_blaschke_eval(spec, s):
    s = np.asarray(s, dtype=complex)
    out = np.full(s.shape, spec.rho, dtype=complex)
    for alpha in spec.poles:
        out *= (s + np.conj(alpha)) / (s - alpha)
    return complex(out) if out.shape == () else out


def _numpy_eval_transfer(r, s):
    if r.state_dim == 0:
        return r.d.copy()
    eye = np.eye(r.state_dim)
    if r.flavor == CONTINUOUS:
        return r.d + r.c @ np.linalg.solve(s * eye - r.a, r.b)
    return r.d + s * (r.c @ np.linalg.solve(eye - s * r.a, r.b))


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


def test_eigvals_is_numpys_route():
    rng = np.random.default_rng(4110)
    for n in list(range(13)) * 10 + [80, 160]:  # 0 x 0 included
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert _same_bits(_eigvals(g), np.linalg.eigvals(g))
        g.setflags(write=False)  # as a realization's arrays, and in Fortran order
        assert _same_bits(_eigvals(g.T), np.linalg.eigvals(g.T))


def test_roots_are_numpys_companion_route():
    rng = np.random.default_rng(4111)
    polynomials = []
    for degree in list(range(1, 13)) * 20 + [40] * 10:
        coeffs = random_polynomial(rng, degree).coeffs
        zeros = int(rng.integers(0, degree + 1))  # zero low-order coefficients, up to all but the leading one
        polynomials.append(Polynomial((0j,) * zeros + coeffs[zeros:]))
    # A signed zero constant term, a monomial (float roots, as np.roots gives) and a constant.
    polynomials += [Polynomial((complex(-0.0, -0.0), 2.0, 1j)), Polynomial((0, 0, 0, 2j)), Polynomial((3.0,))]
    for p in polynomials:
        assert _same_bits(_roots(p), np.roots(np.asarray(p.coeffs[::-1]))), p


def test_random_polynomial_off_axis_is_numpys_roots_route():
    rng, clone = _clone(4112)
    for degree in list(range(1, 9)) * 25:
        assert random_polynomial_off_axis(rng, degree).coeffs == _numpy_polynomial_off_axis(clone, degree).coeffs
    assert _same_stream(rng, clone)


def test_blaschke_eval_is_the_per_pole_product():
    rng = np.random.default_rng(4113)
    axis = 1j * np.tan(np.linspace(np.pi, -np.pi, 4097) / 2.0)
    for degree in list(range(9)) * 5:  # degree 0 included
        spec = random_blaschke_spec(rng, degree)
        for s in (axis, axis[:12].reshape(3, 4), [0.5, 1j]):
            assert _same_bits(blaschke_eval(spec, s), _per_pole_blaschke_eval(spec, s))
        s = complex(rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0))
        got = blaschke_eval(spec, s)
        assert type(got) is complex
        assert np.array(got).tobytes() == np.array(_per_pole_blaschke_eval(spec, s)).tobytes()


def test_eval_transfer_is_numpys_solve_route():
    rng = np.random.default_rng(4114)
    for k in range(300):
        r = random_mimo_realization(rng, k % 4)  # m = 0 included
        for flavored in (r, c2d(r)):
            s = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            assert _same_bits(eval_transfer(flavored, s), _numpy_eval_transfer(flavored, s))


@pytest.mark.parametrize("r, s", [
    (Realization(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)), [[1.0]]), -2.0),
    (Realization(np.diag([0.5, 0.25]), np.ones((2, 1)), np.ones((1, 2)), [[1.0]], DISCRETE), 2.0),
    (Realization(np.diag([-1.0, -2.0]), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0))), -1.0),
])
def test_eval_transfer_refuses_a_pole_as_numpys_solve_does(r, s):
    with pytest.raises(np.linalg.LinAlgError):
        _numpy_eval_transfer(r, s)
    with pytest.raises(EvaluationError, match=r"transfer function evaluated at a pole \(s = "):
        eval_transfer(r, s)


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
