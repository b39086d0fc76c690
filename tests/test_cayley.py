import math

import numpy as np
import pytest

from whindex import (
    CONTINUOUS,
    DISCRETE,
    EvaluationError,
    Realization,
    StructureError,
    c2d,
    d2c,
    eval_transfer,
    validate_stable_dissipative,
    validate_stable_unitary,
    zeta_of_minus,
    zeta_power_realization,
)
from whindex.core import opnorm
from whindex.equations import CONDITION_LIMIT
from whindex.sampling import random_mimo_realization

SQRT2 = math.sqrt(2.0)

#: Distances of the near-pole eigenvalue from the pole in the refusal sweep, 1e-6 down to 1e-14.
GAPS = [10.0 ** -e for e in range(6, 15)]


def _max_entry_diff(r1, r2):
    return max(
        float(np.max(np.abs(m1 - m2))) if m1.size else 0.0
        for m1, m2 in ((r1.a, r2.a), (r1.b, r2.b), (r1.c, r2.c), (r1.d, r2.d))
    )


def test_d2c_of_the_shift():
    shift = Realization([[0.0]], [[1.0]], [[1.0]], [[0.0]], DISCRETE)
    r = d2c(shift)
    assert abs(r.a[0, 0] + 1.0) < 1e-15
    assert abs(r.b[0, 0] - SQRT2) < 1e-15
    assert abs(r.c[0, 0] - SQRT2) < 1e-15
    assert abs(r.d[0, 0] + 1.0) < 1e-15


def test_c2d_of_the_zeta_block():
    rd = c2d(zeta_power_realization(1))
    assert abs(rd.a[0, 0]) < 1e-15
    assert abs(rd.b[0, 0] - 1.0) < 1e-14
    assert abs(rd.c[0, 0] - 1.0) < 1e-14
    assert abs(rd.d[0, 0]) < 1e-14


def test_c2d_power_blocks_become_shifts():
    for n in (1, 2, 4, 6):
        rd = c2d(zeta_power_realization(n))
        assert opnorm(rd.a - np.eye(n, k=1)) < 1e-12


def test_round_trips_are_identities():
    rng = np.random.default_rng(31)
    for _ in range(15):
        r = random_mimo_realization(rng, int(rng.integers(1, 4)))
        assert _max_entry_diff(d2c(c2d(r)), r) < 1e-10
        rd = c2d(random_mimo_realization(rng, int(rng.integers(1, 4))))
        assert _max_entry_diff(c2d(d2c(rd)), rd) < 1e-10


def test_spectrum_map():
    rng = np.random.default_rng(32)
    for _ in range(15):
        r = random_mimo_realization(rng, 2)
        if r.state_dim == 0:
            continue
        source = np.linalg.eigvals(r.a)
        expected = np.sort_complex((source + 1.0) / (1.0 - source))
        got = np.sort_complex(np.linalg.eigvals(c2d(r).a))
        assert np.abs(got - expected).max() < 1e-8


def test_c2d_state_map_equals_disk_map():
    rng = np.random.default_rng(33)
    for _ in range(15):
        r = random_mimo_realization(rng, 2)
        if r.state_dim == 0:
            continue
        eye = np.eye(r.state_dim)
        dense = np.linalg.solve(eye - r.a, eye + r.a)
        assert float(np.max(np.abs(c2d(r).a - dense))) < 1e-12
        assert float(np.max(np.abs(c2d(r).a - zeta_of_minus(r.a)))) < 1e-12


def test_property_transfer_both_directions():
    rng = np.random.default_rng(34)
    for _ in range(50):
        r = random_mimo_realization(rng, int(rng.integers(1, 4)))
        assert validate_stable_unitary(c2d(r)).verdict
    # Breaking the coupling on the continuous side must break unitarity.
    r = random_mimo_realization(rng, 2, 3)
    assert r.state_dim > 0
    b = r.b.copy()
    b[0, 0] += 0.25
    broken = Realization(r.a, b, r.c, r.d)
    assert not validate_stable_dissipative(broken).verdict
    assert not validate_stable_unitary(c2d(broken)).verdict


def test_transfer_identity_under_substitution():
    rng = np.random.default_rng(35)
    for _ in range(20):
        r = random_mimo_realization(rng, int(rng.integers(1, 3)))
        rd = c2d(r)
        s = complex(rng.uniform(0.05, 2.5), rng.uniform(-2.5, 2.5))
        z = (1.0 - s) / (1.0 + s)
        assert opnorm(eval_transfer(rd, z) - eval_transfer(r, s)) < 1e-10


def test_flavor_guards():
    with pytest.raises(StructureError):
        c2d(c2d(zeta_power_realization(1)))
    with pytest.raises(StructureError):
        d2c(zeta_power_realization(1))


def _with_eigenvalue(rng, pole, gap, flavor):
    """Realization whose state matrix has one eigenvalue ``gap`` away from ``pole``.

    The other eigenvalues are stable for the flavor, and the triangular
    coupling is scaled to make the matrix more or less non-normal.  b, c and
    d are random: the maps do not validate, so only the spectrum matters.
    """
    n = int(rng.integers(1, 13))
    if flavor == DISCRETE:
        eigenvalues = rng.uniform(0.1, 0.99, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    else:
        eigenvalues = -rng.uniform(0.1, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    eigenvalues[0] = pole + gap * np.exp(2j * np.pi * rng.uniform())
    coupling = (0.0, 0.3, 1.0, 3.0)[rng.integers(4)]
    t = np.diag(eigenvalues) + coupling * np.triu(rng.standard_normal((n, n)), 1)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = int(rng.integers(1, 4))
    return Realization(
        u @ t @ u.conj().T, rng.standard_normal((n, m)), rng.standard_normal((m, n)),
        rng.standard_normal((m, m)), flavor,
    )


def test_maps_refuse_an_eigenvalue_at_their_pole():
    cases = ((c2d, 1.0, CONTINUOUS, "I - a"), (d2c, -1.0, DISCRETE, "I + a"))
    for transform, pole, flavor, shift in cases:
        a = np.diag([pole, 0.5 * pole - 0.25])
        r = Realization(a, [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]], flavor)
        with pytest.raises(EvaluationError) as info:
            transform(r)
        assert shift in str(info.value) and f"pole {pole:+.0f}" in str(info.value)


@pytest.mark.parametrize("transform,pole,flavor", [(c2d, 1.0, CONTINUOUS), (d2c, -1.0, DISCRETE)])
def test_pole_refusal_covers_the_dense_condition_rule(transform, pole, flavor):
    # The former rule refused when cond(I - pole^{-1} a) exceeded CONDITION_LIMIT.
    rng = np.random.default_rng(36 if pole > 0 else 37)
    outcomes = {(True, True): 0, (False, False): 0, (False, True): 0}
    for gap in GAPS:
        for _ in range(30):
            r = _with_eigenvalue(rng, pole, gap, flavor)
            old = np.linalg.cond(np.eye(r.state_dim) - r.a / pole) > CONDITION_LIMIT
            try:
                transform(r)
                new = False
            except EvaluationError:
                new = True
            assert new or not old, "refused by the dense condition rule only"
            outcomes[(old, new)] += 1
    # The sweep straddles the limit: some cases are refused by both rules, some by neither.
    assert outcomes[(True, True)] > 0 and outcomes[(False, False)] > 0
