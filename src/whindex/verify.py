"""Seeded property battery covering every module's invariants.

Each family draws its cases from an independent random stream derived from
one seed, checks a single invariant, and reports the first failing case in
a JSON-serializable form for replay.  The battery is what the ``verify``
command runs; the test suite calls into it as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cayley import c2d, d2c
from .core import (
    Realization,
    SymbolPair,
    _eigvals,
    direct_sum,
    cascade,
    eval_transfer,
    opnorm,
    unitary_twist,
    validate_stable_dissipative,
    validate_stable_unitary,
)
from .equations import (
    eigenvalue_one_multiplicity,
    solve_stein,
    solve_sylvester,
    unit_eigenvectors,
    zeta_of_minus,
)
from .errors import EvaluationError
from .indices import full_profile
from .oracle import roots_stable, schur_cohen_stable, winding_number
from .realizations import (
    Polynomial,
    blaschke_eval,
    blaschke_eval_at_minus,
    blaschke_of_minus_A,
    blaschke_realization,
    defect_rank,
    diagonal_symbol_factors,
    poly_of_matrix,
    recover_blaschke_pointwise,
)
from .sampling import (
    random_blaschke_spec,
    random_hurwitz_matrix,
    random_mimo_realization,
    random_polynomial_off_axis,
    random_rank_one_dissipative,
    random_schur_matrix,
    random_stable_polynomial,
    random_symbol_pair,
    random_unitary,
)
from .serialize import blaschke_spec_to_json, matrix_to_json, realization_to_json


@dataclass(frozen=True)
class FamilyResult:
    name: str
    cases: int
    failure: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.failure is None


def _max_entry_diff(r1: Realization, r2: Realization) -> float:
    out = 0.0
    for m1, m2 in ((r1.a, r2.a), (r1.b, r2.b), (r1.c, r2.c), (r1.d, r2.d)):
        if m1.shape != m2.shape:
            return float("inf")
        if m1.size:
            out = max(out, float(np.max(np.abs(m1 - m2))))
    return out


def _sorted_eigs(values: np.ndarray) -> np.ndarray:
    return np.sort_complex(values)


def _builder_validity(rng, cases):
    for k in range(cases):
        spec = random_blaschke_spec(rng, int(rng.integers(1, 9)))
        report = validate_stable_dissipative(blaschke_realization(spec))
        if not report.verdict:
            return {"case": k, "max_residual": report.residual,
                    "spec": blaschke_spec_to_json(spec)}
        if k % 2:
            r = random_mimo_realization(rng, int(rng.integers(1, 4)))
            report = validate_stable_dissipative(r)
            if not report.verdict:
                return {"case": k, "max_residual": report.residual,
                        "realization": realization_to_json(r)}
    return None


def _boundary_unitarity(rng, cases):
    for k in range(cases):
        r = random_mimo_realization(rng, int(rng.integers(1, 4)))
        eye = np.eye(r.output_dim)
        for _ in range(5):
            omega = float(rng.uniform(-20.0, 20.0))
            value = eval_transfer(r, 1j * omega)
            residual = opnorm(value @ value.conj().T - eye)
            if residual >= 1e-8:
                return {
                    "case": k,
                    "omega": omega,
                    "residual": residual,
                    "realization": realization_to_json(r),
                }
    return None


def _composition_transfer(rng, cases):
    for k in range(cases):
        m = int(rng.integers(1, 3))
        x = random_mimo_realization(rng, m, 2)
        y = random_mimo_realization(rng, m, 2)
        s = complex(rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0))
        summed = eval_transfer(direct_sum(x, y), s)
        expected = np.zeros((2 * m, 2 * m), dtype=complex)
        expected[:m, :m] = eval_transfer(x, s)
        expected[m:, m:] = eval_transfer(y, s)
        if opnorm(summed - expected) > 1e-10:
            return {"case": k, "what": "direct_sum", "point": [s.real, s.imag]}
        product = cascade(x, y)
        got = eval_transfer(product, s)
        want = eval_transfer(x, s) @ eval_transfer(y, s)
        if opnorm(got - want) > 1e-10:
            return {"case": k, "what": "cascade_transfer", "point": [s.real, s.imag]}
        if not validate_stable_dissipative(product).verdict:
            return {"case": k, "what": "cascade_validity"}
    return None


def _equation_residuals(rng, cases):
    for k in range(cases):
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        c = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        a = random_hurwitz_matrix(rng, p)
        b = random_hurwitz_matrix(rng, q)
        sol = solve_sylvester(a, b, c)
        x = opnorm(sol.x)
        bound = 1e-10 * (1.0 + opnorm(a) * x + opnorm(b) * x + opnorm(c))
        if sol.residual > bound:
            return {"case": k, "what": "sylvester", "residual": sol.residual, "bound": bound}
        ad = random_schur_matrix(rng, p)
        bd = random_schur_matrix(rng, q)
        sol = solve_stein(ad, bd, c)
        x = opnorm(sol.x)
        bound = 1e-10 * (1.0 + opnorm(ad) * x + opnorm(bd) * x + opnorm(c))
        if sol.residual > bound:
            return {"case": k, "what": "stein", "residual": sol.residual, "bound": bound}
    return None


def _disk_map(rng, cases):
    for k in range(cases):
        n = int(rng.integers(1, 13))
        a = random_hurwitz_matrix(rng, n)
        back = _eigvals(zeta_of_minus(a))
        radius = float(np.abs(back).max())
        if radius >= 1.0:
            return {"case": k, "what": "spectral_radius", "radius": radius}
        recovered = (1.0 - back) / (1.0 + back)
        target = _eigvals(-a)
        diff = np.max(np.abs(_sorted_eigs(recovered) - _sorted_eigs(target)))
        if diff > 1e-8:
            return {"case": k, "what": "eigenvalue_round_trip", "diff": float(diff)}
    return None


def _multiplicity_rank(rng, cases):
    for k in range(cases):
        n = int(rng.integers(1, 9))
        ones = int(rng.integers(0, n + 1))
        evals = np.concatenate([np.ones(ones), rng.uniform(0.0, 0.9, n - ones)])
        u = random_unitary(rng, n)
        h = (u * evals) @ u.conj().T
        mult, _ = eigenvalue_one_multiplicity(h, 1e-7)
        rank = int(np.linalg.matrix_rank(np.eye(n) - h, tol=1e-7))
        if mult + rank != n:
            return {"case": k, "ones": ones, "multiplicity": mult, "rank": rank, "n": n}
    return None


def _defect_rank_law(rng, cases):
    """rank(I - m*m) = min(deg p, n) for m = psharp(-a) p(-a)^{-1}, a rank-one dissipative of size n.

    A defect eigenvalue 1 - sigma^2 counts as zero below 30 n eps kappa_2(p(-a)),
    the error of the computed m.  Over seeds DEFAULT_SEED + 0..139 the exact zeros
    reach 1.25 n eps kappa and the others stay above 695 n eps kappa.
    """
    for k in range(cases):
        n = int(rng.integers(1, 7))
        a, _ = random_rank_one_dissipative(rng, n)
        degree = int(rng.integers(0, 9))
        spec = random_blaschke_spec(rng, degree)
        p = Polynomial.from_roots(spec.poles)
        value = blaschke_of_minus_A(p, a)
        norm = opnorm(value)
        if norm > 1.0 + 1e-10:
            return {"case": k, "what": "contraction", "norm": norm, "degree": degree, "dim": n}
        cut = 30.0 * n * np.finfo(float).eps * np.linalg.cond(poly_of_matrix(p, -a))
        rank = defect_rank(value, cut)
        if rank != min(degree, n):
            return {
                "case": k,
                "what": "defect_rank",
                "rank": rank,
                "degree": degree,
                "dim": n,
                "spec": blaschke_spec_to_json(spec),
            }
        # The contraction bound holds for any stable dissipative state map,
        # not only rank-one ones.
        mimo = random_mimo_realization(rng, 2, 2)
        value = blaschke_of_minus_A(random_stable_polynomial(rng, int(rng.integers(1, 4))), mimo.a)
        if opnorm(value) > 1.0 + 1e-10:
            return {"case": k, "what": "mimo_contraction", "norm": opnorm(value)}
    return None


def _recovery_law(rng, cases):
    for k in range(cases):
        n = int(rng.integers(2, 7))
        a, c = random_rank_one_dissipative(rng, n)
        degree = int(rng.integers(0, n))
        phi = random_blaschke_spec(rng, degree)
        evaluated = blaschke_eval_at_minus(phi, a.conj().T)
        basis = unit_eigenvectors(evaluated.conj().T @ evaluated, 1e-7)
        if basis.shape[1] == 0:
            return {"case": k, "what": "missing_unit_vector", "degree": degree, "dim": n}
        x = basis[:, 0]
        checked = 0
        while checked < 10:
            s = complex(rng.uniform(0.2, 2.5), rng.uniform(-2.5, 2.5))
            try:
                got = recover_blaschke_pointwise(a, c, phi, x, s)
            except EvaluationError:
                continue
            expected = blaschke_eval(phi, s)
            if abs(got - expected) > 1e-8:
                return {
                    "case": k,
                    "point": [s.real, s.imag],
                    "got": [got.real, got.imag],
                    "expected": [expected.real, expected.imag],
                    "spec": blaschke_spec_to_json(phi),
                }
            checked += 1
    return None


def _poly_multiplicativity(rng, cases):
    for k in range(cases):
        p = random_stable_polynomial(rng, int(rng.integers(0, 4)))
        q = random_stable_polynomial(rng, int(rng.integers(0, 4)))
        n = int(rng.integers(1, 5))
        a, _ = random_rank_one_dissipative(rng, n)
        lhs = poly_of_matrix(p.multiply(q), -a)
        rhs = poly_of_matrix(p, -a) @ poly_of_matrix(q, -a)
        if opnorm(lhs - rhs) > 1e-10 * (1.0 + opnorm(lhs)):
            return {"case": k, "diff": opnorm(lhs - rhs), "dim": n}
    return None


def _cayley_round_trip(rng, cases):
    for k in range(cases):
        r = random_mimo_realization(rng, int(rng.integers(1, 4)))
        diff = _max_entry_diff(d2c(c2d(r)), r)
        if diff > 1e-10:
            return {"case": k, "what": "continuous_start", "diff": diff}
        rd = c2d(random_mimo_realization(rng, int(rng.integers(1, 4))))
        diff = _max_entry_diff(c2d(d2c(rd)), rd)
        if diff > 1e-10:
            return {"case": k, "what": "discrete_start", "diff": diff}
    return None


def _cayley_property_transfer(rng, cases):
    for k in range(cases):
        r = random_mimo_realization(rng, int(rng.integers(1, 4)))
        rd = c2d(r)
        if not validate_stable_unitary(rd).verdict:
            return {"case": k, "what": "unitary_verdict"}
        if r.state_dim:
            mapped = _eigvals(r.a)
            mapped = (mapped + 1.0) / (1.0 - mapped)
            diff = np.max(np.abs(_sorted_eigs(_eigvals(rd.a)) - _sorted_eigs(mapped)))
            if diff > 1e-8:
                return {"case": k, "what": "spectrum_map", "diff": float(diff)}
            eye = np.eye(r.state_dim)
            if float(np.max(np.abs(rd.a - np.linalg.solve(eye - r.a, eye + r.a)))) > 1e-12:
                return {"case": k, "what": "state_map_identity"}
        for _ in range(3):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0))
            z = (1.0 - s) / (1.0 + s)
            diff = opnorm(eval_transfer(rd, z) - eval_transfer(r, s))
            if diff > 1e-10:
                return {"case": k, "what": "transfer_identity", "diff": diff}
        # Verdicts transfer in both directions; breaking the coupling on one
        # side must break it on the other.
        broken_b = r.b.copy()
        if broken_b.size:
            broken_b[0, 0] += 0.1
        broken = Realization(r.a, broken_b, r.c, r.d, r.flavor)
        if r.state_dim and validate_stable_unitary(c2d(broken)).verdict:
            return {"case": k, "what": "verdict_equivalence"}
    return None


def _diagonal_ground_truth(rng, cases):
    for k in range(cases):
        length = int(rng.integers(1, 7))
        powers = [int(x) for x in rng.integers(-6, 7, length)]
        profile = full_profile(diagonal_symbol_factors(powers))
        if list(profile.all_indices) != sorted(powers):
            return {
                "case": k,
                "powers": powers,
                "got": list(profile.all_indices),
            }
    return None


def _scalar_pair(rng, max_degree=6):
    f = int(rng.integers(0, max_degree + 1))
    g = int(rng.integers(0, max_degree + 1))
    phi = random_blaschke_spec(rng, f)
    m = random_blaschke_spec(rng, g)
    return phi, m


def _scalar_ground_truth(rng, cases):
    for k in range(cases):
        phi, m = _scalar_pair(rng)
        pair = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
        profile = full_profile(pair)
        expected = [phi.degree - m.degree]
        if list(profile.all_indices) != expected:
            return {
                "case": k,
                "phi": blaschke_spec_to_json(phi),
                "m": blaschke_spec_to_json(m),
                "got": list(profile.all_indices),
                "expected": expected,
            }
    return None


def _scalar_q_formula(rng, cases):
    for k in range(cases):
        phi, m = _scalar_pair(rng, max_degree=4)
        w = blaschke_realization(m)
        pair = SymbolPair(blaschke_realization(phi), w)
        omega = full_profile(pair).omega
        evaluated = blaschke_eval_at_minus(phi, w.a.conj().T)
        expected = evaluated.conj().T @ evaluated
        q = np.eye(w.state_dim) - omega.conj().T @ omega
        diff = opnorm(q - expected)
        if diff > 1e-8:
            return {
                "case": k,
                "diff": diff,
                "phi": blaschke_spec_to_json(phi),
                "m": blaschke_spec_to_json(m),
            }
    return None


def _direct_sum_additivity(rng, cases):
    for k in range(cases):
        pair1 = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        pair2 = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        merged = SymbolPair(direct_sum(pair1.v, pair2.v), direct_sum(pair1.w, pair2.w))
        got = list(full_profile(merged).all_indices)
        expected = sorted(
            list(full_profile(pair1).all_indices) + list(full_profile(pair2).all_indices)
        )
        if got != expected:
            return {"case": k, "got": got, "expected": expected}
    return None


def _twist_invariance(rng, cases):
    for k in range(cases):
        pair = random_symbol_pair(rng, max_m=3, max_block_degree=2)
        base = list(full_profile(pair).all_indices)
        m = pair.output_dim
        variants = {
            "left_twist_v": SymbolPair(
                unitary_twist(pair.v, random_unitary(rng, m), "left"), pair.w
            ),
            "left_twist_w": SymbolPair(
                pair.v, unitary_twist(pair.w, random_unitary(rng, m), "left")
            ),
        }
        shared = random_unitary(rng, m)
        variants["right_twist_both"] = SymbolPair(
            unitary_twist(pair.v, shared, "right"),
            unitary_twist(pair.w, shared, "right"),
        )
        for label, twisted in variants.items():
            got = list(full_profile(twisted).all_indices)
            if got != base:
                return {"case": k, "variant": label, "got": got, "expected": base}
    return None


def _dual_consistency(rng, cases):
    for k in range(cases):
        pair = random_symbol_pair(rng, max_m=3, max_block_degree=2)
        profile = full_profile(pair)
        # The swapped pair solves the adjoint equation on its own.
        dual = full_profile(pair.swapped())
        mismatch = opnorm(dual.omega - profile.omega.conj().T)
        if mismatch > 1e-10 * (1.0 + opnorm(profile.omega)):
            return {"case": k, "what": "omega_duality", "mismatch": mismatch}
        if profile.positive_kernel_dims != dual.negative_kernel_dims:
            return {"case": k, "what": "positive_chain", "got": list(profile.positive_kernel_dims),
                    "expected": list(dual.negative_kernel_dims)}
    return None


def _discrete_equivalence(rng, cases):
    for k in range(cases):
        pair = random_symbol_pair(rng, max_m=2, max_block_degree=2)
        continuous = full_profile(pair)
        discrete = full_profile(SymbolPair(c2d(pair.v), c2d(pair.w)))
        diff = opnorm(discrete.omega - continuous.omega)
        if diff > 1e-8:
            return {"case": k, "what": "omega_mismatch", "diff": diff}
        if discrete.negative != continuous.negative or discrete.mu != continuous.mu:
            return {
                "case": k,
                "what": "index_mismatch",
                "continuous": list(continuous.negative),
                "discrete": list(discrete.negative),
            }
    return None


def _stability_equivalence(rng, cases):
    for k in range(cases):
        p = random_polynomial_off_axis(rng, int(rng.integers(1, 9)))
        by_form, lambda_min = schur_cohen_stable(p)
        by_roots = roots_stable(p)
        if by_form != by_roots:
            return {
                "case": k,
                "coeffs": [[z.real, z.imag] for z in p.coeffs],
                "quadratic_form": by_form,
                "roots": by_roots,
                "lambda_min": lambda_min,
            }
    return None


def _winding_law(rng, cases):
    for k in range(cases):
        phi, m = _scalar_pair(rng)
        got = winding_number(phi, m)
        if got != phi.degree - m.degree:
            return {
                "case": k,
                "got": got,
                "expected": phi.degree - m.degree,
                "phi": blaschke_spec_to_json(phi),
                "m": blaschke_spec_to_json(m),
            }
    return None


def _pipeline_agreement(rng, cases):
    for k in range(cases):
        phi, m = _scalar_pair(rng, max_degree=4)
        pair = SymbolPair(blaschke_realization(phi), blaschke_realization(m))
        total = sum(full_profile(pair).all_indices)
        wind = winding_number(phi, m)
        if total != wind:
            return {"case": k, "pipeline_sum": total, "winding": wind}
    return None


#: Diagonal powers of the canonical worked example and its expected profile.
GOLDEN_POWERS = (-4, -2, 0, 3, 5)
GOLDEN_EXPECTED = {
    "kernel_dims": (6, 4, 2, 1, 0),
    "mu": (2, 2, 1, 1),
    "negative": (4, 2),
    "positive": (5, 3),
    "all_indices": (-4, -2, 0, 3, 5),
}


def _golden_example(rng, cases):
    del rng, cases
    pair = diagonal_symbol_factors(GOLDEN_POWERS)
    profile = full_profile(pair)
    checks = {
        "omega_norm": opnorm(profile.omega) < 1e-10,
        "kernel_dims": profile.negative_kernel_dims == GOLDEN_EXPECTED["kernel_dims"],
        "mu": profile.mu == GOLDEN_EXPECTED["mu"],
        "negative": profile.negative == GOLDEN_EXPECTED["negative"],
        "positive": profile.positive == GOLDEN_EXPECTED["positive"],
        "all_indices": profile.all_indices == GOLDEN_EXPECTED["all_indices"],
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        return {
            "powers": list(GOLDEN_POWERS),
            "failed_checks": failed,
            "got": {
                "kernel_dims": list(profile.negative_kernel_dims),
                "mu": list(profile.mu),
                "negative": list(profile.negative),
                "positive": list(profile.positive),
                "all_indices": list(profile.all_indices),
                "omega": matrix_to_json(profile.omega),
            },
        }
    return None


Family = Callable[[np.random.Generator, int], Optional[dict]]

FAMILIES: list[tuple[str, int, Family]] = [
    ("golden-diagonal-example", 1, _golden_example),
    ("core-builder-validity", 100, _builder_validity),
    ("core-boundary-unitarity", 50, _boundary_unitarity),
    ("core-composition-transfer", 50, _composition_transfer),
    ("equations-residuals", 200, _equation_residuals),
    ("equations-disk-map", 100, _disk_map),
    ("equations-multiplicity-rank", 100, _multiplicity_rank),
    ("realizations-defect-rank-law", 50, _defect_rank_law),
    ("realizations-recovery-law", 20, _recovery_law),
    ("realizations-poly-multiplicativity", 50, _poly_multiplicativity),
    ("cayley-round-trip", 50, _cayley_round_trip),
    ("cayley-property-transfer", 50, _cayley_property_transfer),
    ("indices-diagonal-ground-truth", 200, _diagonal_ground_truth),
    ("indices-scalar-ground-truth", 100, _scalar_ground_truth),
    ("indices-scalar-q-formula", 50, _scalar_q_formula),
    ("indices-direct-sum-additivity", 50, _direct_sum_additivity),
    ("indices-twist-invariance", 50, _twist_invariance),
    ("indices-dual-consistency", 50, _dual_consistency),
    ("indices-discrete-equivalence", 50, _discrete_equivalence),
    ("oracle-stability-equivalence", 500, _stability_equivalence),
    ("oracle-winding-law", 100, _winding_law),
    ("oracle-pipeline-agreement", 50, _pipeline_agreement),
]

DEFAULT_SEED = 20260809


def run_battery(seed: int = DEFAULT_SEED, cases: Optional[int] = None) -> list[FamilyResult]:
    """Run every property family; deterministic for a fixed seed and case count."""
    results = []
    for stream, (name, default_cases, fn) in enumerate(FAMILIES):
        count = default_cases if cases is None else max(1, int(cases))
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, stream])
        try:
            failure = fn(rng, count)
        except Exception as exc:  # a crash is a failing case too
            failure = {"exception": repr(exc)}
        results.append(FamilyResult(name, count, failure))
    return results
