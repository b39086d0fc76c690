"""Command-line front end.

Subcommands:

* ``indices``   -- compute the full partial-index profile of a problem file
* ``cayley``    -- convert a realization between continuous and discrete time
* ``stability`` -- run the two polynomial stability tests side by side
* ``verify``    -- run the seeded property battery over all modules
* ``example``   -- emit the canonical worked example and its expected report

Exit codes: 0 success, 2 malformed input or failed input validation,
3 computation failure, 4 stability-test disagreement, 5 failed verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cayley import c2d, d2c
from .core import (
    SymbolPair,
    validate_stable_dissipative,
    validate_stable_unitary,
)
from .equations import CLUSTER_TOL
from .errors import (
    ContractionViolationError,
    EvaluationError,
    InputValidationError,
    PipelineError,
    PreconditionError,
    ResolutionError,
    StructureError,
    UnsolvableEquationError,
)
from .indices import IndexProfile, full_profile
from .oracle import roots_stable, schur_cohen_stable
from .realizations import Polynomial, blaschke_realization, diagonal_symbol_factors
from .serialize import (
    blaschke_spec_from_json,
    canonical_json,
    realization_from_json,
    realization_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_DISAGREE = 4
EXIT_VERIFY = 5

_COMPUTE_ERRORS = (
    EvaluationError,
    UnsolvableEquationError,
    ContractionViolationError,
    PipelineError,
    PreconditionError,
    ResolutionError,
)


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path} is not valid JSON: {exc}") from exc


def load_problem_pair(payload) -> SymbolPair:
    """Build the symbol pair described by a problem file payload."""
    if not isinstance(payload, dict):
        raise StructureError("problem: expected a JSON object")
    kind = payload.get("kind")
    if kind == "diagonal_powers":
        powers = payload.get("powers")
        if not isinstance(powers, list) or not powers:
            raise StructureError("problem.powers: expected a nonempty array of integers")
        for i, p in enumerate(powers):
            if not isinstance(p, int) or isinstance(p, bool):
                raise StructureError(f"problem.powers[{i}]: expected an integer, got {p!r}")
        return diagonal_symbol_factors(powers)
    if kind == "scalar_blaschke_pair":
        phi = blaschke_spec_from_json(payload.get("phi"), "problem.phi")
        m = blaschke_spec_from_json(payload.get("m"), "problem.m")
        return SymbolPair(blaschke_realization(phi), blaschke_realization(m))
    if kind == "realization_pair":
        v = realization_from_json(payload.get("v"), "problem.v")
        w = realization_from_json(payload.get("w"), "problem.w")
        return SymbolPair(v, w)
    raise StructureError(
        f"problem.kind: expected one of diagonal_powers, scalar_blaschke_pair, "
        f"realization_pair; got {kind!r}"
    )


def build_report(profile: IndexProfile, tol: float) -> dict:
    """Flatten an index profile into the serializable report shape."""
    neg, pos = profile.negative_trace, profile.positive_trace
    return {
        "all_indices": list(profile.all_indices),
        "negative_indices": [-k for k in profile.negative],
        "positive_indices": sorted(profile.positive),
        "zeros": profile.zeros,
        "mu": list(profile.mu),
        "nu": list(profile.nu),
        "kernel_dims": {
            "negative": list(neg.kernel_dims),
            "positive": list(pos.kernel_dims),
        },
        "diagnostics": {
            "residuals": {"omega": neg.residuals["omega"]},
            "q_eigenvalues": {
                "negative": [float(x) for x in neg.q_eigenvalues],
                "positive": [float(x) for x in pos.q_eigenvalues],
            },
            "cross_check_margins": profile.diagnostics["cross_check_margins"],
        },
        "tool_version": __version__,
        "tolerance_used": tol,
    }


def _format_int_row(values) -> str:
    return " ".join(str(v) for v in values) if values else "(none)"


def render_pretty(report: dict) -> str:
    rows = [
        ("all_indices", _format_int_row(report["all_indices"])),
        ("negative_indices", _format_int_row(report["negative_indices"])),
        ("positive_indices", _format_int_row(report["positive_indices"])),
        ("zeros", str(report["zeros"])),
        ("mu", _format_int_row(report["mu"])),
        ("nu", _format_int_row(report["nu"])),
        ("kernel_dims (neg)", _format_int_row(report["kernel_dims"]["negative"])),
        ("kernel_dims (pos)", _format_int_row(report["kernel_dims"]["positive"])),
        ("residual omega", f"{report['diagnostics']['residuals']['omega']:.3e}"),
        ("tolerance", f"{report['tolerance_used']:g}"),
        ("tool version", report["tool_version"]),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_indices(args) -> int:
    pair = load_problem_pair(_load_json(args.problem))
    profile = full_profile(pair, tol=args.tol)
    report = build_report(profile, args.tol)
    text = render_pretty(report) if args.pretty else canonical_json(report)
    _emit(text, args.output)
    return EXIT_OK


def cmd_cayley(args) -> int:
    r = realization_from_json(_load_json(args.realization), "realization")
    if args.direction == "c2d":
        out = c2d(r)
        validation = validate_stable_unitary(out)
    else:
        out = d2c(r)
        validation = validate_stable_dissipative(out)
    payload = {
        "realization": realization_to_json(out),
        "validation": dataclasses.asdict(validation),
    }
    _emit(canonical_json(payload), args.output)
    return EXIT_OK


def _parse_coefficients(text: str) -> Polynomial:
    tokens = text.split()
    if len(tokens) < 2:
        raise StructureError("need at least two coefficients (degree >= 1), ascending order")
    coeffs = []
    for i, token in enumerate(tokens):
        try:
            coeffs.append(complex(token))
        except ValueError as exc:
            raise StructureError(f"coefficient {i}: cannot parse {token!r}") from exc
    return Polynomial(tuple(coeffs))


def cmd_stability(args) -> int:
    p = _parse_coefficients(args.coefficients)
    by_form, lambda_min = schur_cohen_stable(p)
    by_roots = roots_stable(p)
    payload = {"schur_cohen": by_form, "roots": by_roots, "lambda_min": lambda_min}
    _emit(canonical_json(payload), args.output)
    if by_form != by_roots:
        sys.stderr.write(
            "DISAGREEMENT: the quadratic-form test and the root test do not match\n"
        )
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_verify(args) -> int:
    # The battery pulls in the samplers and numpy.random, which no other command needs.
    from .verify import DEFAULT_SEED, run_battery

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_battery(seed=seed, cases=args.cases)
    failures = []
    for result in results:
        if result.passed:
            sys.stdout.write(f"PASS  {result.name} ({result.cases} cases)\n")
        else:
            sys.stdout.write(f"FAIL  {result.name} ({result.cases} cases)\n")
            failures.append({"family": result.name, "case": result.failure})
    total = len(results)
    sys.stdout.write(f"{total - len(failures)}/{total} families passed\n")
    if failures:
        sys.stdout.write("first failing case for replay:\n")
        sys.stdout.write(canonical_json(failures[0]) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


#: The canonical example problem emitted by ``example dss``.
EXAMPLE_PROBLEMS = {
    "dss": {"kind": "diagonal_powers", "powers": [-4, -2, 0, 3, 5]},
}


def cmd_example(args) -> int:
    problem = EXAMPLE_PROBLEMS.get(args.name)
    if problem is None:
        raise StructureError(
            f"unknown example {args.name!r}; available: {', '.join(sorted(EXAMPLE_PROBLEMS))}"
        )
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    pair = load_problem_pair(problem)
    report = build_report(full_profile(pair, tol=args.tol), args.tol)
    problem_path = out_dir / f"{args.name}.problem.json"
    report_path = out_dir / f"{args.name}.report.json"
    problem_path.write_text(canonical_json(problem) + "\n")
    report_path.write_text(canonical_json(report) + "\n")
    sys.stdout.write(f"{problem_path}\n{report_path}\n")
    return EXIT_OK


_TOL_HELP = f"eigenvalue clustering tolerance, 0 < tol < 1 (default {CLUSTER_TOL:g})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whindex",
        description="Partial Wiener-Hopf indices of unimodular rational matrix "
        "functions from realizations of their inner factors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_idx = sub.add_parser("indices", help="compute the index profile of a problem file")
    p_idx.add_argument("problem", help="path to a JSON problem file")
    p_idx.add_argument("--tol", type=float, default=CLUSTER_TOL, help=_TOL_HELP)
    p_idx.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")
    p_idx.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_idx.set_defaults(handler=cmd_indices)

    p_cay = sub.add_parser("cayley", help="convert a realization between time domains")
    p_cay.add_argument("realization", help="path to a JSON realization file")
    p_cay.add_argument("direction", choices=["c2d", "d2c"])
    p_cay.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_cay.set_defaults(handler=cmd_cayley)

    p_sta = sub.add_parser("stability", help="polynomial stability, two independent ways")
    p_sta.add_argument(
        "coefficients",
        help="space-separated ascending coefficients, e.g. '1 1' for s+1; "
        "complex entries like 1+2j are accepted",
    )
    p_sta.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_sta.set_defaults(handler=cmd_stability)

    p_ver = sub.add_parser("verify", help="run the seeded property battery")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="battery seed (default: whindex.verify.DEFAULT_SEED)")
    p_ver.add_argument("--cases", type=int, default=None,
                       help="override the per-family case count")
    p_ver.set_defaults(handler=cmd_verify)

    p_exa = sub.add_parser("example", help="emit a named example problem and expected report")
    p_exa.add_argument("name", help="example name (currently: dss)")
    p_exa.add_argument("--tol", type=float, default=CLUSTER_TOL, help=_TOL_HELP)
    p_exa.add_argument("--output", default=None, help="directory for the emitted files")
    p_exa.set_defaults(handler=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow to a non-finite value is refused by the checks it reaches
        # (a NaN residual fails validation), so numpy's warning would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (StructureError, InputValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except _COMPUTE_ERRORS as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
