"""Command-line front end.

Subcommands:

* ``indices`` -- compute the full partial-index profile of a problem file
* ``cayley``  -- convert a realization between continuous and discrete time
* ``verify``  -- run the seeded property battery over all modules
* ``example`` -- emit the canonical worked example and its expected report

Exit codes: 0 success, 2 malformed input or failed input validation,
3 computation failure, 5 failed verification.  Code 4, once a stability-test
disagreement, is retired and not reused.
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
from .realizations import blaschke_realization, diagonal_symbol_factors
from .serialize import (
    blaschke_spec_from_json,
    canonical_json,
    realization_from_json,
    realization_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    """Flatten an index profile into the serializable report shape.  A side's
    ``q_eigenvalues`` are the ascending eigenvalues 1 - s^2 of its contraction,
    s the singular values of omega, padded with ones to its state dimension,
    and its ``cross_check_margins`` entry is their distance to the cut 1 - tol."""
    neg, pos = profile.negative_trace, profile.positive_trace
    s = profile.singular_values
    q = {
        side: np.concatenate([1.0 - s * s, [1.0] * (trace.omega.shape[1] - len(s))])
        for side, trace in (("negative", neg), ("positive", pos))
    }
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
            "q_eigenvalues": {side: [float(x) for x in values] for side, values in q.items()},
            "cross_check_margins": {
                side: float(np.abs(values - (1.0 - tol)).min()) if values.size else None
                for side, values in q.items()
            },
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


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text + "\n")
    except OSError as exc:
        raise StructureError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        _write(Path(output), text)
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StructureError(f"cannot create directory {out_dir}: {exc}") from exc
    pair = load_problem_pair(problem)
    report = build_report(full_profile(pair, tol=CLUSTER_TOL), CLUSTER_TOL)
    problem_path = out_dir / f"{args.name}.problem.json"
    report_path = out_dir / f"{args.name}.report.json"
    _write(problem_path, canonical_json(problem))
    _write(report_path, canonical_json(report))
    sys.stdout.write(f"{problem_path}\n{report_path}\n")
    return EXIT_OK


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
    p_idx.add_argument("--tol", type=float, default=CLUSTER_TOL,
                       help=f"eigenvalue clustering tolerance, 0 < tol < 1 (default {CLUSTER_TOL:g})")
    p_idx.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")
    p_idx.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_idx.set_defaults(handler=cmd_indices)

    p_cay = sub.add_parser("cayley", help="convert a realization between time domains")
    p_cay.add_argument("realization", help="path to a JSON realization file")
    p_cay.add_argument("direction", choices=["c2d", "d2c"])
    p_cay.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_cay.set_defaults(handler=cmd_cayley)

    p_ver = sub.add_parser("verify", help="run the seeded property battery")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="battery seed (default: whindex.verify.DEFAULT_SEED)")
    p_ver.add_argument("--cases", type=int, default=None,
                       help="override the per-family case count")
    p_ver.set_defaults(handler=cmd_verify)

    p_exa = sub.add_parser("example", help="emit a named example problem and expected report")
    p_exa.add_argument("name", help="example name (currently: dss)")
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's message names the array
        sys.stderr.write(f"computation failed: out of memory{detail}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
