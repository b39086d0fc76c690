"""Benchmark of whindex: index-profile latency, ladder scaling and failure share.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: diag_ladder, blaschke_sweep, mimo_batch, verify_battery (see
perfbench/README.md for why each exists).  A run builds the workload's inputs
from the seed, makes passes over them for about ``--seconds`` seconds (at
least two), then checks every answer against its known truth outside the
timed region.  It prints every metric by name and unit, writes per-run
results, spans and replayable failure records under ``perfbench/out/``, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced passes and the metrics are per-layer
self times and counts.  A wrong answer makes the exit status 1.

BLAS is pinned to one thread before numpy is loaded, so that the spread
between runs comes from whindex and not from the BLAS thread pool.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 7
OUT = HERE / "out"

#: Metrics on the last line of an untraced run; the table adds the rest.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "profile_cpu_ms.p50": "ms",
    "profile_cpu_ms.p90": "ms",
}


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


if not (SRC / "whindex" / "__init__.py").is_file():
    _fail(f"no whindex sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import whindex  # noqa: E402

if Path(whindex.__file__).resolve().parent != SRC / "whindex":
    _fail(f"imported whindex from {whindex.__file__}, not from {SRC}")

import workloads  # noqa: E402
from reference import REF_S, Reference  # noqa: E402
from tracing import LAYER_FUNCTIONS, LAYER_NAMES, Tracer, aggregate  # noqa: E402
from whindex.serialize import canonical_json  # noqa: E402
from whindex.verify import FAMILIES  # noqa: E402


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for (_, _, attrs_of), name in zip(LAYER_FUNCTIONS, LAYER_NAMES):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if attrs_of is not None:
            units[f"{name}.kron_mb"] = "MB"
    units["indices.chain_steps"] = "count"
    units["indices.fail.PipelineError"] = "count"
    units["indices.fail.ContractionViolationError"] = "count"
    for layer in workloads.FAILURE_LAYERS:
        units[f"fail.{layer}"] = "count"
    for family, _, _ in FAMILIES:
        units[f"verify.{family}.wall_ms"] = "ms"
    units["verify.families.self_ms"] = "ms"
    units["bench.self_ms"] = "ms"
    units["trace.wall_ms"] = "ms"
    units["trace.untraced_wall_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    return units


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def run_conditions() -> dict:
    import numpy

    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _openblas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def time_setups(args) -> tuple[float, float]:
    """Median processor and elapsed seconds of fresh processes that import whindex and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, timeout=120)
        wall.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return statistics.median(cpu), statistics.median(wall)


def measure(workload, seconds: float, trace: bool, reference: Reference):
    """Run passes until about ``seconds`` have gone by; returns (passes, tracer).

    Each pass is ``(traced, wall_seconds, outcomes)``.  A run makes at least
    two passes and starts another only if it should end within ``seconds``.
    Untraced runs time the reference kernel between problems.  With tracing,
    passes alternate untraced and traced over the same inputs and come in
    pairs.
    """
    tracer = Tracer() if trace else None
    between = (lambda: 1.0) if trace else reference.between
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        inputs = index // 2 if trace else index
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                with tracer.span("bench.pass"):
                    outcomes = workload.run_pass(inputs, tracer, between)
            finally:
                tracer.uninstall()
        else:
            outcomes = workload.run_pass(inputs, None, between)
        passes.append((traced, time.perf_counter() - t0, outcomes))
        count = len(passes)
        elapsed = time.perf_counter() - start
        step = 2 if trace else 1
        if count >= 2 and count % step == 0 and elapsed * (1 + step / count) > seconds:
            return passes, tracer


def classify(passes) -> dict:
    """Per problem: its times in every pass and its first failure or wrong answer."""
    problems: dict[str, dict] = {}
    for _, _, outcomes in passes:
        for outcome in outcomes:
            entry = problems.setdefault(outcome.key, {"cpu": [], "wall": [], "scale": [],
                                                      "charge": [], "failed": None,
                                                      "wrong": None})
            entry["cpu"].append(outcome.cpu)
            entry["scale"].append(outcome.scale)
            entry["wall"].append(outcome.wall)
            entry["charge"].append(outcome.charge)
            if outcome.error is not None and entry["failed"] is None:
                entry["failed"] = outcome
            if outcome.wrong and entry["wrong"] is None:
                entry["wrong"] = outcome
    return problems


def failure_layer(error: str) -> str:
    return workloads.FAILURE_LAYER.get(error, "other")


def write_replays(args, workload, problems) -> Path:
    """One canonical JSON record per failed or wrong problem; returns the directory."""
    target = OUT / "failures" / f"{args.workload}-seed{args.seed}"
    target.mkdir(parents=True, exist_ok=True)
    for stale in target.glob("*.json"):
        stale.unlink()
    for key, entry in problems.items():
        bad = entry["wrong"] or entry["failed"]
        if bad is None:
            continue
        record = dict(workload.replay(key))
        record["replay"] = {
            "workload": args.workload,
            "seed": args.seed,
            "problem": key,
            "exception": bad.error,
            "layer": failure_layer(bad.error) if bad.error else None,
            "message": bad.message,
            "expected": _plain(bad.truth),
            "got": _plain(bad.answer),
        }
        try:
            text = canonical_json(record)
        except ValueError:  # a battery case with non-finite numbers
            text = json.dumps(record, sort_keys=True, default=str)
        (target / f"{key.replace(':', '-')}.json").write_text(text + "\n")
    return target


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def best_time(entry: dict, clock: str, scaled: bool = False) -> float:
    """A problem's fastest repetition on one clock, optionally scaled, plus any cap charge."""
    scales = entry["scale"] if scaled else [1.0] * len(entry[clock])
    return min(t * s + c for t, s, c in zip(entry[clock], scales, entry["charge"]))


def timing(passes, problems, clock: str, scaled: bool = False) -> dict:
    """Pass time, per-problem p50/p90 and correct answers per second on one clock.

    Each problem's time is its fastest repetition in the run, as ``timeit``
    reports; a pass is the average pass at those times.
    """
    best = [best_time(entry, clock, scaled) for entry in problems.values()]
    per_pass = statistics.fmean(len(outcomes) for _, _, outcomes in passes)
    correct = sum(1 for e in problems.values() if not (e["failed"] or e["wrong"]))
    return {
        "pass_s": sum(best) * per_pass / len(best),
        "p50_ms": 1000.0 * statistics.median(best),
        "p90_ms": 1000.0 * statistics.quantiles(best, n=10, method="inclusive")[8],
        "per_s": correct / sum(best),
    }


def end_to_end(args, passes, problems, setup: tuple[float, float],
               reference: Reference) -> tuple[dict, dict]:
    """(metrics emitted on the last line, every end-to-end metric for the table).

    The emitted metrics are processor times.  Times of problems answered in
    this process are scaled to the reference host (see reference.py); set-up
    and ladder rungs run in other processes and are not.  The table adds the
    unscaled times and elapsed times.
    """
    cpu, raw = timing(passes, problems, "cpu", scaled=True), timing(passes, problems, "cpu")
    wall = timing(passes, problems, "wall")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = max([peak_kb / 1024.0] + [o.rss_mb for _, _, outcomes in passes for o in outcomes])
    values = {
        "setup_s": setup[0],
        "cpu_s": cpu["pass_s"],
        "profile_cpu_ms.p50": cpu["p50_ms"],
        "profile_cpu_ms.p90": cpu["p90_ms"],
    }
    emitted = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    attempted = len(problems)
    repeats = f"n={attempted}, fastest of {len(passes)} runs each"
    if args.workload == "verify_battery":
        repeats = f"n={attempted}, {len(passes)} batteries"
    table = {name: dict(metric) for name, metric in emitted.items()}
    table["setup_s"]["note"] = f"median of {SETUP_REPEATS} set-ups"
    table["profile_cpu_ms.p50"]["note"] = table["profile_cpu_ms.p90"]["note"] = repeats
    table.update({
        "host_scale": {"value": statistics.median(o.scale for _, _, outcomes in passes
                                                  for o in outcomes), "unit": "ratio",
                       "note": f"median; {REF_S} s / kernel time, {len(reference.samples)} "
                               f"kernel runs"},
        "raw.cpu_s": {"value": raw["pass_s"], "unit": "s", "note": "unscaled"},
        "raw.profile_cpu_ms.p50": {"value": raw["p50_ms"], "unit": "ms", "note": "unscaled"},
        "raw.profile_cpu_ms.p90": {"value": raw["p90_ms"], "unit": "ms", "note": "unscaled"},
        "profiles_per_cpu_s": {"value": raw["per_s"], "unit": "1/s",
                               "note": "correct answers per unscaled processor second"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "setup_wall_s": {"value": setup[1], "unit": "s", "note": "elapsed"},
        "wall_s": {"value": wall["pass_s"], "unit": "s", "note": "elapsed, one pass"},
        "profile_ms.p50": {"value": wall["p50_ms"], "unit": "ms", "note": "elapsed"},
        "profile_ms.p90": {"value": wall["p90_ms"], "unit": "ms", "note": "elapsed"},
        "profiles_per_s": {"value": wall["per_s"], "unit": "1/s", "note": "elapsed"},
    })
    if args.workload == "diag_ladder":
        for key, entry in problems.items():
            note = f"{entry['failed'].error}, charged the cap" if entry["failed"] else "ok"
            table[f"rung_s.{key}"] = {"value": best_time(entry, "wall"), "unit": "s", "note": note}
            table[f"rung_cpu_s.{key}"] = {"value": best_time(entry, "cpu"), "unit": "s",
                                          "note": note}
    table["fail_frac"] = {"value": sum(1 for e in problems.values() if e["failed"]) / attempted,
                          "unit": "ratio"}
    table["wrong_frac"] = {"value": sum(1 for e in problems.values() if e["wrong"]) / attempted,
                           "unit": "ratio"}
    return emitted, table


def per_layer(passes, tracer, problems) -> dict:
    traced = [wall for is_traced, wall, _ in passes if is_traced]
    untraced = [wall for is_traced, wall, _ in passes if not is_traced]
    n = len(traced)
    summary = aggregate(tracer.spans)
    layers = summary["layers"]
    values = {}
    for (_, _, attrs_of), name in zip(LAYER_FUNCTIONS, LAYER_NAMES):
        entry = layers.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = entry["calls"] / n
        values[f"{name}.self_ms"] = 1000.0 * entry["self_s"] / n
        if attrs_of is not None:
            values[f"{name}.kron_mb"] = entry.get("kron_mb", 0.0)
    values["indices.chain_steps"] = summary["chain_steps"] / n
    failures = [e["failed"].error for e in problems.values() if e["failed"]]
    for error in ("PipelineError", "ContractionViolationError"):
        values[f"indices.fail.{error}"] = failures.count(error)
    for layer in workloads.FAILURE_LAYERS:
        values[f"fail.{layer}"] = sum(1 for e in failures if failure_layer(e) == layer)
    for family, _, _ in FAMILIES:
        entry = layers.get(f"verify.{family}", {"total_s": 0.0})
        values[f"verify.{family}.wall_ms"] = 1000.0 * entry["total_s"] / n
    values["verify.families.self_ms"] = 1000.0 * sum(
        e["self_s"] for name, e in layers.items() if name.startswith("verify.")) / n
    values["bench.self_ms"] = 1000.0 * sum(
        e["self_s"] for name, e in layers.items() if name.startswith("bench.")) / n
    values["trace.wall_ms"] = 1000.0 * layers["bench.pass"]["total_s"] / n
    values["trace.untraced_wall_ms"] = 1000.0 * statistics.fmean(untraced)
    values["trace.overhead_ms"] = values["trace.wall_ms"] - values["trace.untraced_wall_ms"]
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def self_time_sum(metrics: dict) -> float:
    """Sum of every self time the traced run reports; equals trace.wall_ms."""
    return sum(m["value"] for name, m in metrics.items() if name.endswith(".self_ms"))


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        note = f"  ({metric['note']})" if metric.get("note") else ""
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}{note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and a 1 s rung cap (used by selftest.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.tiny, OUT)
    if args.setup_only:
        return 0
    trace = bool(args.trace)
    reference = Reference()
    setup = None if trace else time_setups(args)
    conditions = run_conditions()
    conditions.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, tiny=args.tiny)
    print("conditions " + json.dumps(conditions, sort_keys=True))

    passes, tracer = measure(workload, args.seconds, trace, reference)

    problems = classify(passes)
    oracle = workload.oracle_mismatches(args.seed)
    replay_dir = write_replays(args, workload, problems)
    wrong = sum(1 for e in problems.values() if e["wrong"])
    failed = sum(1 for e in problems.values() if e["failed"])
    correct = wrong == 0 and not oracle
    results = {"conditions": conditions, "oracle_mismatches": oracle,
               "attempted": len(problems), "failed": failed, "wrong": wrong}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        metrics = per_layer(passes, tracer, problems)
        print_table(f"per-layer metrics, per traced pass ({sum(p[0] for p in passes)} traced):",
                    metrics)
        print(f"self times sum to {self_time_sum(metrics):.3f} ms; traced pass "
              f"{metrics['trace.wall_ms']['value']:.3f} ms; tracing overhead "
              f"{metrics['trace.overhead_ms']['value']:.3f} ms per pass")
        spans_path = OUT / f"spans-{stem}.jsonl.gz"
        tracer.write(spans_path)
        results["per_layer"] = metrics
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics, table = end_to_end(args, passes, problems, setup, reference)
        print_table("end-to-end metrics:", table)
        results["end_to_end"] = table
    (OUT / f"results-{stem}.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"failures: {failed} failed, {wrong} wrong of {len(problems)}; "
          f"replay records in {replay_dir.relative_to(ROOT)}")
    if oracle:
        print(f"winding-number oracle disagrees with the truth: {oracle}")
    print(json.dumps({"correct": correct, "attempted": len(problems), "failed": failed,
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
