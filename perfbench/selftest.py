"""Self-test of the benchmark: every workload at its smallest size, untraced and traced.

Usage (from the repository root): ``python3 perfbench/selftest.py``

Checks that each run exits 0 with a correct last line, that it emits every
metric BENCHMARK.json declares with the declared unit, that the printed
end-to-end table holds every metric the workload reports (the ladder rungs
included) with ``wrong_frac`` 0, that traced self times add up to the traced
pass, and that the benchmark refuses to run without the library sources.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import LADDER, WORKLOADS  # noqa: E402

TABLE_METRICS = ("setup_s", "setup_wall_s", "cpu_s", "wall_s", "profile_cpu_ms.p50",
                 "profile_cpu_ms.p90", "profile_ms.p50", "profile_ms.p90", "profiles_per_cpu_s",
                 "profiles_per_s", "fail_frac", "wrong_frac", "peak_rss_mb", "host_scale",
                 "raw.cpu_s", "raw.profile_cpu_ms.p50", "raw.profile_cpu_ms.p90")
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL  {message}")
        raise SystemExit(1)


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: last-line keys")
    check(last["correct"] is True and last["attempted"] >= 1, f"{label}: correct/attempted")
    return last


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for workload in WORKLOADS:
        last = run(workload, 0)
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        check(got == end_to_end, f"{workload}: end-to-end metrics {sorted(got)}")
        check(all(m["value"] > 0 for m in last["metrics"].values()), f"{workload}: a zero metric")
        results = json.loads((OUT / f"results-{workload}-seed{SEED}-trace0.json").read_text())
        table = results["end_to_end"]
        rungs = [f"{clock}.k{k}" for k in LADDER for clock in ("rung_s", "rung_cpu_s")]
        names = TABLE_METRICS + (tuple(rungs) if workload == "diag_ladder" else ())
        for name in names:
            check(name in table and table[name]["unit"], f"{workload}: table lacks {name}")
        check(table["wrong_frac"]["value"] == 0, f"{workload}: wrong_frac is not 0")
        check(results["conditions"]["src_lines"] > 0, f"{workload}: run conditions")

        last = run(workload, 1)
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        check(got == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        metrics = last["metrics"]
        total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_ms"))
        wall = metrics["trace.wall_ms"]["value"]
        check(abs(total - wall) <= 1e-6 * wall, f"{workload}: self times {total} != wall {wall}")
        print(f"ok    {workload}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mimo_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(), "runs without the library sources")
    print("ok    refuses to run without src/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
