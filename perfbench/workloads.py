"""The four benchmark workloads: inputs built from a seed, one timed pass, known truths.

Every workload answers a list of problems per pass and returns one
``Outcome`` per problem.  An outcome carries the truth it must match, so the
check after the timed passes needs nothing but the outcomes.  The library
functions are looked up through their modules on every call, so a tracer
that has patched those modules sees the calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import whindex.indices
import whindex.oracle
import whindex.verify
from whindex.core import SymbolPair, direct_sum, unitary_twist
from whindex.realizations import BlaschkeSpec, blaschke_realization
from whindex.sampling import random_blaschke_spec, random_unitary
from whindex.serialize import blaschke_spec_to_json, canonical_json, realization_to_json

#: Exception type -> layer a failure is counted against.
FAILURE_LAYER = {
    "UnsolvableEquationError": "equations",
    "EvaluationError": "equations",
    "PipelineError": "indices",
    "ContractionViolationError": "indices",
    "MemoryError": "resource",
    "WallClockCap": "resource",
}
FAILURE_LAYERS = ("equations", "indices", "resource", "other")

#: Ladder rungs: diagonal powers [-k, k], state dimension k per factor.
LADDER = (8, 16, 32, 64, 128)
#: Wall-clock cap per rung; a failed rung is charged its time plus this.
WALL_CAP_S = 20.0
#: Address-space cap per rung: an eighth of an 8 GB machine.  The seed's
#: Kronecker solver needs more than this from k = 64 on.
ADDRESS_CAP_MB = 1024
#: Polling interval while a rung runs; bounds the timing resolution.
POLL_S = 0.0005

#: Blaschke degrees and the cyclic shifts pairing them: every degree occurs
#: six times as deg(phi) and six times as deg(m), so the amount of work does
#: not depend on the seed, which only draws poles and phases.
BLASCHKE_DEGREES = tuple(range(4, 21))
BLASCHKE_SHIFTS = (0, 3, 6, 9, 12, 15)
#: Pairs whose truth is confirmed by the winding-number oracle.
ORACLE_SAMPLE = 10

MIMO_PROBLEMS = 300
MIMO_MAX_BLOCK_DEGREE = 3

RUNG_SCRIPT = Path(__file__).resolve().parent / "rung.py"


@dataclass
class Outcome:
    """Result of one problem in one pass.

    ``cpu`` is the processor time (user + system) the problem took and
    ``wall`` the elapsed time.  ``scale`` turns ``cpu`` into reference-host
    seconds, and ``charge`` is the cap a failed rung is charged on top of
    either time.
    """

    key: str
    cpu: float
    wall: float
    truth: Any
    answer: Any = None
    error: Optional[str] = None
    message: str = ""
    rss_mb: float = 0.0
    scale: float = 1.0
    charge: float = 0.0

    @property
    def wrong(self) -> bool:
        return self.error is None and self.answer != self.truth


@dataclass
class Problem:
    key: str
    payload: dict
    truth: Any
    pair: Optional[SymbolPair] = None
    specs: Optional[tuple[BlaschkeSpec, BlaschkeSpec]] = None


def _solve(problem: Problem) -> Outcome:
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        profile = whindex.indices.full_profile(problem.pair)
    except Exception as exc:  # every failure is counted, by type
        return Outcome(problem.key, time.process_time() - cpu, time.perf_counter() - wall,
                       problem.truth, error=type(exc).__name__, message=str(exc))
    return Outcome(problem.key, time.process_time() - cpu, time.perf_counter() - wall,
                   problem.truth, answer=tuple(profile.all_indices))


class Workload:
    """Problems answered by ``run_pass(index, tracer, between)``.

    ``index`` numbers the pass's inputs and ``tracer`` is None on untraced
    passes.  ``between()`` is called before each problem answered in this
    process, outside its timing, and returns the problem's host scale.
    """

    problems: list[Problem] = []

    def replay(self, key: str) -> dict:
        """The failed problem ``key`` in a form that can be run again."""
        return next(p.payload for p in self.problems if p.key == key)

    def oracle_mismatches(self, seed: int) -> list[dict]:
        """Truths an independent oracle disagrees with."""
        del seed
        return []


class InProcessWorkload(Workload):
    """``full_profile`` over a fixed list of symbol pairs, the same list every pass."""

    def __init__(self, problems: list[Problem]):
        self.problems = problems

    def run_pass(self, index: int, tracer, between) -> list[Outcome]:
        del index, tracer
        outcomes = []
        for problem in self.problems:
            scale = between()
            outcomes.append(_solve(problem))
            outcomes[-1].scale = scale
        return outcomes


class BlaschkeSweep(InProcessWorkload):
    def __init__(self, seed: int, tiny: bool):
        degrees, shifts = ((2, 3, 4), (0, 1)) if tiny else (BLASCHKE_DEGREES, BLASCHKE_SHIFTS)
        rng = np.random.default_rng([seed, 1])
        problems = []
        for shift in shifts:
            for i, f in enumerate(degrees):
                g = degrees[(i + shift) % len(degrees)]
                phi, m = random_blaschke_spec(rng, f), random_blaschke_spec(rng, g)
                problems.append(Problem(
                    key=f"b{len(problems):03d}-phi{f}-m{g}",
                    payload={"kind": "scalar_blaschke_pair",
                             "phi": blaschke_spec_to_json(phi), "m": blaschke_spec_to_json(m)},
                    truth=(f - g,),
                    pair=SymbolPair(blaschke_realization(phi), blaschke_realization(m)),
                    specs=(phi, m),
                ))
        super().__init__(problems)

    def oracle_mismatches(self, seed: int) -> list[dict]:
        """Confirm the closed-form truth deg(phi) - deg(m) on a seeded subset."""
        rng = np.random.default_rng([seed, 3])
        count = min(ORACLE_SAMPLE, len(self.problems))
        out = []
        for i in rng.choice(len(self.problems), size=count, replace=False):
            problem = self.problems[int(i)]
            wind = whindex.oracle.winding_number(*problem.specs)
            if (wind,) != problem.truth:
                out.append({"key": problem.key, "winding": wind, "truth": list(problem.truth)})
        return out


def _inner(specs: list[BlaschkeSpec], left: np.ndarray, right: np.ndarray):
    """Realization of left @ diag(specs) @ right."""
    r = blaschke_realization(specs[0])
    for spec in specs[1:]:
        r = direct_sum(r, blaschke_realization(spec))
    return unitary_twist(unitary_twist(r, left, "left"), right, "right")


class MimoBatch(InProcessWorkload):
    """V = U1 diag(phi_i) S and W = U2 diag(m_i) S, so V W* = U1 diag(phi_i conj(m_i)) U2*."""

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        problems = []
        for n in range(12 if tiny else MIMO_PROBLEMS):
            size = 1 + n % 3
            degree = lambda: int(rng.integers(0, MIMO_MAX_BLOCK_DEGREE + 1))  # noqa: E731
            phis = [random_blaschke_spec(rng, degree()) for _ in range(size)]
            ms = [random_blaschke_spec(rng, degree()) for _ in range(size)]
            shared = random_unitary(rng, size)
            v = _inner(phis, random_unitary(rng, size), shared)
            w = _inner(ms, random_unitary(rng, size), shared)
            problems.append(Problem(
                key=f"m{n:03d}-size{size}",
                payload={"kind": "realization_pair",
                         "v": realization_to_json(v), "w": realization_to_json(w)},
                truth=tuple(sorted(p.degree - q.degree for p, q in zip(phis, ms))),
                pair=SymbolPair(v, w),
            ))
        super().__init__(problems)


class DiagLadder(Workload):
    """``whindex indices`` on diagonal_powers [-k, k], each rung in a capped child process."""

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        del seed  # the ladder is fixed; every seed runs the same rungs
        self.wall_cap = 1.0 if tiny else WALL_CAP_S
        self.dir = out_dir / "diag_ladder"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.problems = []
        for k in LADDER:
            payload = {"kind": "diagonal_powers", "powers": [-k, k]}
            (self.dir / f"k{k}.problem.json").write_text(canonical_json(payload) + "\n")
            self.problems.append(Problem(key=f"k{k}", payload=payload, truth=(-k, k)))

    def run_pass(self, index: int, tracer, between) -> list[Outcome]:
        del index, between  # rungs run in other processes and are not scaled
        return [self._rung(problem, tracer) for problem in self.problems]

    def _rung(self, problem: Problem, tracer) -> Outcome:
        base = self.dir / problem.key
        report, status_path = Path(f"{base}.report.json"), Path(f"{base}.status.json")
        for stale in (report, status_path):
            stale.unlink(missing_ok=True)
        cmd = [sys.executable, str(RUNG_SCRIPT), f"{base}.problem.json", str(report),
               str(status_path), str(ADDRESS_CAP_MB)] + (["--trace"] if tracer else [])
        capped = False
        with tracer.span("bench.rung") if tracer else nullcontext() as span_id:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            while True:
                pid, wait_status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > self.wall_cap:
                    proc.kill()
                    _, wait_status, usage = os.wait4(proc.pid, 0)
                    capped = True
                    break
                time.sleep(POLL_S)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0
        outcome = Outcome(problem.key, cpu, elapsed, problem.truth, rss_mb=rss_mb)
        failed = Outcome(problem.key, cpu, elapsed, problem.truth, rss_mb=rss_mb,
                         charge=self.wall_cap)
        if capped:
            failed.error, failed.message = "WallClockCap", f"killed after {self.wall_cap:g} s"
            return failed
        try:
            status = json.loads(status_path.read_text())
        except (OSError, ValueError):
            failed.error, failed.message = "ProcessDied", f"exit status {proc.returncode}"
            return failed
        if tracer is not None:
            tracer.adopt(status["spans"], span_id)
        if status["exit"] != 0:
            failed.error = status["error"] or f"Exit{status['exit']}"
            failed.message = status["message"] or ""
            return failed
        outcome.answer = tuple(json.loads(report.read_text())["all_indices"])
        return outcome


class VerifyBattery(Workload):
    """``verify.run_battery``; pass ``i`` runs it with seed ``verify.DEFAULT_SEED + i``.

    The battery draws its own cases from its seed, and its cost moves by
    about 9% from one seed to the next, so every run replays the same
    sequence of batteries, starting with the one ``whindex verify`` runs.
    """

    def __init__(self, seed: int, tiny: bool):
        del seed
        self.cases = 1 if tiny else None
        self.failures: dict[str, dict] = {}

    def run_pass(self, index: int, tracer, between) -> list[Outcome]:
        seed = whindex.verify.DEFAULT_SEED + index
        seconds: dict[str, tuple[float, float, float]] = {}

        def timed(name, fn):
            inner = tracer.wrap(f"verify.{name}", fn) if tracer else fn

            def run(rng, count):
                scale = between()
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    return inner(rng, count)
                finally:
                    seconds[name] = (time.process_time() - cpu, time.perf_counter() - wall, scale)
            return run

        families = whindex.verify.FAMILIES
        whindex.verify.FAMILIES = [(name, count, timed(name, fn)) for name, count, fn in families]
        try:
            results = whindex.verify.run_battery(seed=seed, cases=self.cases)
        finally:
            whindex.verify.FAMILIES = families
        outcomes = []
        for result in results:
            key = f"{seed}:{result.name}"
            cpu, wall, scale = seconds[result.name]
            outcome = Outcome(key, cpu, wall, truth="pass", answer="pass", scale=scale)
            if not result.passed:
                self.failures[key] = {"family": result.name, "battery_seed": seed,
                                      "case": result.failure}
                exception = result.failure.get("exception")
                if exception is not None:  # run_battery stores a crash as repr(exc)
                    outcome.error, outcome.message = exception.split("(", 1)[0], exception
                    outcome.answer = None
                else:
                    outcome.answer = "violated"
            outcomes.append(outcome)
        return outcomes

    def replay(self, key: str) -> dict:
        return self.failures[key]


def build(name: str, seed: int, tiny: bool, out_dir: Path):
    if name == "diag_ladder":
        return DiagLadder(seed, tiny, out_dir)
    if name == "blaschke_sweep":
        return BlaschkeSweep(seed, tiny)
    if name == "mimo_batch":
        return MimoBatch(seed, tiny)
    if name == "verify_battery":
        return VerifyBattery(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("diag_ladder", "blaschke_sweep", "mimo_batch", "verify_battery")
