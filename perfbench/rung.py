"""One rung of the ``diag_ladder`` workload: ``whindex indices`` in a capped process.

Usage: ``python3 perfbench/rung.py PROBLEM REPORT STATUS CAP_MB [--trace]``

Caps the address space at ``CAP_MB`` MiB before numpy is imported, runs
``whindex.cli.main(["indices", PROBLEM, "--output", REPORT])`` and writes a
status file ``{"exit", "error", "message", "spans"}``.  The parent process
imposes the wall-clock cap and checks the report.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    problem, report, status_path, cap_mb = argv[:4]
    traced = "--trace" in argv[4:]
    cap = int(cap_mb) * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import whindex.cli

    from tracing import Tracer

    status = {"exit": None, "error": None, "message": None, "spans": []}
    # cli.main turns typed errors into exit codes; keep the type by looking
    # at what passes through the handler it dispatches to.
    handler = whindex.cli.cmd_indices

    def observed(args):
        try:
            return handler(args)
        except Exception as exc:
            status["error"], status["message"] = type(exc).__name__, str(exc)
            raise

    whindex.cli.cmd_indices = observed
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        status["exit"] = whindex.cli.main(["indices", problem, "--output", report])
    except MemoryError as exc:
        status["exit"] = 3
        status["error"], status["message"] = "MemoryError", str(exc)
    finally:
        tracer.uninstall()
    status["spans"] = tracer.spans
    Path(status_path).write_text(json.dumps(status))
    return 0 if status["exit"] == 0 else 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
