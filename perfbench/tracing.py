"""Span tracer that times whindex functions from outside the library.

The library binds most functions with ``from .module import name``, so
wrapping ``whindex.equations.solve_sylvester`` alone would miss every call
made through ``whindex.indices.solve_sylvester``.  ``Tracer.install`` replaces
a function under every name that any loaded ``whindex`` module holds it by,
and ``Tracer.uninstall`` puts the originals back.

Spans are kept in memory as ``[id, parent, name, start, end, attrs]`` lists
(``id`` is the position in ``Tracer.spans``) and written out at the end of a
run.  A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager


def _kron_mb(a, b, *_args, **_kwargs) -> dict:
    """Size of the dense (pq) x (pq) complex Kronecker system, 16 (pq)^2 bytes."""
    p, q = len(a), len(b)
    return {"kron_mb": 16.0 * (p * q) ** 2 / 1e6}


#: Library functions timed by the traced run: (module, function, span attributes).
LAYER_FUNCTIONS = (
    ("core", "validate_stable_dissipative", None),
    ("core", "validate_stable_unitary", None),
    ("equations", "solve_sylvester", _kron_mb),
    ("equations", "solve_stein", _kron_mb),
    ("equations", "zeta_of_minus", None),
    ("equations", "eigenvalue_one_multiplicity", None),
    ("indices", "full_profile", None),
    ("indices", "negative_profile", None),
    ("indices", "discrete_negative_profile", None),
    ("indices", "_kernel_dimension_chain", None),
    ("cli", "main", None),
    ("cli", "load_problem_pair", None),
    ("cli", "build_report", None),
    ("serialize", "canonical_json", None),
    ("cayley", "c2d", None),
    ("cayley", "d2c", None),
    ("oracle", "winding_number", None),
    ("oracle", "schur_cohen_stable", None),
)

LAYER_NAMES = tuple(f"{module}.{name}" for module, name, _ in LAYER_FUNCTIONS)

#: Span whose eigenvalue counts are kernel-chain steps.
CHAIN_SPAN = "indices._kernel_dimension_chain"
CHAIN_STEP_SPAN = "equations.eigenvalue_one_multiplicity"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str, attrs) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs=None):
        """Record the enclosed block as one span; yields the span's id."""
        span = self._open(name, attrs)
        try:
            yield span[0]
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs_of=None):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every function of ``LAYER_FUNCTIONS`` under all names it is bound to."""
        for module_name, fn_name, attrs_of in LAYER_FUNCTIONS:
            module = importlib.import_module(f"whindex.{module_name}")
            original = getattr(module, fn_name)
            traced = self.wrap(f"{module_name}.{fn_name}", original, attrs_of)
            for holder in list(sys.modules.values()):
                name = getattr(holder, "__name__", "")
                if name != "whindex" and not name.startswith("whindex."):
                    continue
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self.patch(holder, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process below the span ``parent``."""
        offset = len(self.spans)
        for sid, sparent, name, start, end, attrs in spans:
            new_parent = parent if sparent is None else sparent + offset
            self.spans.append([sid + offset, new_parent, name, start, end, attrs])

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def aggregate(spans: list[list]) -> dict:
    """Per-name calls, self seconds and largest attribute values, plus chain steps.

    Returns ``{"layers": {name: {"calls", "self_s", "total_s", <attr>...}},
    "chain_steps": int}``.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: dict[str, dict] = {}
    chain_steps = 0
    chains = 0
    for sid, parent, name, start, end, attrs in spans:
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[sid]
        for key, value in (attrs or {}).items():
            entry[key] = max(entry.get(key, 0.0), value)
        if name == CHAIN_SPAN:
            chains += 1
        elif name == CHAIN_STEP_SPAN and parent is not None and spans[parent][2] == CHAIN_SPAN:
            chain_steps += 1
    # The first eigenvalue count of each chain is step 0 (Q itself), not a step.
    return {"layers": layers, "chain_steps": chain_steps - chains}
