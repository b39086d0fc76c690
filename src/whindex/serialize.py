"""JSON-friendly encoding of the library's values.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major nested arrays of such pairs.  The canonical text form renders
every float with 17 significant digits so output is byte-stable and
round-trips losslessly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import Realization
from .errors import StructureError
from .realizations import BlaschkeSpec


def complex_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(value, where: str = "value") -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise StructureError(f"{where}: expected a [re, im] pair, got {value!r}")
    re, im = value
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise StructureError(f"{where}: entries of a [re, im] pair must be numbers")
    return complex(float(re), float(im))


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of ``[re, im]`` pairs, each entry as ``complex_to_json`` writes it."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list):
        raise StructureError(f"{where}: expected a nested array")
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise StructureError(f"{where}[{i}]: expected an array of [re, im] pairs")
        entries = [complex_from_json(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise StructureError(f"{where}[{i}]: ragged row (expected width {width})")
        parsed.append(entries)
    if not parsed:
        return np.zeros((0, 0), dtype=complex)
    return np.array(parsed, dtype=complex)


def realization_to_json(r: Realization) -> dict:
    return {
        "flavor": r.flavor,
        "a": matrix_to_json(r.a),
        "b": matrix_to_json(r.b),
        "c": matrix_to_json(r.c),
        "d": matrix_to_json(r.d),
    }


def realization_from_json(payload, where: str = "realization") -> Realization:
    if not isinstance(payload, dict):
        raise StructureError(f"{where}: expected an object")
    for key in ("flavor", "a", "b", "c", "d"):
        if key not in payload:
            raise StructureError(f"{where}.{key}: missing field")
    flavor = payload["flavor"]
    if flavor not in ("continuous", "discrete"):
        raise StructureError(f"{where}.flavor: must be 'continuous' or 'discrete', got {flavor!r}")
    d = matrix_from_json(payload["d"], f"{where}.d")
    a = matrix_from_json(payload["a"], f"{where}.a")
    b = matrix_from_json(payload["b"], f"{where}.b")
    c = matrix_from_json(payload["c"], f"{where}.c")
    try:
        return Realization(a, b, c, d, flavor)
    except StructureError as exc:
        raise StructureError(f"{where}: {exc}") from exc


def blaschke_spec_to_json(spec: BlaschkeSpec) -> dict:
    return {
        "rho": complex_to_json(spec.rho),
        "poles": [complex_to_json(p) for p in spec.poles],
    }


def blaschke_spec_from_json(payload, where: str = "spec") -> BlaschkeSpec:
    if not isinstance(payload, dict):
        raise StructureError(f"{where}: expected an object")
    if "rho" not in payload:
        raise StructureError(f"{where}.rho: missing field")
    if "poles" not in payload or not isinstance(payload["poles"], list):
        raise StructureError(f"{where}.poles: expected an array of [re, im] pairs")
    rho = complex_from_json(payload["rho"], f"{where}.rho")
    poles = [complex_from_json(p, f"{where}.poles[{k}]") for k, p in enumerate(payload["poles"])]
    try:
        return BlaschkeSpec(rho, tuple(poles))
    except StructureError as exc:
        raise StructureError(f"{where}: {exc}") from exc


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise StructureError(f"cannot serialize non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        # Keep integral floats readable; 17 significant digits otherwise.
        return format(x, ".1f")
    return format(x, ".17g")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed float format, no whitespace."""
    parts: list[str] = []
    _write_canonical(obj, parts)
    return "".join(parts)


def _write_canonical(obj: Any, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    else:
        raise StructureError(f"cannot serialize object of type {type(obj).__name__}")
