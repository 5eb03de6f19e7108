"""JSON file formats for signals and operator matrices.

Signal files:

    {"type": "line",           "grid": {"x_min": ..., "n": ..., "dx": ...}, "values": [[re, im], ...]}
    {"type": "circle-coeffs",  "grid": {"K": ...},                          "values": [[re, im], ...]}
    {"type": "circle-samples", "grid": {"n": ...},                          "values": [[re, im], ...]}

values are ordered by sample index (line, circle-samples) or by k from -K to
K (circle-coeffs).  The sizes n, K and dim are JSON integers; a float, string
or boolean there makes the document malformed.  The coordinates x_min and dx
(of a line signal or a line basis) are JSON numbers, an integer or a float; a
string or boolean there makes the document malformed too.  Floats are
written as their shortest round-tripping decimal representation (``repr``,
at most 17 significant digits), so a file loads back to equal values.

Operator files:

    {"dim": ..., "basis": {"kind": "fourier", "K": ...} |
                          {"kind": "line", "n": ..., "x_min": ..., "dx": ...},
     "entries": [[re, im], ...]}   # row-major, dim*dim pairs

The writers produce exactly the bytes of ``json.dumps(signal_to_dict(x))``
and ``json.dumps(operator_to_dict(op))`` plus a newline, but format each
distinct complex value once and join the pieces in order, so the cost grows
with the number of distinct entries.  An operator that commutes with the
ax+b action has few: a circulant on the line (at most n distinct values
among n*n), a diagonal on the circle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .signals import CircleSamples, CircleSignal, Grid1D, LineSignal

if TYPE_CHECKING:  # the engine is imported only by the operator functions
    from .symmetry import OperatorMatrix

__all__ = [
    "save_signal",
    "load_signal",
    "signal_to_dict",
    "signal_from_dict",
    "save_operator",
    "load_operator",
    "operator_to_dict",
    "operator_from_dict",
]


def _flat(values: np.ndarray) -> np.ndarray:
    if values.ndim != 1:
        raise ValueError("a file holds one signal, not a batch")
    return np.ascontiguousarray(values, dtype=complex)


def _pairs(values: np.ndarray) -> list:
    return _flat(values).view(float).reshape(-1, 2).tolist()


def _pairs_text(values: np.ndarray) -> str:
    """``json.dumps(_pairs(values))``, formatting each distinct value once.

    Entries are grouped by their bit pattern, not by value: -0.0 == 0.0 but
    their reprs differ.  The numeric sort puts equal values next to each
    other, and a new group starts wherever the bits change, so a group never
    mixes two patterns (one pattern split over several groups is harmless).
    """
    flat = _flat(values)
    order = np.argsort(flat)
    bits = flat.view(np.uint64).reshape(-1, 2)[order]
    start = np.empty(flat.size, dtype=bool)
    start[:1] = True
    np.any(bits[1:] != bits[:-1], axis=1, out=start[1:])
    group = np.empty(flat.size, dtype=np.intp)
    group[order] = np.cumsum(start) - 1
    reps = _pairs(flat[order[start]])
    toks = np.array(["[%r, %r]" % (re, im) for re, im in reps], dtype=object)
    return "[" + ", ".join(toks[group].tolist()) + "]"


def _write(path, head: dict, key: str, values: np.ndarray):
    """Write ``head`` with ``key: _pairs(values)`` appended as its last key,
    byte for byte as ``json.dumps`` writes the whole document."""
    text = json.dumps(head)
    Path(path).write_text(f'{text[:-1]}, "{key}": {_pairs_text(values)}}}\n')


def _unpairs(pairs) -> np.ndarray:
    arr = np.ascontiguousarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("values must be a list of [re, im] pairs")
    return arr.view(complex).reshape(-1)  # keeps the sign of a zero part


def _signal_head(sig) -> tuple:
    """The signal document without its last key, and that key's values."""
    if isinstance(sig, LineSignal):
        g = sig.grid
        return {"type": "line", "grid": {"x_min": g.x_min, "n": g.n, "dx": g.dx}}, sig.values
    if isinstance(sig, CircleSignal):
        return {"type": "circle-coeffs", "grid": {"K": sig.K}}, sig.coeffs
    if isinstance(sig, CircleSamples):
        return {"type": "circle-samples", "grid": {"n": sig.n}}, sig.values
    raise ValueError(f"unsupported signal type {type(sig).__name__}")


def signal_to_dict(sig) -> dict:
    head, values = _signal_head(sig)
    return {**head, "values": _pairs(values)}


_KINDS = {dict: ("an object", dict), int: ("an integer", int), float: ("a number", (int, float))}


def _field(doc: dict, key: str, kind: type):
    """``doc[key]``, which must be a JSON object (kind dict), integer (int)
    or number (float: an integer or a float)."""
    value = doc[key]
    name, types = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise TypeError(f"field {key!r} must be {name}, got {type(value).__name__}")
    return value


def signal_from_dict(doc: dict):
    try:
        kind = doc["type"]
        grid = _field(doc, "grid", dict)
        values = _unpairs(doc["values"])
        if kind == "line":
            return LineSignal(Grid1D(_field(grid, "x_min", float), _field(grid, "n", int),
                                     _field(grid, "dx", float)), values)
        if kind == "circle-coeffs":
            K = _field(grid, "K", int)
            if len(values) != 2 * K + 1:
                raise ValueError(
                    f"expected {2 * K + 1} coefficients for K={K}, got {len(values)}"
                )
            return CircleSignal(values)
        if kind == "circle-samples":
            n = _field(grid, "n", int)
            if len(values) != n:
                raise ValueError(f"expected {n} samples, got {len(values)}")
            return CircleSamples(values)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
    raise ValueError(f"unknown signal type {kind!r}")


def save_signal(sig, path):
    head, values = _signal_head(sig)
    _write(path, head, "values", values)


def load_signal(path):
    return signal_from_dict(json.loads(Path(path).read_text()))


def _operator_head(op: OperatorMatrix) -> dict:
    """The operator document without its last key, ``entries``."""
    from .symmetry import FourierBasis

    if isinstance(op.basis, FourierBasis):
        basis = {"kind": "fourier", "K": op.basis.K}
    else:
        basis = {"kind": "line", "n": op.basis.n, "x_min": op.basis.x_min, "dx": op.basis.dx}
    return {"dim": op.dim, "basis": basis}


def operator_to_dict(op: OperatorMatrix) -> dict:
    return {**_operator_head(op), "entries": _pairs(op.entries.reshape(-1))}


def operator_from_dict(doc: dict) -> OperatorMatrix:
    from .symmetry import FourierBasis, LineBasis, OperatorMatrix

    try:
        dim = _field(doc, "dim", int)
        basis_doc = _field(doc, "basis", dict)
        entries = _unpairs(doc["entries"])
        if entries.shape[0] != dim * dim:
            raise ValueError(f"expected {dim * dim} row-major entries, got {entries.shape[0]}")
        kind = basis_doc.get("kind")
        if kind == "fourier":
            basis = FourierBasis(K=_field(basis_doc, "K", int))
        elif kind == "line":
            basis = LineBasis(
                n=_field(basis_doc, "n", int),
                x_min=float(_field(basis_doc, "x_min", float)),
                dx=float(_field(basis_doc, "dx", float)),
            )
        else:
            raise ValueError(f"unknown basis kind {kind!r}")
        return OperatorMatrix(basis, entries.reshape(dim, dim))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc


def save_operator(op: OperatorMatrix, path):
    _write(path, _operator_head(op), "entries", op.entries.reshape(-1))


def load_operator(path) -> OperatorMatrix:
    return operator_from_dict(json.loads(Path(path).read_text()))
