"""JSON file formats for signals and operator matrices.

Signal files:

    {"type": "line",           "grid": {"x_min": ..., "n": ..., "dx": ...}, "values": [[re, im], ...]}
    {"type": "circle-coeffs",  "grid": {"K": ...},                          "values": [[re, im], ...]}
    {"type": "circle-samples", "grid": {"n": ...},                          "values": [[re, im], ...]}

values are ordered by sample index (line, circle-samples) or by k from -K to
K (circle-coeffs).  Floats are serialised by the default shortest
round-tripping decimal representation, which preserves at least 17
significant digits of information.

Operator files:

    {"dim": ..., "basis": {"kind": "fourier", "K": ...} |
                          {"kind": "line", "n": ..., "x_min": ..., "dx": ...},
     "entries": [[re, im], ...]}   # row-major, dim*dim pairs
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


def _pairs(values: np.ndarray) -> list:
    if values.ndim != 1:
        raise ValueError("a file holds one signal, not a batch")
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def _unpairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("values must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def signal_to_dict(sig) -> dict:
    if isinstance(sig, LineSignal):
        g = sig.grid
        return {
            "type": "line",
            "grid": {"x_min": g.x_min, "n": g.n, "dx": g.dx},
            "values": _pairs(sig.values),
        }
    if isinstance(sig, CircleSignal):
        return {"type": "circle-coeffs", "grid": {"K": sig.K}, "values": _pairs(sig.coeffs)}
    if isinstance(sig, CircleSamples):
        return {"type": "circle-samples", "grid": {"n": sig.n}, "values": _pairs(sig.values)}
    raise ValueError(f"unsupported signal type {type(sig).__name__}")


def _object(doc: dict, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise TypeError(f"field {key!r} must be an object, got {type(value).__name__}")
    return value


def signal_from_dict(doc: dict):
    try:
        kind = doc["type"]
        grid = _object(doc, "grid")
        values = _unpairs(doc["values"])
        if kind == "line":
            return LineSignal(Grid1D(x_min=grid["x_min"], n=int(grid["n"]), dx=grid["dx"]), values)
        if kind == "circle-coeffs":
            K = int(grid["K"])
            if len(values) != 2 * K + 1:
                raise ValueError(
                    f"expected {2 * K + 1} coefficients for K={K}, got {len(values)}"
                )
            return CircleSignal(values)
        if kind == "circle-samples":
            n = int(grid["n"])
            if len(values) != n:
                raise ValueError(f"expected {n} samples, got {len(values)}")
            return CircleSamples(values)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
    raise ValueError(f"unknown signal type {kind!r}")


def save_signal(sig, path):
    Path(path).write_text(json.dumps(signal_to_dict(sig)) + "\n")


def load_signal(path):
    return signal_from_dict(json.loads(Path(path).read_text()))


def operator_to_dict(op: OperatorMatrix) -> dict:
    from .symmetry import FourierBasis

    if isinstance(op.basis, FourierBasis):
        basis = {"kind": "fourier", "K": op.basis.K}
    else:
        basis = {"kind": "line", "n": op.basis.n, "x_min": op.basis.x_min, "dx": op.basis.dx}
    return {"dim": op.dim, "basis": basis, "entries": _pairs(op.entries.reshape(-1))}


def operator_from_dict(doc: dict) -> OperatorMatrix:
    from .symmetry import FourierBasis, LineBasis, OperatorMatrix

    try:
        dim = int(doc["dim"])
        basis_doc = _object(doc, "basis")
        entries = _unpairs(doc["entries"])
        if entries.shape[0] != dim * dim:
            raise ValueError(f"expected {dim * dim} row-major entries, got {entries.shape[0]}")
        kind = basis_doc.get("kind")
        if kind == "fourier":
            basis = FourierBasis(K=int(basis_doc["K"]))
        elif kind == "line":
            basis = LineBasis(
                n=int(basis_doc["n"]),
                x_min=float(basis_doc["x_min"]),
                dx=float(basis_doc["dx"]),
            )
        else:
            raise ValueError(f"unknown basis kind {kind!r}")
        return OperatorMatrix(basis, entries.reshape(dim, dim))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed operator document: {exc}") from exc


def save_operator(op: OperatorMatrix, path):
    Path(path).write_text(json.dumps(operator_to_dict(op)) + "\n")


def load_operator(path) -> OperatorMatrix:
    return operator_from_dict(json.loads(Path(path).read_text()))
