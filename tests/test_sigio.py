import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertsym import (
    CircleSamples,
    CircleSignal,
    FourierBasis,
    Grid1D,
    LineBasis,
    LineSignal,
    OperatorMatrix,
)
from hilbertsym.cli import main
from hilbertsym.sigio import (
    load_operator,
    load_signal,
    operator_from_dict,
    save_operator,
    save_signal,
    signal_from_dict,
    signal_to_dict,
)


def test_line_signal_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    g = Grid1D(x_min=-1.25, n=16, dx=0.173)
    f = LineSignal(g, rng.normal(size=16) + 1j * rng.normal(size=16))
    path = tmp_path / "f.json"
    save_signal(f, path)
    back = load_signal(path)
    assert isinstance(back, LineSignal)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)  # repr round-trips floats


def test_circle_signals_round_trip(tmp_path):
    c = CircleSignal.from_dict({-2: 1j, 0: 0.25, 2: -3.0}, K=2)
    path = tmp_path / "c.json"
    save_signal(c, path)
    back = load_signal(path)
    assert isinstance(back, CircleSignal)
    np.testing.assert_array_equal(back.coeffs, c.coeffs)

    s = CircleSamples(np.exp(1j * np.linspace(0, 2, 8)))
    save_signal(s, path)
    back = load_signal(path)
    assert isinstance(back, CircleSamples)
    np.testing.assert_array_equal(back.values, s.values)


def test_signal_document_shape():
    c = CircleSignal.from_dict({1: 1.0}, K=1)
    doc = signal_to_dict(c)
    assert doc["type"] == "circle-coeffs"
    assert doc["grid"] == {"K": 1}
    assert doc["values"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        signal_from_dict({"type": "line"})
    with pytest.raises(ValueError):
        signal_from_dict({"type": "ring", "grid": {"K": 1}, "values": [[0, 0]]})
    with pytest.raises(ValueError):
        signal_from_dict({"type": "circle-coeffs", "grid": {"K": 1}, "values": [[0, 0]]})
    with pytest.raises(ValueError):
        operator_from_dict({"dim": 2, "basis": {"kind": "fourier", "K": 1}, "entries": [[0, 0]]})
    with pytest.raises(ValueError):
        operator_from_dict({"dim": 1, "basis": {"kind": "cube"}, "entries": [[0, 0]]})


def test_operator_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    for basis in (FourierBasis(2), LineBasis(5, -1.0, 0.4)):
        dim = basis.dim
        op = OperatorMatrix(basis, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        path = tmp_path / "op.json"
        save_operator(op, path)
        back = load_operator(path)
        assert back.basis == basis
        np.testing.assert_array_equal(back.entries, op.entries)


def test_json_is_plain_and_row_major(tmp_path):
    op = OperatorMatrix(FourierBasis(1), np.arange(9, dtype=complex).reshape(3, 3))
    path = tmp_path / "op.json"
    save_operator(op, path)
    doc = json.loads(path.read_text())
    assert doc["dim"] == 3
    assert doc["entries"][1] == [1.0, 0.0]  # row-major: entry (0,1) comes second
    assert doc["entries"][3] == [3.0, 0.0]


def test_pairs_match_the_per_element_listing():
    from hilbertsym.sigio import _pairs

    rng = np.random.default_rng(7)
    z = rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, size=64) + 1j * rng.normal(size=64)
    z[:4] = [0.0, -0.0, complex(-0.0, -0.0), 5e-324j]
    g = Grid1D(x_min=-1.0, n=64, dx=0.03125)
    op = OperatorMatrix(FourierBasis(3), z[:49].reshape(7, 7))
    for values in (LineSignal(g, z).values, CircleSignal(z[:63]).coeffs,
                   op.entries.reshape(-1), op.entries.T.reshape(-1)):
        old = [[float(v.real), float(v.imag)] for v in values]
        assert json.dumps(_pairs(values)) == json.dumps(old)
    with pytest.raises(ValueError, match="not a batch"):
        _pairs(np.zeros((2, 3), dtype=complex))


# --- malformed documents through the CLI: a usage (1) or i/o (2) exit, never
# the internal-error exit 4

_SIGNAL_TEMPLATES = (
    {"type": "line", "grid": {"x_min": -1.0, "n": 4, "dx": 0.5}, "values": [[1, 0]] * 4},
    {"type": "circle-coeffs", "grid": {"K": 1}, "values": [[1, 0]] * 3},
    {"type": "circle-samples", "grid": {"n": 4}, "values": [[1, 0]] * 4},
)
_OPERATOR_TEMPLATES = (
    {"dim": 3, "basis": {"kind": "fourier", "K": 1}, "entries": [[1, 0]] * 9},
    {"dim": 2, "basis": {"kind": "line", "n": 2, "x_min": 0.0, "dx": 1.0}, "entries": [[1, 0]] * 4},
)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_non_objects = _json_values.filter(lambda v: not isinstance(v, dict))
_non_lists = _json_values.filter(lambda v: not isinstance(v, list))
# values no int()/float() conversion accepts
_non_numbers = st.none() | st.lists(_json_values, max_size=2) | st.dictionaries(
    st.text(max_size=3), _json_values, max_size=2
)


@st.composite
def _malformed(draw, templates, sub_key, list_key):
    doc = json.loads(json.dumps(draw(st.sampled_from(templates))))
    how = draw(st.sampled_from(["doc", "sub", "sub-field", "drop-sub-field", "list"]))
    if how == "doc":
        return draw(_non_objects)
    if how == "sub":
        doc[sub_key] = draw(_non_objects)
    elif how == "list":
        doc[list_key] = draw(_non_lists)
    else:
        field = draw(st.sampled_from(sorted(doc[sub_key])))
        if how == "drop-sub-field":
            del doc[sub_key][field]
        else:
            doc[sub_key][field] = draw(_non_numbers)
    return doc


def _exit_code(tmp, doc, argv):
    inp = Path(tmp) / "in.json"
    inp.write_text(json.dumps(doc))
    return main([*argv, "--in", str(inp)])


@settings(max_examples=150, deadline=None)
@given(
    doc=_malformed(_SIGNAL_TEMPLATES, "grid", "values"),
    op=st.sampled_from([["hilbert"], ["dilate", "--a", "2"], ["circular-hilbert"],
                        ["moebius", "--blaschke-a", "0.3"]]),
)
def test_apply_rejects_malformed_signal_documents(doc, op):
    with tempfile.TemporaryDirectory() as tmp:
        code = _exit_code(tmp, doc, ["apply", *op, "--out", str(Path(tmp) / "out.json")])
    assert code in (1, 2)


@settings(max_examples=150, deadline=None)
@given(
    doc=_malformed(_OPERATOR_TEMPLATES, "basis", "entries"),
    space=st.sampled_from(["line", "circle"]),
)
def test_decompose_rejects_malformed_operator_documents(doc, space):
    with tempfile.TemporaryDirectory() as tmp:
        code = _exit_code(tmp, doc, ["decompose", "--space", space])
    assert code in (1, 2)


def test_non_object_grid_and_basis_are_malformed():
    with pytest.raises(ValueError, match="malformed signal document"):
        signal_from_dict({"type": "line", "grid": [1, 2], "values": [[0, 0]]})
    with pytest.raises(ValueError, match="malformed operator document"):
        operator_from_dict({"dim": 1, "basis": ["fourier"], "entries": [[0, 0]]})
