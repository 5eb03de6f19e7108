import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbertsym import (
    CircleSamples,
    CircleSignal,
    FourierBasis,
    Grid1D,
    LineBasis,
    LineSignal,
    OperatorMatrix,
    decompose_circle_operator,
    decompose_line_operator,
    synthesize_commuting_operator,
)
from hilbertsym.cli import main
from hilbertsym.sigio import (
    _signal_head,
    load_operator,
    load_signal,
    operator_from_dict,
    operator_to_dict,
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


# --- the writers: byte for byte the json.dumps of the document, at a cost
# that follows the number of distinct entries

_TINY = 2.2250738585072014e-308  # smallest normal double
_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, _TINY / 3, -_TINY / 7, _TINY, 1e300, -1e300, 1e-300, -1e-300,
    1.0, -2.0, 3.0, 123456789.0, 2.0**53,
    # repr switches to exponent form at 1e16 and below 1e-4
    1e16, np.nextafter(1e16, 0.0), -1e16, 1e-4, np.nextafter(1e-4, 0.0), 1e-5, -1e-5,
]
_floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
# scalars whose lam I + eta H stays finite on small bases
_moderate = st.sampled_from(_SPECIAL_FLOATS) | st.floats(-1e300, 1e300)


@st.composite
def _repetitive(draw, size, floats=_floats):
    """``size`` complex values whose parts come from a small pool of floats."""
    pool = draw(st.lists(floats, min_size=1, max_size=5))
    pool += draw(st.sampled_from([[], [0.0, -0.0]]))  # equal values with different reprs
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2 * size, max_size=2 * size))
    return np.array([pool[i] for i in picks]).view(complex)


@st.composite
def _signals(draw):
    kind = draw(st.sampled_from(["line", "circle-coeffs", "circle-samples"]))
    if kind == "line":
        n = draw(st.integers(2, 24))
        grid = Grid1D(x_min=draw(_floats), n=n, dx=draw(_floats.filter(lambda v: v > 0)))
        return LineSignal(grid, draw(_repetitive(n)))
    if kind == "circle-coeffs":
        return CircleSignal(draw(_repetitive(2 * draw(st.integers(0, 12)) + 1)))
    return CircleSamples(draw(_repetitive(draw(st.integers(1, 24)))))


@st.composite
def _operators(draw):
    if draw(st.booleans()):
        basis = FourierBasis(draw(st.integers(0, 4)))
    else:
        dx = draw(_floats.filter(lambda v: v > 0))
        basis = LineBasis(draw(st.integers(2, 8)), draw(_floats), dx)
    if draw(st.booleans()):  # lam I + eta H: a circulant on the line, a diagonal on the circle
        lam, eta = draw(_repetitive(2, _moderate))
        return synthesize_commuting_operator(lam, eta, basis)
    return OperatorMatrix(basis, draw(_repetitive(basis.dim**2)).reshape(basis.dim, basis.dim))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sig=_signals(), op=_operators())
def test_writers_match_the_json_dumps_of_the_document(sig, op):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        save_signal(sig, path)
        assert path.read_bytes() == (json.dumps(signal_to_dict(sig)) + "\n").encode()
        save_operator(op, path)
        assert path.read_bytes() == (json.dumps(operator_to_dict(op)) + "\n").encode()


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sig=_signals(), op=_operators())
@example(
    sig=CircleSignal(np.array([complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)])),
    op=OperatorMatrix(FourierBasis(0), np.array([[complex(-0.0, 0.0)]])),
)
def test_load_returns_the_bits_save_wrote(sig, op):
    # signed zeros included: -0.0 == 0.0, but a load must not turn one into the other
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        save_signal(sig, path)
        head, values = _signal_head(sig)
        back = load_signal(path)
        assert _signal_head(back)[0] == head
        np.testing.assert_array_equal(_bits(_signal_head(back)[1]), _bits(values))
        save_operator(op, path)
        back = load_operator(path)
        assert back.basis == op.basis
        np.testing.assert_array_equal(_bits(back.entries), _bits(op.entries))


def test_values_may_be_any_float_array_of_pairs():
    pairs = np.array([[-0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
    for values in (np.asfortranarray(pairs), pairs.T.copy().T, pairs.astype(np.float32)):
        sig = signal_from_dict({"type": "circle-samples", "grid": {"n": 3}, "values": values})
        np.testing.assert_array_equal(_bits(sig.values), _bits(pairs.view(complex)[:, 0]))


def test_save_rejects_a_batch_without_writing(tmp_path):
    g = Grid1D(x_min=-1.0, n=4, dx=0.5)
    path = tmp_path / "f.json"
    with pytest.raises(ValueError, match="not a batch"):
        save_signal(LineSignal(g, np.ones((2, 4))), path)
    assert not path.exists()


@pytest.fixture(scope="module")
def line_commutant():
    basis = LineBasis(512, -40.0, 80.0 / 512)
    return synthesize_commuting_operator(0.3 - 1.1j, 0.7 + 0.2j, basis)


def test_save_operator_peak_memory_is_a_few_file_sizes(tmp_path, line_commutant):
    # json.dumps of the n*n nested list of operator_to_dict(op) peaked at 5-6x
    op = line_commutant
    path = tmp_path / "op.json"
    tracemalloc.start()
    try:
        save_operator(op, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size


@pytest.mark.parametrize("basis", [LineBasis(64, -40.0, 1.25), FourierBasis(16)], ids=repr)
def test_a_synthesized_operator_saves_as_its_dense_copy(tmp_path, basis):
    # the symbol it keeps is not written: the file holds the entries
    op = synthesize_commuting_operator(0.3 - 1.1j, 0.7 + 0.2j, basis)
    save_operator(op, tmp_path / "synth.json")
    save_operator(OperatorMatrix(basis, op.entries), tmp_path / "dense.json")
    assert (tmp_path / "synth.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


@pytest.mark.parametrize("space", ["line", "circle"])
def test_decompose_reads_what_save_operator_writes(tmp_path, capsys, space, line_commutant):
    if space == "line":
        op, decompose = line_commutant, decompose_line_operator
    else:
        op = synthesize_commuting_operator(-0.4 + 0.9j, 1.3 - 0.2j, FourierBasis(128))
        decompose = decompose_circle_operator
    op = OperatorMatrix(op.basis, op.entries)  # the loaded file is dense, as this copy
    path = tmp_path / "op.json"
    save_operator(op, path)
    assert main(["decompose", "--in", str(path), "--space", space]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(decompose(op).to_json_dict()) + "\n"
    back = load_operator(path)
    assert out == json.dumps(decompose(back).to_json_dict()) + "\n"
    np.testing.assert_array_equal(back.entries, op.entries)
    # the loaded operator is found to be the multiplier it is, as the copy is
    assert back._symbol is not None and back._symbol.tobytes() == op._symbol.tobytes()


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


@pytest.mark.parametrize(
    "space, basis, field",
    [
        ("circle", {"kind": "fourier", "K": -1}, "K"),
        ("line", {"kind": "line", "n": 2, "x_min": 0.0, "dx": 0.0}, "dx"),
    ],
)
def test_decompose_rejects_an_invalid_basis(tmp_path, capsys, space, basis, field):
    dim = 1 if space == "circle" else 2
    doc = {"dim": dim, "basis": basis, "entries": [[1.0, 0.0]] * dim * dim}
    assert _exit_code(tmp_path, doc, ["decompose", "--space", space]) == 1
    assert f" {field} " in capsys.readouterr().err


_SIZE_FIELDS = [  # (template, the object holding the size or None for the document, field)
    (_SIGNAL_TEMPLATES[0], "grid", "n"),
    (_SIGNAL_TEMPLATES[1], "grid", "K"),
    (_SIGNAL_TEMPLATES[2], "grid", "n"),
    (_OPERATOR_TEMPLATES[0], None, "dim"),
    (_OPERATOR_TEMPLATES[0], "basis", "K"),
    (_OPERATOR_TEMPLATES[1], "basis", "n"),
]


@pytest.mark.parametrize("spoil", [lambda v: v + 0.9, float, str, lambda v: True])
@pytest.mark.parametrize("template, holder, field", _SIZE_FIELDS)
def test_sizes_load_only_as_json_integers(template, holder, field, spoil):
    doc = json.loads(json.dumps(template))
    from_dict = operator_from_dict if "entries" in doc else signal_from_dict
    from_dict(doc)  # the template loads
    sizes = doc[holder] if holder else doc
    sizes[field] = spoil(sizes[field])
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
        from_dict(json.loads(json.dumps(doc)))


_COORDINATE_FIELDS = [  # (template, the object holding the coordinate, field)
    (template, holder, field)
    for template, holder in ((_SIGNAL_TEMPLATES[0], "grid"), (_OPERATOR_TEMPLATES[1], "basis"))
    for field in ("x_min", "dx")
]


@pytest.mark.parametrize("spoil", [str, lambda v: True, lambda v: False, lambda v: None,
                                   lambda v: [v]])
@pytest.mark.parametrize("template, holder, field", _COORDINATE_FIELDS)
def test_coordinates_load_only_as_json_numbers(template, holder, field, spoil):
    doc = json.loads(json.dumps(template))
    from_dict = operator_from_dict if "entries" in doc else signal_from_dict
    doc[holder][field] = spoil(doc[holder][field])
    with pytest.raises(ValueError, match=f"malformed .* document: field '{field}' must be a "
                                         "number, got "):
        from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("template, holder, field", _COORDINATE_FIELDS)
def test_integer_coordinates_load(template, holder, field):
    doc = json.loads(json.dumps(template))
    from_dict = operator_from_dict if "entries" in doc else signal_from_dict
    doc[holder][field] = int(doc[holder][field]) or 1
    loaded = from_dict(json.loads(json.dumps(doc)))
    grid = loaded.grid if "entries" not in doc else loaded.basis
    assert getattr(grid, field) == doc[holder][field]


@pytest.mark.parametrize("x_min, dx", [(True, True), ("0", 0.5), (-1.0, "0.5"), (None, 0.5)])
def test_apply_rejects_a_line_file_with_non_number_coordinates(tmp_path, capsys, x_min, dx):
    doc = json.loads(json.dumps(_SIGNAL_TEMPLATES[0]))
    doc["grid"].update(x_min=x_min, dx=dx)
    out = tmp_path / "out.json"
    assert _exit_code(tmp_path, doc, ["apply", "hilbert", "--out", str(out)]) == 1
    assert not out.exists()
    field = "dx" if isinstance(x_min, float) else "x_min"
    assert f"field '{field}' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("x_min, dx", [(True, 1.0), ("0", 1.0), (0.0, False), (0.0, "1")])
def test_decompose_rejects_a_line_basis_with_non_number_coordinates(tmp_path, capsys, x_min, dx):
    doc = json.loads(json.dumps(_OPERATOR_TEMPLATES[1]))
    doc["basis"].update(x_min=x_min, dx=dx)
    assert _exit_code(tmp_path, doc, ["decompose", "--space", "line"]) == 1
    field = "dx" if isinstance(x_min, float) else "x_min"
    assert f"field '{field}' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1024.9, "1024"])
def test_apply_rejects_a_line_file_with_a_non_integer_size(tmp_path, capsys, n):
    grid = Grid1D.from_interval(-40.0, 40.0, 1024)
    x = grid.positions()
    inp, out = tmp_path / "f.json", tmp_path / "out.json"
    save_signal(LineSignal(grid, np.exp(-x**2)), inp)
    assert main(["apply", "hilbert", "--in", str(inp), "--out", str(out)]) == 0
    doc = json.loads(inp.read_text())
    doc["grid"]["n"] = n
    inp.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["apply", "hilbert", "--in", str(inp), "--out", str(out)]) == 1
    assert "field 'n' must be an integer" in capsys.readouterr().err


def test_non_object_grid_and_basis_are_malformed():
    with pytest.raises(ValueError, match="malformed signal document"):
        signal_from_dict({"type": "line", "grid": [1, 2], "values": [[0, 0]]})
    with pytest.raises(ValueError, match="malformed operator document"):
        operator_from_dict({"dim": 1, "basis": ["fourier"], "entries": [[0, 0]]})
