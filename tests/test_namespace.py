"""The lazy package namespace and the CLI ``apply`` table: every public name
resolves to its submodule's object, and a CLI command imports only the
modules its op needs."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertsym

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "signals": (
        "CircleSamples", "CircleSignal", "Grid1D", "LineSignal", "LineSpectrum",
        "dft", "idft", "inner_product", "norm",
    ),
    "line_ops": (
        "AffineElement", "AliasingError", "HalfLineSignal", "dilate", "group_compose",
        "group_inverse", "hardy_project", "hilbert_multiplier", "hilbert_pv_quadrature",
        "intertwine_defect", "rep_fourier_side", "rep_natural", "translate",
    ),
    "circle_ops": (
        "MoebiusElement", "RationalScale", "SignalFamily", "annihilator_witness",
        "cauchy_pv", "cauchy_symbol", "circular_convolve", "circular_hilbert",
        "circular_hilbert_quadrature", "mean_functional", "moebius_act",
        "plemelj_project", "semigroup_act", "semigroup_act_samples", "zero_set",
    ),
    "symmetry": (
        "FourierBasis", "LineBasis", "OperatorMatrix", "ScalarDecomposition",
        "classify_pm_hilbert", "commutator_defect", "decompose_circle_operator",
        "decompose_line_operator", "rotation_commutant_analysis",
        "synthesize_commuting_operator",
    ),
    "probes": ("make_probes",),
    "verify": ("SuiteConfig", "SuiteReport", "run_verify"),
}
NAMES = [name for names in PUBLIC.values() for name in names]
SRC = str(Path(hilbertsym.__file__).resolve().parent.parent)


def _run(code):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    ).stdout


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_the_submodule_object(module, name):
    sub = importlib.import_module(f"hilbertsym.{module}")
    assert getattr(hilbertsym, name) is getattr(sub, name)


def test_submodules_are_attributes():
    for module in PUBLIC:
        assert getattr(hilbertsym, module) is importlib.import_module(f"hilbertsym.{module}")


def test_all_dir_and_star_import_cover_the_public_names():
    assert len(NAMES) == 51
    assert sorted(hilbertsym.__all__) == sorted(NAMES)
    listed = dir(hilbertsym)
    assert set(NAMES) <= set(listed)
    assert set(PUBLIC) <= set(listed)
    scope: dict = {}
    exec("from hilbertsym import *", scope)
    for name in NAMES:
        assert scope[name] is getattr(hilbertsym, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        hilbertsym.nope  # noqa: B018


def test_names_are_read_through_on_every_access(monkeypatch):
    # a function rebound in its module is what the package hands out
    from hilbertsym import line_ops

    def wrapped(*args, **kwargs):
        return line_ops.dilate(*args, **kwargs)

    monkeypatch.setattr(line_ops, "dilate", wrapped)
    assert hilbertsym.dilate is wrapped
    monkeypatch.undo()
    assert hilbertsym.dilate is line_ops.dilate
    assert "dilate" not in vars(hilbertsym)


def test_import_loads_no_submodule():
    code = "import sys, hilbertsym; print(sorted(m for m in sys.modules if 'hilbertsym' in m))"
    assert _run(code).strip() == "['hilbertsym']"


def test_argparse_choices_are_the_table():
    from hilbertsym.cli import APPLY, _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    op = next(a for a in sub.choices["apply"]._actions if a.dest == "op")
    assert list(op.choices) == list(APPLY)


def test_every_row_names_a_module_and_a_signal_class():
    from hilbertsym import signals
    from hilbertsym.cli import APPLY

    for row in APPLY.values():
        assert isinstance(getattr(signals, row.input), type)
        importlib.import_module(f"hilbertsym.{row.module}")
        assert set(row.needs) <= set(row.params or row.needs)


_MODULES_AFTER = """
import runpy, sys
sys.argv = ["hilbertsym"] + {argv!r}
try:
    runpy.run_module("hilbertsym.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(sorted(m for m in sys.modules if m.startswith("hilbertsym.")))
"""


def _modules_after(argv):
    """Package modules loaded by ``python -m hilbertsym.cli ARGV``."""
    out = _run(_MODULES_AFTER.format(argv=[str(a) for a in argv])).strip().splitlines()[-1]
    return set(ast.literal_eval(out))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    from hilbertsym import CircleSignal, FourierBasis, Grid1D, LineSignal
    from hilbertsym.sigio import save_operator, save_signal
    from hilbertsym.symmetry import synthesize_commuting_operator

    d = tmp_path_factory.mktemp("lazy")
    g = Grid1D.from_interval(-8.0, 8.0, 64)
    save_signal(LineSignal(g, (g.positions() ** 2 + 1.0) ** -1), d / "line.json")
    save_signal(CircleSignal.from_dict({1: 1.0, -2: 0.5j}, K=4), d / "coeffs.json")
    save_operator(synthesize_commuting_operator(1.0, 0.5, FourierBasis(4)), d / "op.json")
    return d


def test_version_loads_no_package_module():
    assert _modules_after(["--version"]) == set()


def test_line_apply_loads_only_the_line_layer(files):
    loaded = _modules_after(["apply", "hilbert", "--in", files / "line.json",
                             "--out", files / "out.json"])
    assert loaded == {"hilbertsym.signals", "hilbertsym.sigio", "hilbertsym.line_ops"}


def test_circle_apply_loads_only_the_circle_layer(files):
    loaded = _modules_after(["apply", "semigroup", "--in", files / "coeffs.json",
                             "--out", files / "out.json", "--q", "2", "--p", "3"])
    assert loaded == {"hilbertsym.signals", "hilbertsym.sigio", "hilbertsym.circle_ops"}


def test_decompose_adds_only_the_engine(files):
    loaded = _modules_after(["decompose", "--in", files / "op.json", "--space", "circle"])
    assert loaded == {"hilbertsym.signals", "hilbertsym.sigio", "hilbertsym.symmetry",
                      "hilbertsym.line_ops", "hilbertsym.circle_ops"}
