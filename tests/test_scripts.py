"""The example scripts run end to end, and the commutation sweep's
intertwining column is a real measurement at every scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertsym

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(hilbertsym.__file__).resolve().parent.parent)


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def sweep_rows():
    lines = _run("commutation_sweep.py", "--n", "1024", "--probes", "2").splitlines()
    assert lines[0].split() == ["a", "b", "commutator", "intertwine"]
    return [tuple(float(v) for v in line.split()) for line in lines[1:]]


@pytest.mark.parametrize("a", [1.0, 2.0, 4.0])
def test_sweep_intertwines_exactly_at_integer_scales(sweep_rows, a):
    column = [iw for sa, _, _, iw in sweep_rows if sa == a]
    assert column and max(column) <= 1e-10


def test_sweep_measures_interpolation_at_a_non_integer_scale(sweep_rows):
    # above roundoff: the right-hand side is not dilate's own chirp-z
    column = [iw for sa, _, _, iw in sweep_rows if sa == 0.5]
    assert column and all(1e-12 < iw < 1e-3 for iw in column)


def test_decompose_demo_runs():
    assert "recovered" in _run("decompose_demo.py")


def test_engine_layers_prints_one_row_per_size():
    lines = _run("engine_layers.py", "--sizes", "64", "96", "--repeat", "1").splitlines()
    assert lines[0].split()[:5] == ["n", "synthesize", "decompose", "classify", "commutator"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["64", "96"]
    assert all(len(row) == 5 and all(float(t) > 0.0 for t in row[1:]) for row in rows)
