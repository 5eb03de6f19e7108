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
    layers = ["synthesize", "decompose", "decompose_copy", "decompose_dense", "classify",
              "classify_I", "commutator"]
    assert lines[0].split()[:15] == ["n", *layers, *[name + "_MB" for name in layers]]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["64", "96"]
    # each layer's time in ms, then its traced peak in MB; synthesis keeps
    # the n-value symbol, and I is classified from it, each under a quarter
    # of one n x n complex matrix (0.14 MB at n = 96), while decompose_copy
    # builds the copy of the n^2 entries and compares them with the
    # circulant of their first column
    assert all(len(row) == 15 and all(float(t) > 0.0 for t in row[1:]) for row in rows)
    synth_mb = [float(row[8]) for row in rows]
    copy_mb = [float(row[10]) for row in rows]
    quarter = 96**2 * 16 / 4 / 2**20
    assert synth_mb[1] > synth_mb[0] and synth_mb[1] < quarter and float(rows[1][13]) < quarter
    assert copy_mb[1] > copy_mb[0] and copy_mb[1] >= 96**2 / 2**20


def test_circle_layers_prints_one_row_per_degree():
    lines = _run("circle_layers.py", "--K", "8", "32", "--repeat", "1").splitlines()
    layers = ["semigroup", "samples", "moebius_plain", "moebius_jacobian", "hilbert"]
    assert lines[0].split()[:11] == ["K", *layers, *[name + "_MB" for name in layers]]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["8", "32"]
    # each layer's time in ms, then its traced peak in MB; the averaging
    # oracle sums the series by one FFT of p*n points (3*64 at both
    # degrees), so its peak stays under a tenth of a MB
    assert all(len(row) == 11 and all(float(t) > 0.0 for t in row[1:]) for row in rows)
    assert all(float(row[7]) < 0.1 for row in rows)


def test_check_times_prints_one_row_per_check():
    from hilbertsym.verify import _REGISTRY

    lines = _run("check_times.py", "--repeat", "1").splitlines()
    assert lines[0].split()[:2] == ["check", "ms"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == [c.records[0][0] for c in _REGISTRY] + ["all"]
    assert all(len(row) == 2 and float(row[1]) > 0.0 for row in rows)
