"""The repo's pytest settings report a failing hypothesis test as a failure
and go on to the next file: every warning is an error, except the one that
hypothesis's report hook raises while it prints a falsifying example."""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_always_fails(x):
    assert False
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)  # the ini options
    (tmp_path / "test_a_given.py").write_text(FAILING)
    (tmp_path / "test_b_later.py").write_text("def test_runs():\n    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "1 failed, 1 passed" in text and "INTERNALERROR" not in text, text


def test_other_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("mypy_extensions.Other is deprecated", DeprecationWarning)
