"""Shared plumbing for the benchmark: locating the checkout's source tree,
capping BLAS threads, timing loops, child processes and the result line.

Importing this module caps the BLAS thread pools before numpy is loaded, so
it must be imported before anything that imports numpy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / "_work"

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = {
    name: str(NPROC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_ENV)

CHILD_TIMEOUT_S = 120.0


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's source tree."""


def import_program():
    """Import ``hilbertsym`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hilbertsym" / "__init__.py").is_file():
        raise MissingProgram(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hilbertsym

    if Path(hilbertsym.__file__).resolve().parent != SRC / "hilbertsym":
        raise MissingProgram(f"hilbertsym imported from {hilbertsym.__file__}, not {SRC}")
    return hilbertsym


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, *, cwd=None) -> dict:
    """Run one child process to completion and return its start time, exit
    code, wall seconds, peak RSS (MB) and output.  Output goes to files, so the wait cannot
    deadlock on a full pipe; a watchdog kills a child that overruns."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fo, stderr=fe)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": t0,
        "returncode": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


# The shared host's speed drifts by up to a factor of two within minutes, and
# CPU time drifts with it, so raw wall times of the same code differ from run
# to run by more than a regression worth catching.  Every timed operation is
# therefore paired with a fixed calibration measured right around it, and
# the end-to-end times are reported at the reference host speed:
# ``wall * reference / calibration``, where the reference is about the
# calibration's median on a 2-core host (Python 3.11.7, numpy 2.4.6).  The
# calibrations use numpy alone, so no change to the program moves them.
# Raw wall times are kept in the details line.
CAL_REF_S = 0.2
COLD_CAL_REF_S = 0.13
CAL_LOOPS = 40


def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    signal = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    angles = rng.uniform(0.0, 6.283185307179586, 512)
    coeffs = rng.normal(size=257) + 1j * rng.normal(size=257)
    matrix = rng.normal(size=(512, 512))
    return signal, angles, coeffs, matrix


def _calibration_kernel(inputs, loops):
    import numpy as np

    signal, angles, coeffs, matrix = inputs
    k = np.arange(-128, 129)
    acc = 0.0
    for _ in range(loops):
        acc += np.fft.ifft(np.fft.fft(signal) * 1.0001)[0].real
        acc += (np.exp(1j * np.outer(angles, k)) @ coeffs)[0].real
    for _ in range(max(1, loops // 13)):
        acc += (matrix @ matrix)[0, 0]
    count = 0
    for i in range(500 * loops):
        count += i * i % 7
    return acc + count


_CAL_INPUTS = []


def calibrate() -> float:
    """Wall seconds of a fixed in-process numpy and Python kernel shaped like
    the suite's work: 4096-point FFTs, Fourier series evaluated at 512 angles
    for K=128, 512x512 products and an interpreter loop."""
    if not _CAL_INPUTS:
        _CAL_INPUTS.append(_calibration_inputs())
        _calibration_kernel(_CAL_INPUTS[0], CAL_LOOPS)  # warm-up, untimed
    t0 = time.perf_counter()
    _calibration_kernel(_CAL_INPUTS[0], CAL_LOOPS)
    return time.perf_counter() - t0


def cold_calibrate() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits."""
    res = run_child([sys.executable, "-c", "import numpy"], cwd=ROOT)
    if res["returncode"] != 0:
        raise RuntimeError(f"calibration child failed: {res['stderr'][-2000:]}")
    return res["wall_s"]


def at_reference(pairs, reference: float) -> list:
    """Seconds at the reference host speed for (wall, calibration) pairs."""
    return [wall * reference / cal for wall, cal in pairs]


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """(wall seconds, cold calibration) of fresh interpreters that import
    the program and build the workload's inputs, then exit."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]

    def once():
        res = run_child(argv, cwd=ROOT)
        if res["returncode"] != 0:
            raise RuntimeError(f"set-up child failed: {res['stderr'][-2000:]}")
        return res["wall_s"]

    cals = [cold_calibrate()]
    walls = []
    for _ in range(repeats):
        walls.append(once())
        cals.append(cold_calibrate())
    return [(wall, 0.5 * (c0 + c1)) for wall, c0, c1 in zip(walls, cals, cals[1:])]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrated_loop(ops, calibrate, seconds: float) -> list:
    """Run rounds back to back (one client, closed loop) until ``seconds``
    have passed; a round calls each of ``ops`` in turn, with ``calibrate()``
    before the first call and after each.  An op returns the seconds it
    measured, or None when it has none; each is paired with the mean of the
    two calibrations around it.  Returns one list of pairs per round."""
    cal = calibrate()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        pairs = []
        for op in ops:
            t = op()
            before, cal = cal, calibrate()
            pairs.append(None if t is None else (t, 0.5 * (before + cal)))
        rounds.append(pairs)
    return rounds


def median(values) -> float:
    return float(statistics.median(values))


def git_sha() -> str:
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": NPROC,
        "platform": platform.platform(),
    }


def emit(details: dict, attempted: int, failed: int, metrics: dict, correct: bool):
    """Print the details line, then the result line (always last)."""
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
