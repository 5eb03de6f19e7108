"""Workload ``cli-files``: one fresh ``python -m hilbertsym.cli`` process
per command, one client, back to back.

The commands are ``--version``, every ``apply`` op on a 4096-sample line
file, a K=128 coefficient file and a 512-sample circle file, and
``decompose`` on a 512-dim line operator (an ~11 MB JSON file), on a K=128
circle operator, and on a non-commutant operator whose contract exit code
is 3.  Import and JSON reading and writing dominate; the numerics take
milliseconds.  Every process starts cold, so in-process caches cannot help
here (prediction: no change) and an import-time cut moves it.

Correctness: each exit code matches the CLI contract, and each output file
or printed decomposition equals the same public function applied
in-process to the loaded input.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

import harness
from tracing import Tracer

DIR = harness.WORK / "cli"
LINE_N, CIRCLE_K, SAMPLES_N, OPERATOR_N = 4096, 128, 512, 512
X_MIN, X_MAX = -40.0, 40.0


def _path(name):
    return str(DIR / name)


def setup(hs, seed):
    """Write the input files; return the command table."""
    import hilbertsym.sigio  # noqa: F401 - not imported by the package itself

    DIR.mkdir(parents=True, exist_ok=True)
    save = hs.sigio.save_signal

    def ss(*salt):
        return np.random.SeedSequence([seed, *salt])

    grid = hs.Grid1D.from_interval(X_MIN, X_MAX, LINE_N)
    save(hs.make_probes("gaussian-packet", seed=ss(1), count=1, grid=grid,
                        width=(1.25, 1.4), center=(-1.0, 1.0), modulation=(4.5, 5.2))[0],
         _path("line.json"))
    coeffs = hs.make_probes("trig-poly", seed=ss(2), count=2, K=CIRCLE_K)
    save(coeffs[0], _path("coeffs.json"))
    save(coeffs[1], _path("coeffs2.json"))
    band = hs.make_probes("trig-poly", seed=ss(3), count=1, K=25)[0]
    save(hs.signals.circle_samples_from_coeffs(band, SAMPLES_N), _path("samples.json"))

    rng = np.random.default_rng(ss(4))
    lam, eta = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    basis = hs.LineBasis(OPERATOR_N, X_MIN, (X_MAX - X_MIN) / OPERATOR_N)
    hs.sigio.save_operator(hs.synthesize_commuting_operator(lam, eta, basis),
                           _path("op_line.json"))
    fbasis = hs.FourierBasis(CIRCLE_K)
    circ = hs.synthesize_commuting_operator(complex(rng.normal()), complex(rng.normal()), fbasis)
    hs.sigio.save_operator(circ, _path("op_circle.json"))
    noise = rng.normal(size=circ.entries.shape) * 1e-3
    hs.sigio.save_operator(hs.OperatorMatrix(fbasis, circ.entries + noise), _path("op_bad.json"))
    return commands(grid.dx)


def commands(dx) -> list:
    """(argv after the module name, expected exit code) per command.  The
    decompose commands are spread through the cycle, so a run that ends
    part-way through a cycle still holds each kind of command."""
    def apply(op, src, *extra):
        return ["apply", op, "--in", _path(src), "--out", _path(f"out_{op}.json"), *extra]

    def decompose(name, space, rc):
        return (["decompose", "--in", _path(name), "--space", space], rc)

    table = [(["--version"], 0), decompose("op_line.json", "line", 0)]
    for op, extra in (("hilbert", ()), ("hilbert-pv", ()), ("hardy+", ()), ("hardy-", ()),
                      ("dilate", ("--a", "2")), ("translate", ("--b", repr(7 * dx))),
                      ("rep", ("--a", "0.5", "--b", "1.5"))):
        table.append((apply(op, "line.json", *extra), 0))
    table.append(decompose("op_circle.json", "circle", 0))
    for op, extra in (("circular-hilbert", ()), ("cauchy-pv", ()), ("cauchy-symbol", ()),
                      ("semigroup", ("--q", "2", "--p", "3", "--beta", "0.4")),
                      ("convolve", ("--with", _path("coeffs2.json")))):
        table.append((apply(op, "coeffs.json", *extra), 0))
    table.append((apply("moebius", "samples.json", "--theta", "0.3", "--blaschke-a", "0.5",
                        "--weight", "jacobian"), 0))
    table.append(decompose("op_bad.json", "circle", 3))
    return table


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def expected(hs, argv):
    """What the command must produce, computed in-process from the inputs."""
    if argv[0] == "--version":
        return f"hilbertsym {hs.__version__}"
    if argv[0] == "decompose":
        op = hs.sigio.load_operator(_option(argv, "--in"))
        dec = (hs.decompose_line_operator(op) if _option(argv, "--space") == "line"
               else hs.decompose_circle_operator(op))
        return json.loads(json.dumps(dec.to_json_dict()))
    op = argv[1]
    sig = hs.sigio.load_signal(_option(argv, "--in"))
    a, b = _option(argv, "--a"), _option(argv, "--b")
    fn = {
        "hilbert": lambda: hs.hilbert_multiplier(sig),
        "hilbert-pv": lambda: hs.hilbert_pv_quadrature(sig),
        "hardy+": lambda: hs.hardy_project(sig, "+"),
        "hardy-": lambda: hs.hardy_project(sig, "-"),
        "dilate": lambda: hs.dilate(sig, float(a)),
        "translate": lambda: hs.translate(sig, float(b)),
        "rep": lambda: hs.rep_natural(sig, hs.AffineElement(float(a), float(b))),
        "circular-hilbert": lambda: hs.circular_hilbert(sig),
        "cauchy-pv": lambda: hs.cauchy_pv(sig),
        "cauchy-symbol": lambda: hs.cauchy_symbol(sig),
        "semigroup": lambda: hs.semigroup_act(sig, hs.RationalScale(
            int(_option(argv, "--q")), int(_option(argv, "--p")),
            float(_option(argv, "--beta"))), None),
        "moebius": lambda: hs.moebius_act(sig, hs.MoebiusElement(
            float(_option(argv, "--theta")), float(_option(argv, "--blaschke-a"))),
            _option(argv, "--weight")),
        "convolve": lambda: hs.circular_convolve(
            sig, hs.sigio.load_signal(_option(argv, "--with"))),
    }[op]
    out = fn()
    # the CLI echoes the flags of line outputs as warnings
    warnings = list(out.flags) if isinstance(out, hs.LineSignal) else []
    return {"signal": hs.sigio.signal_to_dict(out), "warnings": warnings}


def output_matches(hs, argv, want, rc, want_rc, stdout) -> bool:
    if rc != want_rc:
        return False
    lines = stdout.splitlines()
    if argv[0] == "--version":
        return lines == [want]
    try:
        if argv[0] == "decompose":
            return json.loads(lines[0]) == want
        echo = json.loads(lines[0])
        got = hs.sigio.signal_to_dict(hs.sigio.load_signal(_option(argv, "--out")))
    except (IndexError, ValueError, OSError):
        return False
    return got == want["signal"] and echo["op"] == argv[1] and echo["warnings"] == want["warnings"]


def _clear_output(argv):
    out = _option(argv, "--out")
    if out is not None:
        Path(out).unlink(missing_ok=True)


def prepare(hs, table):
    return [(argv, want_rc, expected(hs, argv)) for argv, want_rc in table]


def measure(hs, seed, seconds):
    cases = itertools.cycle(prepare(hs, setup(hs, seed)))
    prefix = [sys.executable, "-m", "hilbertsym.cli"]
    samples = []  # (argv[0], wall, rss, ok, label)

    def op():
        argv, want_rc, want = next(cases)
        _clear_output(argv)
        res = harness.run_child(prefix + argv, cwd=harness.ROOT)
        ok = output_matches(hs, argv, want, res["returncode"], want_rc, res["stdout"])
        samples.append((argv[0], res["wall_s"], res["rss_mb"], ok, " ".join(argv[:2])))
        return res["wall_s"]

    pairs = [r[0] for r in harness.calibrated_loop([op], harness.cold_calibrate, seconds)]
    is_cmd = [s[0] != "--version" for s in samples]
    cmd_times = [s[1] for s, c in zip(samples, is_cmd) if c]
    cold = [s[1] for s, c in zip(samples, is_cmd) if not c]
    cmd_pairs = [p for p, c in zip(pairs, is_cmd) if c] or pairs
    failed = [s[4] for s in samples if not s[3]]
    # the highest percentile with ten samples beyond it, when that lies
    # above the median; a run of run_seconds seldom holds enough commands
    ranked = sorted(cmd_times)
    tail = ranked[-11] if len(ranked) > 20 else None
    details = {
        "cli_cmd_p50_s": harness.median(cmd_times) if cmd_times else None,
        "cli_cmd_tail_s": tail,
        "cli_cmd_tail_pct": None if tail is None else 100.0 * (len(ranked) - 10) / len(ranked),
        "cli_cmd_samples": len(cmd_times),
        "cli_cold_s": harness.median(cold) if cold else None,
        "cli_cold_samples": len(cold),
        "calibration_s": [c for _, c in pairs],
        "mismatched": failed,
    }
    metrics = {
        "op_ref_s": (harness.median(harness.at_reference(cmd_pairs, harness.COLD_CAL_REF_S)),
                     "s"),
        "peak_rss_mb": (max(s[2] for s in samples), "MB"),
    }
    return details, len(samples), len(failed), metrics


def _in_process(hs, cases):
    """Run every command once through ``cli.main``; return (seconds, failures)."""
    bad = []
    t_total = 0.0
    for argv, want_rc, want in cases:
        _clear_output(argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = hs.cli.main(argv)
            except SystemExit as exc:  # --version exits through argparse
                rc = exc.code or 0
            t_total += time.perf_counter() - t0
        if not output_matches(hs, argv, want, rc, want_rc, out.getvalue()):
            bad.append(" ".join(argv[:2]))
    return t_total, bad


def traced(hs, seed):
    import hilbertsym.cli  # noqa: F401 - the traced run calls cli.main in-process

    cases = prepare(hs, setup(hs, seed))
    t_plain, bad_plain = _in_process(hs, cases)
    with Tracer(hs) as tracer:
        t_traced, bad_traced = _in_process(hs, cases)
    tracer.write(harness.WORK / f"spans-cli-files-{seed}.json")
    details = {"mismatched": bad_plain + bad_traced}
    failed = len(bad_plain) + len(bad_traced)
    return (tracer.summary(), tracer.counts, details, 2 * len(cases), failed,
            t_traced / t_plain - 1.0, {})
