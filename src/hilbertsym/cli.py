"""Command-line harness.

Subcommands:

* ``verify {line|circle|symmetry|all}`` -- run the verification suite and
  print the JSON report; optional ``--csv`` and ``--gnuplot-dat`` side
  outputs.
* ``apply <op> --in FILE --out FILE [flags]`` -- apply an operator or group
  action to a signal file; prints a one-line JSON echo of the op, its
  parameters, and any warnings.
* ``decompose --in FILE --space {line|circle}`` -- print the scalar
  decomposition of an operator file as JSON.

Exit codes: 0 success, 1 usage (including precondition violations reported
by the operators), 2 file I/O, 3 decomposition residual above tolerance,
4 failed verification checks or internal errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_RESIDUAL = 3
EXIT_CHECK_FAILURE = 4


class UsageError(ValueError):
    pass


class ApplyOp(NamedTuple):
    """One ``apply`` op: the signal class it accepts, the module that
    implements it (imported only when the op runs), an adapter
    ``call(module, signal, args)`` returning the output signal, the flags it
    requires and the flags echoed as its params, in echo order."""

    input: str
    module: str
    call: Callable
    needs: tuple = ()
    params: tuple = ()  # empty: the required flags


APPLY = {
    "hilbert": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.hilbert_multiplier(f)),
    "hilbert-pv": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.hilbert_pv_quadrature(f)),
    "hardy+": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.hardy_project(f, "+")),
    "hardy-": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.hardy_project(f, "-")),
    "dilate": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.dilate(f, a.a), ("a",)),
    "translate": ApplyOp("LineSignal", "line_ops", lambda m, f, a: m.translate(f, a.b), ("b",)),
    "rep": ApplyOp(
        "LineSignal", "line_ops",
        lambda m, f, a: m.rep_natural(f, m.AffineElement(a.a, a.b)), ("a", "b"),
    ),
    "circular-hilbert": ApplyOp(
        "CircleSignal", "circle_ops", lambda m, f, a: m.circular_hilbert(f)
    ),
    "cauchy-pv": ApplyOp("CircleSignal", "circle_ops", lambda m, f, a: m.cauchy_pv(f)),
    "cauchy-symbol": ApplyOp("CircleSignal", "circle_ops", lambda m, f, a: m.cauchy_symbol(f)),
    "semigroup": ApplyOp(
        "CircleSignal", "circle_ops",
        lambda m, f, a: m.semigroup_act(f, m.RationalScale(a.q, a.p, a.beta), a.k_out),
        ("q", "p"), ("q", "p", "beta", "k_out"),
    ),
    "moebius": ApplyOp(
        "CircleSamples", "circle_ops",
        lambda m, f, a: m.moebius_act(f, m.MoebiusElement(a.theta, a.blaschke_a), a.weight),
        ("blaschke_a",), ("theta", "blaschke_a", "weight"),
    ),
    "convolve": ApplyOp(
        "CircleSignal", "circle_ops",
        lambda m, f, a: m.circular_convolve(
            f, _load(getattr(a, "with"), "CircleSignal", "convolve")
        ),
        ("with",),
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hilbertsym", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hilbertsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("target", choices=("line", "circle", "symmetry", "all"))
    p_verify.add_argument("--config", help="JSON file mirroring the suite config")
    p_verify.add_argument("--seed", type=int, help="override the config RNG seed")
    p_verify.add_argument("--csv", help="also write a check_id,measured,tolerance table")
    p_verify.add_argument("--gnuplot-dat", help="also write plain two-column data")
    p_verify.set_defaults(run=_run_verify)

    p_apply = sub.add_parser("apply", help="apply an operator/action to a signal file")
    p_apply.add_argument("op", choices=APPLY)
    p_apply.add_argument("--in", dest="infile", required=True)
    p_apply.add_argument("--out", dest="outfile", required=True)
    p_apply.add_argument("--a", type=float, help="dilation scale / affine a")
    p_apply.add_argument("--b", type=float, help="shift / affine b")
    p_apply.add_argument("--q", type=int, help="semigroup numerator")
    p_apply.add_argument("--p", type=int, help="semigroup denominator")
    p_apply.add_argument("--beta", type=float, default=0.0, help="semigroup rotation")
    p_apply.add_argument("--k-out", type=int, help="semigroup output truncation")
    p_apply.add_argument("--theta", type=float, default=0.0, help="disc rotation angle")
    p_apply.add_argument("--blaschke-a", type=float, help="disc automorphism parameter in [0,1)")
    p_apply.add_argument("--weight", choices=("plain", "jacobian"), default="plain")
    p_apply.add_argument("--with", help="second input file (convolve)")
    p_apply.set_defaults(run=_run_apply)

    p_dec = sub.add_parser("decompose", help="scalar-decompose an operator file")
    p_dec.add_argument("--in", dest="infile", required=True)
    p_dec.add_argument("--space", choices=("line", "circle"), required=True)
    p_dec.add_argument("--tol", type=float, default=1e-10, help="residual pass tolerance")
    p_dec.set_defaults(run=_run_decompose)
    return parser


def _need(args, names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"op {args.op!r} requires --{name.replace('_', '-')}")


def _load(path, kind: str, op: str):
    """Load a signal file, which op ``op`` needs to hold a ``kind`` signal."""
    from . import signals
    from .sigio import load_signal

    sig = load_signal(path)
    if not isinstance(sig, getattr(signals, kind)):
        raise UsageError(f"op {op!r} expects a {kind} input file")
    return sig


def _run_apply(args) -> int:
    from .sigio import save_signal
    from .signals import LineSignal

    row = APPLY[args.op]
    sig = _load(args.infile, row.input, args.op)
    _need(args, row.needs)
    params = {name: getattr(args, name) for name in (row.params or row.needs)}
    out = row.call(importlib.import_module(f"{__package__}.{row.module}"), sig, args)
    warnings = list(out.flags) if isinstance(out, LineSignal) else []
    save_signal(out, args.outfile)
    print(json.dumps({"op": args.op, "params": params, "warnings": warnings, "out": args.outfile}))
    return EXIT_OK


def _run_decompose(args) -> int:
    from .sigio import load_operator
    from .symmetry import decompose_circle_operator, decompose_line_operator

    if not args.tol >= 0.0:  # also rejects NaN
        raise UsageError(f"--tol must be a non-negative number, got {args.tol}")
    decompose = decompose_line_operator if args.space == "line" else decompose_circle_operator
    dec = decompose(load_operator(args.infile))
    print(json.dumps(dec.to_json_dict()))
    if dec.max_residual <= args.tol:
        return EXIT_OK
    print(
        f"residual {dec.max_residual:.3e} exceeds tolerance {args.tol:.3e}: "
        "not in the commutant form",
        file=sys.stderr,
    )
    return EXIT_RESIDUAL


def _run_verify(args) -> int:
    from .verify import SuiteConfig, run_verify

    doc = json.loads(Path(args.config).read_text()) if args.config is not None else {}
    try:
        # the seed override goes through validate() like the rest of the config
        cfg = SuiteConfig.from_json_dict(
            doc if args.seed is None else {**doc, "rng_seed": args.seed})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    report = run_verify(args.target, cfg)
    print(json.dumps(report.to_json_dict(), indent=2))
    if args.csv:
        Path(args.csv).write_text(report.to_csv_text())
    if args.gnuplot_dat:
        Path(args.gnuplot_dat).write_text(report.to_gnuplot_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # precondition violations from the operator modules, passed through
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


def entry():  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
