"""Outside-in tracing of the program's layers.

A :class:`Tracer` wraps the public functions of each layer module and
rebinds the wrappers wherever the package's modules hold the original
function (``hilbertsym``, ``hilbertsym.verify``, ``hilbertsym.cli``, ...),
so calls between layers pass through a span without any change to the
program.  Spans are kept in memory and written once, at the end; a span's
self time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# layer module -> public functions traced in it
TRACED = {
    "signals": ("dft", "idft", "evaluate_fourier_series",
                "circle_samples_from_coeffs", "circle_coeffs_from_samples"),
    "line_ops": ("hilbert_multiplier", "hilbert_pv_quadrature", "hardy_project", "dilate",
                 "translate", "rep_natural", "intertwine_defect"),
    "circle_ops": ("circular_hilbert", "circular_hilbert_quadrature", "cauchy_pv",
                   "cauchy_symbol", "plemelj_project", "semigroup_act",
                   "semigroup_act_samples", "moebius_act", "circular_convolve",
                   "annihilator_witness", "zero_set"),
    "symmetry": ("apply_operator", "commutator_defect", "decompose_line_operator",
                 "decompose_circle_operator", "classify_pm_hilbert",
                 "rotation_commutant_analysis", "synthesize_commuting_operator"),
    "probes": ("make_probes",),
    "sigio": ("load_signal", "save_signal", "load_operator", "save_operator"),
    "verify": ("run_verify",),
    "cli": ("main",),
}

# line_ops functions that attach warning flags to their output
FLAG_EMITTERS = ("line_ops.translate", "line_ops.hilbert_pv_quadrature")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records one span per traced call, plus counts taken at the same
    boundaries (transform points, refusals, flags, file bytes)."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (parent index, name, start, end)
        self.stack = []
        self.counts = Counter()
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        for mod_name in TRACED:
            importlib.import_module(f"{self.package.__name__}.{mod_name}")
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package.__name__
                                         or name.startswith(self.package.__name__ + "."))]
        for mod_name, funcs in TRACED.items():
            module = sys.modules[f"{self.package.__name__}.{mod_name}"]
            for func in funcs:
                orig = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", orig)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, attr, wrapper)
                            self._restore.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, name, t0, t1)
                count(name, args, None if raised is not None else result, raised)
            return result

        return wrapper

    def _count(self, name, args, result, raised):
        c = self.counts
        if name in ("signals.dft", "signals.idft"):
            c["signals.fft_points"] += args[0].grid.n
        elif name == "signals.evaluate_fourier_series":
            angles = args[1] if len(args) > 1 else ()
            c["signals.evaluate_fourier_series.points"] += len(angles) * (2 * args[0].K + 1)
        elif name == "line_ops.dilate" and isinstance(raised, self.package.AliasingError):
            c["line_ops.dilate.refusals"] += 1
        elif name in FLAG_EMITTERS and result is not None:
            c["line_ops.flags_emitted"] += max(0, len(result.flags) - len(args[0].flags))
        elif name in ("sigio.load_signal", "sigio.load_operator"):
            c["sigio.bytes_read"] += _file_size(args[0])
        elif name in ("sigio.save_signal", "sigio.save_operator") and raised is None:
            c["sigio.bytes_written"] += _file_size(args[1])

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Per traced function: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, (_, name, t0, t1) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[sid]
        return dict(out)

    def write(self, path):
        """Write every span once, as [parent, name, start, end] rows with
        times relative to the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        rows = [[p, n, t0 - base, t1 - base] for p, n, t0, t1 in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["parent", "name", "start_s", "end_s"], "spans": rows}, fh)


# per-layer metrics read from the span summary: traced function -> fields
_FROM_SUMMARY = (
    ("signals.dft", ("calls", "self_s")),
    ("signals.idft", ("calls", "self_s")),
    ("signals.evaluate_fourier_series", ("calls", "self_s")),
    ("line_ops.dilate", ("calls", "self_s")),
    ("line_ops.translate", ("self_s",)),
    ("line_ops.hilbert_multiplier", ("self_s",)),
    ("line_ops.hilbert_pv_quadrature", ("self_s",)),
    ("circle_ops.moebius_act", ("calls", "self_s", "total_s")),
    ("circle_ops.semigroup_act", ("calls", "self_s")),
    ("circle_ops.semigroup_act_samples", ("total_s",)),
    ("symmetry.synthesize_commuting_operator", ("calls", "self_s")),
    ("symmetry.decompose_line_operator", ("self_s",)),
    ("symmetry.classify_pm_hilbert", ("total_s",)),
    ("symmetry.commutator_defect", ("total_s",)),
    ("probes.make_probes", ("calls", "total_s")),
    ("sigio.load_signal", ("self_s",)),
    ("sigio.save_signal", ("self_s",)),
    ("sigio.load_operator", ("self_s",)),
    ("cli.main", ("self_s",)),
)
_COUNTS = (
    "signals.fft_points",
    "signals.evaluate_fourier_series.points",
    "line_ops.dilate.refusals",
    "line_ops.flags_emitted",
    "sigio.bytes_read",
    "sigio.bytes_written",
)
# measured by the workload or the runner rather than read from spans
EXTRA = (
    ("verify.line_s", "s"),
    ("verify.circle_s", "s"),
    ("verify.symmetry_s", "s"),
    ("cli.import_s", "s"),
    ("trace_overhead_frac", "frac"),
)
# busy time per layer; cli has one traced function, reported as cli.main.self_s
LAYERS = tuple(name for name in TRACED if name != "cli")


def _unit(field):
    return "count" if field == "calls" else "s"


def layer_metrics(summary: dict, counts: dict, extra: dict) -> dict:
    """Per-layer metrics from a span summary, boundary counts and the
    separately measured values; a layer the workload does not reach reads 0."""
    out = {}
    for fn, fields in _FROM_SUMMARY:
        row = summary.get(fn, {})
        for field in fields:
            out[f"{fn}.{field}"] = (row.get(field, 0), _unit(field))
    for layer in LAYERS:
        busy = sum(row["self_s"] for name, row in summary.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (busy, "s")
    for c in _COUNTS:
        out[c] = (counts.get(c, 0), "bytes" if c.startswith("sigio.bytes") else "count")
    for name, unit in EXTRA:
        out[name] = (extra.get(name, 0.0), unit)
    return out
