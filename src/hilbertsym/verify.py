"""Verification suite: every check the package promises, run from one config.

Each check is a pure function of the configuration (probe randomness is
seeded per check), declared once with ``@_check``.  It returns its defects,
one item per record {check id, anchor, measured, tolerance, pass}, and the
runner reports the largest, at least 0.  Failures inside a check surface as
failed records; the runner never raises for one.  Reports are deterministic
for a fixed config and seed, and contain no timestamps.

Checks whose tolerance is reported as None are informational: their measured
values are published but not asserted (see the Moebius weight notes in
circle_ops).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .circle_ops import (
    MoebiusElement,
    RationalScale,
    SignalFamily,
    annihilator_witness,
    cauchy_pv,
    cauchy_symbol,
    circular_hilbert,
    circular_hilbert_quadrature,
    moebius_act,
    plemelj_project,
    semigroup_act,
    semigroup_act_samples,
)
from .line_ops import (
    ALIAS_GUARD_TOL,
    EDGE_DECAY_TOL,
    AffineElement,
    dilate,
    hardy_project,
    hilbert_multiplier,
    hilbert_pv_quadrature,
    translate,
)
from .probes import make_probes
from .signals import (
    CircleSamples,
    CircleSignal,
    Grid1D,
    LineSignal,
    circle_coeffs_from_samples,
    circle_samples_from_coeffs,
    dft,
    idft,
    sign_symbol,
    stack_signals,
)
from .symmetry import (
    FourierBasis,
    LineBasis,
    OperatorMatrix,
    circle_semigroup_action,
    classify_pm_hilbert,
    commutator_defect,
    decompose_circle_operator,
    decompose_line_operator,
    line_affine_action,
    rotation_commutant_analysis,
    _frobenius,
    synthesize_commuting_operator,
)

__all__ = ["SuiteConfig", "CheckRecord", "SuiteReport", "run_verify", "TARGETS"]

TARGETS = ("line", "circle", "symmetry", "all")


def _default_tolerances() -> dict:
    return {
        "multiplier_vs_quadrature": 1e-3,
        "involution_line": 1e-10,
        "involution_circle": 1e-14,
        "affine_commutation": 1e-6,
        "plemelj_chain": 1e-14,
        "semigroup_averaging": 1e-12,
        "semigroup_commutation": 1e-14,
        "decomposition_roundtrip": 1e-12,
        "classifier_verdicts": 0.5,
        "three_scalar_blocks": 1e-14,
        "commutant_scalarity": 1e-12,
        "perturbation_flag": 0.5,
        "annihilator_outcomes": 0.5,
        "moebius_unitarity": 1e-8,
        "parseval": 1e-12,
        "hardy_identities": 1e-12,
        "rep_isometry": 1e-8,
        "quadrature_circle": 1e-3,
        "engine_commutator_line": 1e-6,
        "engine_commutator_circle": 1e-14,
        "soundness": 1e-10,
    }


def _default_probe_counts() -> dict:
    return {"line": 20, "circle": 20, "roundtrip": 100, "scalarity": 10, "annihilator": 10}


# Degree of the trig-poly probes of the a11 Moebius checks.
_MOEBIUS_PROBE_DEGREE = 25
# Packets of a01.  m01 draws the make_probes defaults, whose ranges lie inside
# these, so a01's regime rule holds for m01 too.
_A01_PACKETS = {"width": (1.0, 1.6), "center": (-4.0, 4.0), "modulation": (3.5, 6.0)}
# Packets safe for every element of the affine set: narrow enough for the
# largest dilation, modulated away from the mean bin (and the band edge) so
# neither symbol discontinuity carries energy.
_GUARDED = {"width": (1.25, 1.4), "center": (-1.0, 1.0), "modulation": (4.5, 5.2)}
# Dilations of the m06 action set.
_ENGINE_SCALES = (0.5, 2.0, 4.0)


@dataclass
class LineGridConfig:
    x_min: float = -40.0
    x_max: float = 40.0
    n: int = 4096


@dataclass
class CircleConfig:
    K: int = 128
    n_samples: int = 512


@dataclass
class SuiteConfig:
    rng_seed: int = 12345
    line: LineGridConfig = field(default_factory=LineGridConfig)
    circle: CircleConfig = field(default_factory=CircleConfig)
    tolerances: dict = field(default_factory=_default_tolerances)
    probe_counts: dict = field(default_factory=_default_probe_counts)
    affine_set: Optional[list] = None
    rational_set: Optional[list] = None
    moebius_set: Optional[list] = None
    operator_n: int = 512  # line-basis size for dense-matrix engine checks

    def __post_init__(self):
        self.tolerances = _default_tolerances() | dict(self.tolerances)
        self.probe_counts = _default_probe_counts() | dict(self.probe_counts)
        self._check_fields()  # before anything is derived from the fields
        dx = (self.line.x_max - self.line.x_min) / self.line.n
        if self.affine_set is None:
            self.affine_set = [
                (a, b) for a in (0.5, 2.0, 4.0) for b in (0.0, 7 * dx, -7 * dx, 3.5 * dx)
            ]
        if self.rational_set is None:
            self.rational_set = [
                (q, p, beta)
                for q in range(1, 6)
                for p in range(1, 6)
                if math.gcd(q, p) == 1
                for beta in (0.0, 1.0, math.pi / 3)
            ]
        if self.moebius_set is None:
            self.moebius_set = [(theta, a) for theta in (0.0, 1.2) for a in (0.0, 0.3, 0.7)]
        self.validate()

    def _check_fields(self):
        """Raise ValueError at the first failing row of the field table: an unknown key, a value
        not of its kind (no bool is of any), or one below its least (a number: not above it)."""
        # kind -> (test, whether the value must lie above its least); finite floats are < 2**1024
        kinds = {
            "an integer": (lambda v: isinstance(v, numbers.Integral), False),
            "an even integer": (lambda v: isinstance(v, numbers.Integral) and v % 2 == 0, False),
            "a finite number": (lambda v: isinstance(v, numbers.Real) and abs(v) < 2**1024, True),
            "a number": (lambda v: isinstance(v, numbers.Real), True)}
        counts, tols = _default_probe_counts(), _default_tolerances()
        table = [("rng_seed", self.rng_seed, "an integer", 0),
                 ("line.n", self.line.n, "an integer", 8),
                 ("line.x_min", self.line.x_min, "a finite number", -math.inf),
                 ("line.x_max", self.line.x_max, "a finite number", self.line.x_min),
                 ("circle.K", self.circle.K, "an integer", 0),
                 ("circle.n_samples", self.circle.n_samples, "an even integer", 2),  # quad. pairs
                 ("operator_n", self.operator_n, "an integer", 2),
                 *((f"probe count {k!r}", v, "an integer" if k in counts else None, 1)
                   for k, v in self.probe_counts.items()),
                 *((f"tolerance {k!r}", v, "a number" if k in tols else None, 0)
                   for k, v in self.tolerances.items())]
        for name, value, kind, least in table:
            if kind is None:
                raise ValueError(f"unknown {name}")
            test, above = kinds[kind]
            if isinstance(value, bool) or not test(value):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            if not (value > least if above else value >= least):
                raise ValueError(f"{name} must be {'above' if above else 'at least'} {least}, "
                                 f"got {value}")
        if math.isinf(self.line.x_max - self.line.x_min):
            raise ValueError(f"line.x_max must be a finite width above line.x_min "
                             f"{self.line.x_min}, got {self.line.x_max}")

    def validate(self):
        """Raise ValueError at the first generic rule broken: a row of the field table (rng_seed,
        line.n, line.x_min, line.x_max, circle.K, circle.n_samples, operator_n, each probe count,
        each tolerance), then an empty action set or an element its own class rejects; else with
        the reason of every regime rule the config breaks, each distinct rule asked once, in
        registry order (they rely on the rules above)."""
        self._check_fields()
        for name, element_type in (("affine_set", AffineElement), ("rational_set", RationalScale),
                                   ("moebius_set", MoebiusElement)):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
            for element in getattr(self, name):
                try:
                    element_type(*element)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name} element {element!r}: {exc}") from None
        regimes = dict.fromkeys(check.regime for check in _REGISTRY if check.regime)
        reasons = [why for regime in regimes if (why := regime(self))]
        if reasons:
            raise ValueError("; ".join(reasons))

    def line_grid(self) -> Grid1D:
        return Grid1D.from_interval(self.line.x_min, self.line.x_max, self.line.n)

    def operator_grid(self) -> Grid1D:
        return Grid1D.from_interval(self.line.x_min, self.line.x_max, self.operator_n)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SuiteConfig":
        doc = dict(doc)
        line, circle = doc.pop("line", {}), doc.pop("circle", {})
        return cls(line=LineGridConfig(**line), circle=CircleConfig(**circle), **doc)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    measured: Optional[float]
    tolerance: Optional[float]  # None = informational (reported, not asserted)
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        nan = self.measured is not None and math.isnan(self.measured)  # NaN is no JSON token
        return {**asdict(self), "measured": None} if nan else asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    target: str
    version: str
    config: dict
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        ok = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": ok, "failed": len(self.records) - ok}

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "version": self.version,
            "config": self.config,
            "records": [r.to_json_dict() for r in self.records],
            "summary": self.summary(),
            "pass": self.passed,
        }

    def to_csv_text(self) -> str:
        lines = ["check_id,measured,tolerance"]
        for r in self.records:
            m = "" if r.measured is None else f"{r.measured:.17g}"
            t = "" if r.tolerance is None else f"{r.tolerance:.17g}"
            lines.append(f"{r.check_id},{m},{t}")
        return "\n".join(lines) + "\n"

    def to_gnuplot_text(self) -> str:
        lines = ["# index measured   (one line per check, ordered by check_id)"]
        for i, r in enumerate(self.records):
            lines.append(f"# {i}: {r.check_id}")
        for i, r in enumerate(self.records):
            m = float("nan") if r.measured is None else r.measured
            lines.append(f"{i} {m:.17g}")
        return "\n".join(lines) + "\n"


def _rng_seed(cfg: SuiteConfig, salt: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([cfg.rng_seed, salt])


def _by_rows(fn: Callable, f: LineSignal) -> list:
    """``fn`` of row blocks of the batched probes ``f``, two blocks per CPU
    of this process's affinity mask (none empty), split over those CPUs: for
    checks whose values are each a function of one probe row, so the blocks
    give the whole batch's values, bit for bit, at any CPU count.

    Share s of the N shares takes blocks s, s + N, s + 2N, ...; the calling
    thread runs share 0 and the threads of an executor opened for this call
    the others.  Threads start only on submit, so one CPU starts none, and
    none outlives the call.  The gain rests on numpy's FFTs and array loops
    releasing the GIL, so ``fn`` must not call BLAS: its spinning worker
    threads would take the CPUs the shares run on.  This is not
    ``ThreadPoolExecutor.map``, which gives the same results: there the
    calling thread only waits while N pool threads run, one more allocating
    thread than here.  On 2 cores that raised the peak RSS of a process
    running ``run_verify("all")`` from 63 MB to 70 MB (from 60 MB to 63.5 MB
    with glibc held to one malloc arena).

    One block per CPU balances the work as well, but smaller blocks keep
    the peak RSS lower: fresh processes running ``run_verify("all")`` four
    times on 2 cores peaked at 56.1-57.6 MB with two blocks per CPU, 60.1-
    60.7 MB with one.  A guard's message can depend on the batch (a
    dilation names its largest row's fraction), so when any block raises,
    the whole batch runs serially to raise what the unsplit check would.
    """
    from concurrent.futures import ThreadPoolExecutor

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks
        cpus = os.cpu_count() or 1
    blocks = [v for v in np.array_split(f.values, 2 * cpus) if len(v)]
    shares = min(cpus, len(blocks))
    values = [None] * len(blocks)

    def run(share):
        for i in range(share, len(blocks), shares):
            values[i] = fn(f.with_values(blocks[i]))

    try:
        with ThreadPoolExecutor(shares, "hilbertsym-verify") as pool:
            futures = [pool.submit(run, s) for s in range(1, shares)]
            run(0)
            for future in futures:
                future.result()
    except Exception:  # noqa: BLE001 - the serial run raises the check's own error
        return fn(f)
    return values


def _rel(diff_values, ref) -> np.ndarray:
    """||diff|| / ref per row, for one signal or a batch of rows (ref is a
    scalar or one value per row)."""
    return np.linalg.norm(diff_values, axis=-1) / np.maximum(ref, 1e-300)


def _worst(defects) -> float:
    """The max of 0 and every number and array in nested lists and tuples, NaN if any is."""
    if isinstance(defects, (list, tuple)):
        defects = [_worst(d) for d in defects]
    return float(np.asarray(defects).max(initial=0.0))


class _Check(NamedTuple):
    target: str
    fn: Callable[[SuiteConfig], object]
    records: tuple  # (check_id, tol_key, anchor) per measured value
    regime: Optional[Callable[[SuiteConfig], Optional[str]]]


_REGISTRY = []  # every check, in declaration order (the order "all" runs them in)


def _check(target: str, *records, regime=None):
    """Register the decorated function as a check of ``target`` with one
    (check_id, tol_key, anchor) record per item it returns (a tuple of items for
    several), measured by ``_worst``.  A tol_key names an entry of the config's
    tolerances; None marks a record that is reported, not asserted.  ``regime(cfg)``
    returns why ``validate()`` must reject ``cfg``, naming the checks it breaks, or None;
    checks drawing one packet family declare its one rule, which ``validate()`` asks once."""

    def register(fn):
        _REGISTRY.append(_Check(target, fn, records, regime))
        return fn

    return register


def _probes(cfg: SuiteConfig, kind: str, salt: int, count: int, **params):
    """``count`` probes of ``kind``, seeded by the config seed and ``salt``, as
    one batched signal."""
    return stack_signals(make_probes(kind, seed=_rng_seed(cfg, salt), count=count, **params))


# ---------------------------------------------------------------------------
# line checks

class _Draw(NamedTuple):
    """Checks drawing one packet family on one grid: their ids (``tol`` is the
    first one's tolerance), the config field sizing the grid, its size on the
    line window, and the scales the checks dilate the packets by."""

    checks: tuple
    field: str
    n: int
    scales: tuple
    tol: float


def _names(checks) -> str:
    return " and ".join((", ".join(checks[:-1]), checks[-1])) if len(checks) > 1 else checks[0]


def _num(x: float) -> str:
    """``x`` as ``:g`` prints it when that reads back as ``x``, else its repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(float(x))


def _reach_reason(cfg: SuiteConfig, packets: dict, eps: float, *draws: _Draw) -> Optional[str]:
    """Why the line window or a band of ``draws`` is too small for the
    Gaussian packets of the ``packets`` ranges, or None.

    |f|^2 = exp(-(x - c)^2 / w^2) is below e of its peak beyond |x - c| =
    w sqrt(log(1/e)), and so is its share there (erfc(t) <= exp(-t^2));
    |f^|^2 = exp(-w^2 (xi - nu)^2) likewise beyond |xi - nu| = sqrt(log(1/e)) / w.
    Dilation by a scales c and w by a.  The window must hold the packets below
    ``eps`` at the largest scale of all the draws up to the last sample of
    their coarsest grid.  Each draw's band must hold them below ``eps`` at
    min(1/2, a_min), for make_probes' central half and every dilate guard, and
    at a_min < 1 below min(ALIAS_GUARD_TOL, tol^2) too, for the Nyquist bin
    that H zeroes and the dilated H f does not.
    """
    x_min, x_max = cfg.line.x_min, cfg.line.x_max
    window = f"[{_num(x_min)}, {_num(x_max)}]"
    w, nu = min(packets["width"]), max(packets["modulation"])

    def least(e, band):  # the least scale of ``band`` that holds the packets below e
        return (nu + math.sqrt(math.log(1.0 / e)) / w) / band

    a_max = max(max(d.scales) for d in draws)
    reach = a_max * (max(abs(c) for c in packets["center"])
                     + max(packets["width"]) * math.sqrt(math.log(1.0 / eps)))
    reasons = []
    if min(-x_min, x_max - (x_max - x_min) / min(d.n for d in draws)) < reach:
        reasons.append(
            f"line window {window} is too narrow: "
            f"{_names(sum((d.checks for d in draws), ()))} need their packets, dilated "
            f"by up to {_num(a_max)}, to keep below {eps:.0e} of their energy outside "
            f"+-{reach:.4g}")
    for draw in draws:
        band = (draw.n // 2) * Grid1D.from_interval(x_min, x_max, draw.n).dxi
        a = min(draw.scales)
        rules = [(min(0.5, a), eps, draw.checks)]  # (scale, density, checks it breaks)
        if a < 1.0:
            rules.append((a, min(ALIAS_GUARD_TOL, draw.tol**2), draw.checks[:1]))
        broken = [(s, e, checks) for s, e, checks in rules if s < least(e, band)]
        for scale in sorted({s for s, _, _ in broken}):
            e = min(e for s, e, _ in broken if s == scale)
            checks = max((checks for s, _, checks in broken if s == scale), key=len)
            what, verb = (f"affine scale a={_num(a)}", "dilate") if scale == a else (
                f"the central half (a={scale:g}) of the band that make_probes keeps packets in",
                "draw")
            reasons.append(
                f"{what} is too small for {draw.field}={draw.n} on {window}: "
                f"{_names(checks)} {verb}{'' if len(checks) > 1 else 's'} packets modulated up "
                f"to {nu:g}, which only a >= {least(e, band):.4g} keeps below {e:.0e} of their "
                f"peak energy density beyond the band |xi| <= a*{band:.4g}")
    return "; ".join(reasons) or None


# a01's error is cubic in the line spacing for these packets: at most
# 12.38 dx^3 over rng seeds 0-31 at the default grid, 12.35 dx^3 at n = 1800-1900.
_A01_CUBIC = 16.0


def _a01_regime(cfg: SuiteConfig) -> Optional[str]:
    tol = cfg.tolerances["multiplier_vs_quadrature"]
    # make_probes' edge test bounds the amplitude, so the density bound is its square
    reach = _reach_reason(cfg, _A01_PACKETS, EDGE_DECAY_TOL**2, _Draw(
        ("a01-multiplier-vs-quadrature", "m01-line-parseval"), "line n", cfg.line.n, (1.0,), tol))
    dx = (cfg.line.x_max - cfg.line.x_min) / cfg.line.n
    # float ** raises past dx = 2**(1024/3); 16 dx^3 is inf from 2**341 on anyway
    err = _A01_CUBIC * dx**3 if dx < 2.0**341 else math.inf
    coarse = err > tol and (
        f"line grid spacing {dx:.4g} (n={cfg.line.n}) is too coarse: "
        f"a01-multiplier-vs-quadrature errs by up to {_A01_CUBIC:g}*dx^3 = "
        f"{err:.2g}, above its tolerance {_num(tol)}")
    return "; ".join(why for why in (reach, coarse) if why) or None


@_check("line", ("a01-multiplier-vs-quadrature", "multiplier_vs_quadrature",
                 "singular kernel quadrature agrees with the multiplier form on the line"),
        regime=_a01_regime)
def _check_multiplier_vs_quadrature(cfg: SuiteConfig) -> list:
    grid = cfg.line_grid()
    f = _probes(cfg, "gaussian-packet", 11, cfg.probe_counts["line"], grid=grid,
                **_A01_PACKETS)
    central = slice(grid.n // 4, 3 * grid.n // 4)

    def defects(f):
        diff = hilbert_pv_quadrature(f).values - hilbert_multiplier(f).values
        return _rel(diff[:, central], np.linalg.norm(f.values, axis=-1))

    return _by_rows(defects, f)


@_check("line", ("a02-involution-line", "involution_line",
                 "applying the line transform twice negates mean-free signals"))
def _check_involution_line(cfg: SuiteConfig) -> list:
    def defects(f):
        hh = hilbert_multiplier(hilbert_multiplier(f))
        return _rel(hh.values + f.values, np.linalg.norm(f.values, axis=-1))

    return _by_rows(defects, _probes(cfg, "random-bandlimited", 12, cfg.probe_counts["line"],
                                     grid=cfg.line_grid()))


def _by_scale(affine_set) -> list:
    """(a, [b, ...]) for each distinct scale a of ``affine_set``, in order of
    first appearance, so a check dilates once per scale and then shifts by
    each b, as rep_natural does (translate after dilate)."""
    shifts = {}
    for a, b in affine_set:
        shifts.setdefault(a, []).append(b)
    return list(shifts.items())


def _guarded_regime(cfg: SuiteConfig) -> Optional[str]:
    """Reach rule of the guarded packets: a03, m03 on the line grid, m06 on the operator grid."""
    line = _Draw(("a03-affine-commutation", "m03-rep-isometry"), "line n", cfg.line.n,
                 tuple(a for a, _ in cfg.affine_set), cfg.tolerances["affine_commutation"])
    engine = _Draw(("m06-engine-commutator-line",), "operator_n", cfg.operator_n,
                   _ENGINE_SCALES, cfg.tolerances["engine_commutator_line"])
    return _reach_reason(cfg, _GUARDED, ALIAS_GUARD_TOL, line, engine)


@_check("line", ("a03-affine-commutation", "affine_commutation",
                 "scale and shift actions commute with the line transform"),
        regime=_guarded_regime)
def _check_affine_commutation(cfg: SuiteConfig) -> list:
    groups = _by_scale(cfg.affine_set)

    def defects(f):
        hf = hilbert_multiplier(f)
        fn = np.linalg.norm(f.values, axis=-1)
        out = []
        for a, shifts in groups:
            df, dhf = dilate(f, a), dilate(hf, a)
            out.append([_rel(hilbert_multiplier(translate(df, b)).values
                             - translate(dhf, b).values, fn) for b in shifts])
        return out

    return _by_rows(defects, _probes(cfg, "gaussian-packet", 13, cfg.probe_counts["line"],
                                     grid=cfg.line_grid(), **_GUARDED))


@_check("line", ("m01-line-parseval", "parseval",
                 "transform pair is unitary (round trip and norm preservation)"))
def _check_line_parseval(cfg: SuiteConfig) -> tuple:
    def defects(f):
        s = dft(f)
        fn = np.linalg.norm(f.values, axis=-1)
        sn = np.linalg.norm(s.values, axis=-1) * math.sqrt(f.grid.dxi / f.grid.dx)
        return np.abs(sn - fn) / fn, _rel(idft(s).values - f.values, fn)

    grid = cfg.line_grid()
    probes = make_probes(
        "gaussian-packet", seed=_rng_seed(cfg, 14), count=5, grid=grid
    ) + make_probes("random-bandlimited", seed=_rng_seed(cfg, 15), count=5, grid=grid)
    # transform contract must not depend on n being a power of two
    g360 = Grid1D.from_interval(-40.0, 40.0, 360)
    f360 = make_probes("gaussian-packet", seed=_rng_seed(cfg, 16), count=1, grid=g360,
                       width=(2.0, 3.0), center=(-1.0, 1.0), modulation=(1.0, 2.0))[0]
    return defects(stack_signals(probes)), defects(f360)


@_check("line", ("m02-hardy-identities", "hardy_identities",
                 "Hardy projections partition the identity and diagonalise the transform"))
def _check_hardy_identities(cfg: SuiteConfig) -> list:
    def defects(f):
        plus = hardy_project(f, "+").values
        minus = hardy_project(f, "-").values
        h = hilbert_multiplier(f).values
        fn = np.linalg.norm(f.values, axis=-1)
        return (
            _rel(plus + minus - f.values, fn),
            _rel(plus - minus - 1j * h, fn),
            # Hardy parts are eigenvectors (probes carry no mean/Nyquist share)
            _rel(hilbert_multiplier(f.with_values(plus)).values + 1j * plus, fn),
            _rel(hilbert_multiplier(f.with_values(minus)).values - 1j * minus, fn),
        )

    return _by_rows(defects, _probes(cfg, "random-bandlimited", 17, cfg.probe_counts["line"],
                                     grid=cfg.line_grid()))


@_check("line", ("m03-rep-isometry", "rep_isometry",
                 "the natural scale/shift action preserves the norm"), regime=_guarded_regime)
def _check_rep_isometry(cfg: SuiteConfig) -> list:
    groups = _by_scale(cfg.affine_set)

    def drifts(f):
        fn = np.linalg.norm(f.values, axis=-1)
        out = []
        for a, shifts in groups:
            df = dilate(f, a)
            out.append([np.abs(np.linalg.norm(translate(df, b).values, axis=-1) - fn) / fn
                        for b in shifts])
        return out

    return _by_rows(drifts, _probes(cfg, "gaussian-packet", 18,
                                    max(5, cfg.probe_counts["line"] // 2),
                                    grid=cfg.line_grid(), **_GUARDED))


# ---------------------------------------------------------------------------
# circle checks


@_check("circle", ("a02-involution-circle", "involution_circle",
                   "squared circular transform is minus identity plus the mean part"))
def _check_involution_circle(cfg: SuiteConfig) -> np.ndarray:
    c = _probes(cfg, "trig-poly", 21, cfg.probe_counts["circle"], K=cfg.circle.K)
    hh = circular_hilbert(circular_hilbert(c))
    return _rel(hh.coeffs + c.coeffs - plemelj_project(c, "zero").coeffs, 1.0)


@_check("circle", ("a04-plemelj-chain", "plemelj_chain",
                   "symbol, principal-value, and mean operators satisfy the boundary-value "
                   "chain"))
def _check_plemelj_chain(cfg: SuiteConfig) -> list:
    K = cfg.circle.K
    c = _probes(cfg, "trig-poly", 22, cfg.probe_counts["circle"], K=K)
    f = c.coeffs
    s = cauchy_symbol(c).coeffs
    pv = cauchy_pv(c).coeffs
    h = circular_hilbert(c).coeffs
    mean_only, plus, minus, tilde = (
        plemelj_project(c, part).coeffs for part in ("zero", "plus", "minus", "plus-tilde")
    )
    # mean invariance of the semigroup action with its normalising constant
    r = RationalScale(2, 3, 0.4)
    acted = semigroup_act(c, r, k_out=K).coeffs
    mean_drift = np.abs(acted[..., K] - math.sqrt(r.p / r.q) * f[..., K])
    defects = (
        s - 2.0 * pv,
        s - (1j * h + mean_only),
        pv - (0.5j * h + 0.5 * mean_only),
        plus + minus - f,
        plus - mean_only - tilde,
        # projections expressed through the symbol operator
        0.5 * (f + s) - plus,
    )
    return [mean_drift, *(_rel(d, 1.0) for d in defects)]


@_check("circle", ("a05-semigroup-averaging", "semigroup_averaging",
                   "coefficient closed form of the rational-dilation action equals "
                   "root-of-unity averaging"))
def _check_semigroup_averaging(cfg: SuiteConfig) -> list:
    K_probe = min(25, cfg.circle.K)
    c = _probes(cfg, "trig-poly", 23, cfg.probe_counts["circle"], K=K_probe, degree=K_probe)

    def defect(element):
        r = RationalScale(*element)
        closed = semigroup_act(c, r)
        sampled = semigroup_act_samples(c, r, max(2 * closed.K + 2, 64))
        recovered = circle_coeffs_from_samples(sampled, closed.K)
        return np.abs(closed.coeffs - recovered.coeffs).max(axis=-1)  # per probe

    return list(map(defect, cfg.rational_set))


def _a06_regime(cfg: SuiteConfig) -> Optional[str]:
    return next((f"circle K={cfg.circle.K} is below the scale q={q} of rational element "
                 f"{(q, p, beta)}: a06-semigroup-commutation keeps a scale by q on the "
                 f"degree-K truncation, which needs q <= K"
                 for q, p, beta in cfg.rational_set if p == 1 and q > cfg.circle.K), None)


@_check("circle", ("a06-semigroup-commutation", "semigroup_commutation",
                   "rational-dilation action commutes with the circular transform in exact "
                   "coefficient arithmetic"), regime=_a06_regime)
def _check_semigroup_commutation(cfg: SuiteConfig) -> list:
    K = cfg.circle.K

    @functools.cache  # the seed and degree of a batch do not depend on beta
    def batch(q, p):
        return _probes(cfg, "trig-poly", 24 + 7 * q + 13 * p, 5, K=K, degree=max(1, K // (p * q)))

    def defects(element):
        q, p, beta = element
        r = RationalScale(q, p, beta)
        c = batch(q, p)
        lhs = semigroup_act(circular_hilbert(c), r, k_out=K)
        rhs = circular_hilbert(semigroup_act(c, r, k_out=K))
        # composition law: pi(q/p, beta) = pi(q, 0) after pi(1/p, beta)
        step = semigroup_act(semigroup_act(c, RationalScale(1, p, beta)), RationalScale(q, 1, 0.0))
        direct = semigroup_act(c, r)
        pad = max(step.K, direct.K)
        return (np.abs(lhs.coeffs - rhs.coeffs).max(axis=-1),  # per probe
                np.abs(step.padded(pad).coeffs - direct.padded(pad).coeffs).max(axis=-1))

    return list(map(defects, cfg.rational_set))


@_check(
    "circle",
    ("a10-annihilator-zero", "annihilator_outcomes",
     "empty zero set plus vanishing convolutions forces the zero signal"),
    ("a10-annihilator-witness", "annihilator_outcomes",
     "a surviving convolution coefficient is returned as a counterexample witness"),
)
def _annihilator_outcomes(cfg: SuiteConfig) -> tuple:
    K = min(cfg.circle.K, 64)
    rng = np.random.default_rng(_rng_seed(cfg, 27))
    trials = cfg.probe_counts["annihilator"]
    size = 2 * K + 1

    def covering_member():
        mags = 0.2 + 0.8 * rng.random(size)
        return CircleSignal(mags * np.exp(2j * np.pi * rng.random(size)))

    def zero_failed(_):
        fam = SignalFamily((covering_member(), covering_member()))
        return annihilator_witness(fam, CircleSignal(np.zeros(size))) is not None

    def witness_failed(_):
        support = rng.choice(size, size=max(3, size // 4), replace=False)
        phi_coeffs = np.zeros(size, dtype=complex)
        phi_coeffs[support] = 1.0 + rng.random(support.size)
        killer_coeffs = np.array(covering_member().coeffs)
        killer_coeffs[rng.choice(support, size=max(1, support.size // 2), replace=False)] = 0.0
        fam = SignalFamily((CircleSignal(killer_coeffs), covering_member()))
        k = annihilator_witness(fam, CircleSignal(phi_coeffs))
        # a witness must be an index where phi and some member are both nonzero
        return (k is None or phi_coeffs[k + K] == 0.0
                or all(abs(m.coeffs[k + K]) == 0.0 for m in fam.members))

    # the zero trials draw first, then the witness trials
    return sum(map(zero_failed, range(trials))), sum(map(witness_failed, range(trials)))


def _circle_probe_samples(cfg: SuiteConfig, salt: int, count: int) -> CircleSamples:
    c = _probes(cfg, "trig-poly", salt, count, K=_MOEBIUS_PROBE_DEGREE)
    return circle_samples_from_coeffs(c, cfg.circle.n_samples)


def _moebius_samples_needed(a: float) -> int:
    """Sample count that holds the a11 probes after a disc automorphism with
    Blaschke parameter a: the map stretches frequencies by up to (1+a)/(1-a),
    and half the samples must cover 1.5 times the stretched probe degree."""
    return 2 * math.ceil(1.5 * _MOEBIUS_PROBE_DEGREE * (1.0 + a) / (1.0 - a))


def _a11_regime(cfg: SuiteConfig) -> Optional[str]:
    a_max = max(a for _, a in cfg.moebius_set)
    need = _moebius_samples_needed(a_max)
    if cfg.circle.n_samples < need:
        return (f"circle n_samples={cfg.circle.n_samples} is below {need}: "
                f"a11-moebius-unitarity needs its degree-{_MOEBIUS_PROBE_DEGREE} probes, "
                f"stretched by (1+a)/(1-a) at a={a_max}, to stay inside the sampled band")
    return None


@_check("circle", ("a11-moebius-unitarity", "moebius_unitarity",
                   "disc-automorphism action with the jacobian weight preserves the norm"),
        regime=_a11_regime)
def _check_moebius_unitarity(cfg: SuiteConfig) -> list:
    s = _circle_probe_samples(cfg, 28, cfg.probe_counts["circle"])
    sn = np.linalg.norm(s.values, axis=-1)

    def drift(element):
        acted = moebius_act(s, MoebiusElement(*element), "jacobian").values
        return np.abs(np.linalg.norm(acted, axis=-1) / sn - 1.0)

    return list(map(drift, cfg.moebius_set))


@_check(
    "circle",
    ("a11-moebius-defect-jacobian", None,
     "commutator of the jacobian-weight disc action with the principal-value Cauchy operator "
     "(reported)"),
    ("a11-moebius-defect-plain", None,
     "commutator of the plain-weight disc action with the principal-value Cauchy operator "
     "(reported)"),
)
def _check_moebius_cauchy_defects(cfg: SuiteConfig) -> tuple:
    s = _circle_probe_samples(cfg, 29, max(5, cfg.probe_counts["circle"] // 2))
    K_full = (s.n - 1) // 2

    def cauchy(samples):
        return circle_samples_from_coeffs(
            cauchy_pv(circle_coeffs_from_samples(samples, K_full)), s.n
        )

    cf = cauchy(s)
    sn = np.linalg.norm(s.values, axis=-1)

    def defect(weight, element):
        m = MoebiusElement(*element)
        lhs = cauchy(moebius_act(s, m, weight))
        return _rel(lhs.values - moebius_act(cf, m, weight).values, sn)

    return tuple([defect(w, e) for e in cfg.moebius_set] for w in ("jacobian", "plain"))


@_check("circle", ("m04-circle-parseval", "parseval",
                   "coefficient/sample conversions are lossless isometries"))
def _check_circle_parseval(cfg: SuiteConfig) -> tuple:
    n_s = cfg.circle.n_samples
    c = _probes(cfg, "trig-poly", 25, 10, K=min(cfg.circle.K, (n_s - 1) // 2))
    samples = circle_samples_from_coeffs(c, n_s)
    cn = np.linalg.norm(c.coeffs, axis=-1)
    sn = np.linalg.norm(samples.values, axis=-1) / math.sqrt(n_s)
    back = circle_coeffs_from_samples(samples, c.K)
    return np.abs(sn - cn) / cn, _rel(back.coeffs - c.coeffs, cn)


@_check("circle", ("m05-circle-quadrature", "quadrature_circle",
                   "cotangent-kernel quadrature matches the coefficient multiplier"))
def _check_circle_quadrature(cfg: SuiteConfig) -> np.ndarray:
    n_s = cfg.circle.n_samples
    deg = n_s // 8
    c = _probes(cfg, "trig-poly", 26, 10, K=deg, degree=deg)
    samples = circle_samples_from_coeffs(c, n_s)
    quad = circular_hilbert_quadrature(samples)
    mult = circle_samples_from_coeffs(circular_hilbert(c), n_s)
    return _rel(quad.values - mult.values, np.linalg.norm(samples.values, axis=-1))


# ---------------------------------------------------------------------------
# symmetry checks


@_check("symmetry", ("a07-decomposition-roundtrip", "decomposition_roundtrip",
                     "operators built as lam*I + eta*H decompose back to (lam, eta)"))
def _check_decomposition_roundtrip(cfg: SuiteConfig) -> list:
    basis = LineBasis(cfg.operator_n, cfg.line.x_min, cfg.operator_grid().dx)
    rng = np.random.default_rng(_rng_seed(cfg, 31))
    draws = [
        (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        for _ in range(cfg.probe_counts["roundtrip"])
    ]

    def from_multiplier(lam, eta, basis):
        # lam*I + eta*M, M the matrix of hilbert_multiplier (its values on
        # the identity batch, transposed): a dense operator, decomposed from
        # its entries, where a synthesized one is read from its own symbol.
        # A quarter of the identity at a time keeps the scratch below the
        # n x n matrix it fills.
        n, step = basis.n, -(-basis.n // 4)
        m = np.empty((n, n), dtype=complex)
        for j in range(0, n, step):
            rows = LineSignal(basis.grid(), np.eye(min(step, n - j), n, j))
            m[:, j : j + step] = eta * hilbert_multiplier(rows).values.T
        m[np.diag_indices(n)] += lam
        return OperatorMatrix(basis, m)

    def roundtrip(item):
        (lam, eta), make = item
        dec = decompose_line_operator(make(lam, eta, basis))
        return abs(dec.lam - lam), abs(dec.eta - eta), dec.max_residual

    # one dense operator per suite: building one per draw costs more than
    # the rest of the check
    items = [(draw, synthesize_commuting_operator) for draw in draws]
    return list(map(roundtrip, [(draws[0], from_multiplier), *items]))


@_check("symmetry", ("a07-hilbert-classifier", "classifier_verdicts",
                     "the anti-symmetric real isometry test singles out +-H (count of wrong "
                     "verdicts)"))
def _check_classifier(cfg: SuiteConfig) -> int:
    basis = LineBasis(cfg.operator_n, cfg.line.x_min, cfg.operator_grid().dx)
    fbasis = FourierBasis(cfg.circle.K)
    x = basis.grid().positions().astype(complex)

    def h(b):
        return synthesize_commuting_operator(0.0, 1.0, b)

    def ident():
        return synthesize_commuting_operator(1.0, 0.0, basis)

    # (operator factory, expected verdict): each operator is built when its
    # turn comes, so at most one of them is alive at a time
    cases = (
        (lambda: h(basis), "plus-H"),
        (lambda: OperatorMatrix(basis, -h(basis).entries), "minus-H"),
        (ident, "neither"),
        (lambda: OperatorMatrix(basis, 0.5 * ident().entries + 0.5j * h(basis).entries),
         "neither"),
        (lambda: OperatorMatrix(basis, np.diag(x)), "neither"),
        (lambda: h(fbasis), "plus-H"),
        (lambda: OperatorMatrix(fbasis, -h(fbasis).entries), "minus-H"),
    )
    return sum(classify_pm_hilbert(make()).verdict != want for make, want in cases)


@_check("symmetry", ("a08-three-scalar-blocks", "three_scalar_blocks",
                     "three-block scalar extraction recovers the circle operators' symbols"))
def _check_three_scalar_blocks(cfg: SuiteConfig) -> list:
    basis = FourierBasis(cfg.circle.K)
    # the matrix of cauchy_symbol, applied to the rows of the identity
    s_mat = OperatorMatrix(basis, cauchy_symbol(CircleSignal(np.eye(basis.dim))).coeffs)
    cases = (
        (synthesize_commuting_operator(0.0, 1.0, basis), (-1j, 0.0, 1j)),
        (s_mat, (1.0, 1.0, -1.0)),
        (synthesize_commuting_operator(1.0, 0.0, basis), (1.0, 1.0, 1.0)),
    )

    def defects(case):
        T, (lam, eta, omega) = case
        dec = decompose_circle_operator(T)
        return abs(dec.lam - lam), abs(dec.eta - eta), abs(dec.omega - omega), dec.max_residual

    return list(map(defects, cases))


def _scalarity_scales():
    return [
        RationalScale(1, 1, 0.9),
        RationalScale(1, 1, 2.3),
        RationalScale(2, 1, 0.0),
        RationalScale(1, 2, 0.0),
    ]


@_check("symmetry", ("a09-commutant-scalarity", "commutant_scalarity",
                     "polynomials in H show no off-diagonal, rotation or within-orbit spread "
                     "defect (no scalarity proof: the dilation orbits need not be one class)"))
def _check_commutant_scalarity(cfg: SuiteConfig) -> list:
    basis = FourierBasis(cfg.circle.K)
    h_diag = -1j * sign_symbol(basis.signed_indices())
    rng = np.random.default_rng(_rng_seed(cfg, 32))

    def defects(_):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        diag = sum(coeffs[j] * h_diag**j for j in range(4))
        report = rotation_commutant_analysis(
            OperatorMatrix(basis, np.diag(diag)), _scalarity_scales()
        )
        return report.diagonal_defect, report.orbit_spread, report.rotation_defect

    return list(map(defects, range(cfg.probe_counts["scalarity"])))


def _a09_regime(cfg: SuiteConfig) -> Optional[str]:
    if cfg.circle.K < 2:
        return (f"circle K={cfg.circle.K} is too small: a09-perturbation-flagging perturbs "
                f"one index in [1, K//2], so K must be at least 2")
    return None


@_check("symmetry", ("a09-perturbation-flagging", "perturbation_flag",
                     "orbit-breaking diagonal perturbations are flagged (count not flagged)"),
        regime=_a09_regime)
def _check_perturbation_flags(cfg: SuiteConfig) -> int:
    K = cfg.circle.K
    basis = FourierBasis(K)
    rng = np.random.default_rng(_rng_seed(cfg, 33))

    def missed(_):
        diag = np.full(2 * K + 1, complex(rng.normal(), rng.normal()), dtype=complex)
        diag[int(rng.integers(1, K // 2 + 1)) + K] += 1.0
        report = rotation_commutant_analysis(OperatorMatrix(basis, np.diag(diag)),
                                             _scalarity_scales())
        return report.orbit_spread < 0.5

    return sum(map(missed, range(cfg.probe_counts["scalarity"])))


@_check("symmetry", ("m06-engine-commutator-line", "engine_commutator_line",
                     "matrix engine reproduces the line commutation bound"),
        regime=_guarded_regime)
def _check_engine_commutator_line(cfg: SuiteConfig) -> float:
    grid = cfg.operator_grid()
    basis = LineBasis(grid.n, grid.x_min, grid.dx)
    h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
    probes = make_probes("gaussian-packet", seed=_rng_seed(cfg, 34),
                         count=max(5, cfg.probe_counts["line"] // 2), grid=grid, **_GUARDED)
    actions = [
        line_affine_action(AffineElement(a, b))
        for a in _ENGINE_SCALES
        for b in (0.0, 7 * grid.dx, 3.5 * grid.dx)
    ]
    return commutator_defect(h_mat, actions, probes).max_defect


@_check("symmetry", ("m07-engine-commutator-circle", "engine_commutator_circle",
                     "matrix engine reproduces the exact circle commutation"))
def _check_engine_commutator_circle(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    h_mat = synthesize_commuting_operator(0.0, 1.0, FourierBasis(K))
    actions = [circle_semigroup_action(RationalScale(*r), K) for r in cfg.rational_set[:12]]
    probes = make_probes(
        "trig-poly", seed=_rng_seed(cfg, 35), count=5, K=K, degree=max(1, K // 25)
    )
    return commutator_defect(h_mat, actions, probes).max_defect


@_check("symmetry", ("m08-decomposition-soundness", "soundness",
                     "reported residuals compose exactly into the reconstruction error"))
def _check_soundness(cfg: SuiteConfig) -> list:
    n = min(cfg.operator_n, 256)
    basis = LineBasis(n, cfg.line.x_min, (cfg.line.x_max - cfg.line.x_min) / n)
    rng = np.random.default_rng(_rng_seed(cfg, 36))

    def defect(_):
        entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T = OperatorMatrix(basis, entries)
        dec = decompose_line_operator(T)
        recon = synthesize_commuting_operator(dec.lam, dec.eta, basis)
        tnorm = T.frobenius_norm
        lhs = _frobenius(T.entries - recon.entries)
        rhs = tnorm * math.sqrt(
            dec.residual_plus**2 + dec.residual_minus**2 + dec.residual_zero**2
        )
        return abs(lhs - rhs) / tnorm

    return list(map(defect, range(5)))


# ---------------------------------------------------------------------------
# runner


def run_verify(target: str, config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run the verification suite for one target (or "all").

    Deterministic for a fixed config: probe seeds derive from the config
    seed, records are ordered by check id, and the report carries no
    timestamp.  Check failures (including tripped guards inside a check)
    become failed records rather than exceptions; a check that raises fails
    every record it declares, with the same note.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown verify target {target!r}; expected one of {TARGETS}")
    cfg = config if config is not None else SuiteConfig()
    records = []
    for check in _REGISTRY:
        if target not in ("all", check.target):
            continue
        try:
            values = check.fn(cfg)
            measured = [_worst(v) for v in (values if len(check.records) > 1 else (values,))]
            note = ""
        except Exception as exc:  # noqa: BLE001 - failed checks become records
            measured, note = [None] * len(check.records), f"error: {exc}"
        for (check_id, tol_key, anchor), m in zip(check.records, measured, strict=True):
            tol = cfg.tolerances[tol_key] if tol_key is not None else None
            passed = m is not None and m <= (math.inf if tol is None else tol)  # False for NaN
            info = (note if m is None else "measured NaN" if math.isnan(m)
                    else "reported, not asserted" if tol is None else note)
            records.append(CheckRecord(check_id, anchor, m, tol, passed, info))
    records.sort(key=lambda r: r.check_id)
    return SuiteReport(
        target=target, version=__version__, config=asdict(cfg), records=tuple(records)
    )
