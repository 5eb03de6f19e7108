"""Verification suite: every check the package promises, run from one config.

Each check is a pure function of the configuration (probe randomness is
seeded per check), declared once with ``@_check``, and produces one record
{check id, anchor, measured, tolerance, pass} per value it returns.  The
runner never raises for a check: failures of preconditions inside a check
surface as failed records.  Reports are deterministic for a fixed config and
seed, and contain no timestamps.

Checks whose tolerance is reported as None are informational: their measured
values are published but not asserted (see the Moebius weight notes in
circle_ops).
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
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
    AffineElement,
    hardy_project,
    hilbert_multiplier,
    hilbert_pv_quadrature,
    rep_natural,
)
from .probes import _EDGE_TOL as _PROBE_EDGE_TOL
from .probes import make_probes
from .signals import (
    CircleSamples,
    CircleSignal,
    Grid1D,
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
# Packets of a01 (m01 draws the make_probes defaults, narrower and nearer 0).
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
        base = _default_tolerances()
        base.update(self.tolerances)
        self.tolerances = base
        counts = _default_probe_counts()
        counts.update(self.probe_counts)
        self.probe_counts = counts
        dx = (self.line.x_max - self.line.x_min) / max(self.line.n, 1)  # n < 8 fails validate()
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

    def validate(self):
        """Raise ValueError at the first generic rule broken (the checks'
        regime rules rely on them): the six value rules, then unknown keys,
        non-integer sizes, a negative seed or operator_n below 1, and action-set
        elements their own class rejects; else with every check's reason."""
        for name, tol in self.tolerances.items():
            if not tol > 0:
                raise ValueError(f"tolerance {name!r} must be positive")
        for name, cnt in self.probe_counts.items():
            if cnt < 1:
                raise ValueError(f"probe count {name!r} must be at least 1")
        if not self.affine_set or not self.rational_set or not self.moebius_set:
            raise ValueError("action sets must be non-empty")
        if self.circle.n_samples % 2 != 0:
            raise ValueError("circle n_samples must be even (quadrature pairing)")
        if self.line.n < 8:
            raise ValueError("line grid too small")
        if not all(0.0 <= a < 1.0 for _, a in self.moebius_set):
            raise ValueError("moebius_set Blaschke parameters must lie in [0, 1)")
        for name, given, known in (("tolerance", self.tolerances, _default_tolerances()),
                                   ("probe count", self.probe_counts, _default_probe_counts())):
            if unknown := sorted(set(given) - set(known)):
                raise ValueError(f"unknown {name} {', '.join(map(repr, unknown))}")
        sizes = {"rng_seed": self.rng_seed, "line.n": self.line.n, "circle.K": self.circle.K,
                 "circle.n_samples": self.circle.n_samples, "operator_n": self.operator_n,
                 **{f"probe count {k!r}": v for k, v in self.probe_counts.items()}}
        for name, value in sizes.items():
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, value, least in (("rng_seed", self.rng_seed, 0),
                                   ("operator_n", self.operator_n, 1)):
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for name, element_type in (("affine_set", AffineElement), ("rational_set", RationalScale),
                                   ("moebius_set", MoebiusElement)):
            for element in getattr(self, name):
                try:
                    element_type(*element)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name} element {element!r}: {exc}") from None
        reasons = [why for check in _REGISTRY if check.regime and (why := check.regime(self))]
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
        return asdict(self)


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


_POOL = None  # (pid, workers, executor) of the threads behind _map
_POOL_LOCK = threading.Lock()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pool(workers: int):
    """The executor of at least ``workers`` threads, created on first use
    (and again in a forked child, which inherits no threads)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid() or _POOL[1] < workers:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = (os.getpid(), workers, ThreadPoolExecutor(workers, "hilbertsym-verify"))
        return _POOL[2]


def _map(fn: Callable, items) -> list:
    """``[fn(x) for x in items]``, for a sequence of items, with the items
    split over the CPUs in this process's affinity mask.

    Share s of the N shares takes items s, s + N, s + 2N, ...; the calling
    thread runs share 0 and pool threads the others.  Results come back in
    item order, and when items raise, the failure of the lowest-index one is
    raised, as the serial loop would.  With one CPU (or one item) this is
    the serial loop.  The gain rests on numpy's FFTs and array loops
    releasing the GIL, so ``fn`` must not call BLAS: its spinning worker
    threads would take the CPUs the shares run on.

    This is not ``ThreadPoolExecutor.map``, which gives the same results:
    there the calling thread only waits while N pool threads run, one more
    allocating thread than here.  On 2 cores that raised the peak RSS of a
    process running ``run_verify("all")`` from 63 MB to 70 MB (from 60 MB
    to 63.5 MB with glibc held to one malloc arena).
    """
    shares = min(_cpu_count(), len(items))
    if shares <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)

    def run(share):
        for i in range(share, len(items), shares):
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # noqa: BLE001 - re-raised below, by index
                return i, exc
        return None

    futures = [_pool(shares - 1).submit(run, s) for s in range(1, shares)]
    failures = [run(0)] + [f.result() for f in futures]
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _rel(diff_values, ref) -> float:
    """Largest row of ||diff|| / ref, for one signal or a batch of rows (ref
    is a scalar or one value per row)."""
    return float(np.max(np.linalg.norm(diff_values, axis=-1) / np.maximum(ref, 1e-300)))


class _Check(NamedTuple):
    target: str
    fn: Callable[[SuiteConfig], object]
    records: tuple  # (check_id, tol_key, anchor) per measured value
    regime: Optional[Callable[[SuiteConfig], Optional[str]]]


_REGISTRY = []  # every check, in declaration order (the order "all" runs them in)


def _check(target: str, *records, regime=None):
    """Register the decorated function as a check of ``target`` with one
    (check_id, tol_key, anchor) record per value it returns: a bare value for
    one record, a tuple for several.  A tol_key names an entry of the config's
    tolerances; None marks a record that is reported, not asserted.  ``regime(cfg)``
    returns why ``validate()`` must reject ``cfg``, naming the checks it breaks, or None."""

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

def _window_reason(cfg: SuiteConfig, checks: str, packets: dict, a: float,
                   eps: float) -> Optional[str]:
    """Why the line window is too narrow for ``checks``, or None when, beyond the
    last sample of the coarser of the line and operator grids, every packet of
    the ``packets`` ranges, dilated by ``a``, has energy density (relative to its
    peak) and energy share below ``eps``: |f|^2 = exp(-(x - c)^2 / w^2) has density
    exp(-D^2 / w^2) at distance D and share erfc(D / w), no larger, beyond D on
    both sides.  Dilation by a scales c and w by a."""
    x_min, x_max = cfg.line.x_min, cfg.line.x_max
    side = min(-x_min, x_max - (x_max - x_min) / min(cfg.line.n, cfg.operator_n))
    w = max(packets["width"])
    c = max(abs(x) for x in packets["center"])
    reach = a * (c + w * math.sqrt(math.log(1.0 / eps)))
    if side < reach:
        return (f"line window [{x_min:g}, {x_max:g}] is too narrow: {checks} need their "
                f"packets, dilated by up to {a:g}, to keep below {eps:.0e} of their "
                f"energy outside +-{reach:.4g}")
    return None


# a01's error is cubic in the line spacing for these packets: at most
# 12.38 dx^3 over rng seeds 0-31 at the default grid, 12.35 dx^3 at n = 1800-1900.
_A01_CUBIC = 16.0


def _a01_regime(cfg: SuiteConfig) -> Optional[str]:
    # make_probes' edge test bounds the amplitude, so the density bound is its square
    window = _window_reason(cfg, "a01-multiplier-vs-quadrature and m01-line-parseval",
                            _A01_PACKETS, 1.0, _PROBE_EDGE_TOL**2)
    dx = (cfg.line.x_max - cfg.line.x_min) / cfg.line.n
    tol = cfg.tolerances["multiplier_vs_quadrature"]
    coarse = _A01_CUBIC * dx**3 > tol and (
        f"line grid spacing {dx:.4g} (n={cfg.line.n}) is too coarse: "
        f"a01-multiplier-vs-quadrature errs by up to {_A01_CUBIC:g}*dx^3 = "
        f"{_A01_CUBIC * dx**3:.2g}, above its tolerance {tol:g}")
    return "; ".join(why for why in (window, coarse) if why) or None


@_check("line", ("a01-multiplier-vs-quadrature", "multiplier_vs_quadrature",
                 "singular kernel quadrature agrees with the multiplier form on the line"),
        regime=_a01_regime)
def _check_multiplier_vs_quadrature(cfg: SuiteConfig) -> float:
    grid = cfg.line_grid()
    f = _probes(cfg, "gaussian-packet", 11, cfg.probe_counts["line"], grid=grid,
                **_A01_PACKETS)
    central = slice(grid.n // 4, 3 * grid.n // 4)
    diff = hilbert_pv_quadrature(f).values - hilbert_multiplier(f).values
    return _rel(diff[:, central], np.linalg.norm(f.values, axis=-1))


@_check("line", ("a02-involution-line", "involution_line",
                 "applying the line transform twice negates mean-free signals"))
def _check_involution_line(cfg: SuiteConfig) -> float:
    f = _probes(cfg, "random-bandlimited", 12, cfg.probe_counts["line"], grid=cfg.line_grid())
    hh = hilbert_multiplier(hilbert_multiplier(f))
    return _rel(hh.values + f.values, np.linalg.norm(f.values, axis=-1))


def _a03_regime(cfg: SuiteConfig) -> Optional[str]:
    a_max = max(*_ENGINE_SCALES, *(a for a, _ in cfg.affine_set))
    return _window_reason(cfg, "a03-affine-commutation, m03-rep-isometry and "
                          "m06-engine-commutator-line", _GUARDED, a_max, ALIAS_GUARD_TOL)


@_check("line", ("a03-affine-commutation", "affine_commutation",
                 "scale and shift actions commute with the line transform"),
        regime=_a03_regime)
def _check_affine_commutation(cfg: SuiteConfig) -> float:
    f = _probes(cfg, "gaussian-packet", 13, cfg.probe_counts["line"], grid=cfg.line_grid(),
                **_GUARDED)
    hf = hilbert_multiplier(f)
    fn = np.linalg.norm(f.values, axis=-1)

    def defect(element):
        a, b = element
        g = AffineElement(a, b)
        lhs = hilbert_multiplier(rep_natural(f, g))
        return _rel(lhs.values - rep_natural(hf, g).values, fn)

    return max(0.0, *_map(defect, cfg.affine_set))


@_check("line", ("m01-line-parseval", "parseval",
                 "transform pair is unitary (round trip and norm preservation)"))
def _check_line_parseval(cfg: SuiteConfig) -> float:
    def defect(f):
        s = dft(f)
        fn = np.linalg.norm(f.values, axis=-1)
        sn = np.linalg.norm(s.values, axis=-1) * math.sqrt(f.grid.dxi / f.grid.dx)
        return max(float(np.max(np.abs(sn - fn) / fn)), _rel(idft(s).values - f.values, fn))

    grid = cfg.line_grid()
    probes = make_probes(
        "gaussian-packet", seed=_rng_seed(cfg, 14), count=5, grid=grid
    ) + make_probes("random-bandlimited", seed=_rng_seed(cfg, 15), count=5, grid=grid)
    # transform contract must not depend on n being a power of two
    g360 = Grid1D.from_interval(-40.0, 40.0, 360)
    f360 = make_probes("gaussian-packet", seed=_rng_seed(cfg, 16), count=1, grid=g360,
                       width=(2.0, 3.0), center=(-1.0, 1.0), modulation=(1.0, 2.0))[0]
    return max(defect(stack_signals(probes)), defect(f360))


@_check("line", ("m02-hardy-identities", "hardy_identities",
                 "Hardy projections partition the identity and diagonalise the transform"))
def _check_hardy_identities(cfg: SuiteConfig) -> float:
    f = _probes(cfg, "random-bandlimited", 17, cfg.probe_counts["line"], grid=cfg.line_grid())
    plus = hardy_project(f, "+").values
    minus = hardy_project(f, "-").values
    h = hilbert_multiplier(f).values
    fn = np.linalg.norm(f.values, axis=-1)
    return max(
        _rel(plus + minus - f.values, fn),
        _rel(plus - minus - 1j * h, fn),
        # Hardy parts are eigenvectors (probes carry no mean/Nyquist share)
        _rel(hilbert_multiplier(f.with_values(plus)).values + 1j * plus, fn),
        _rel(hilbert_multiplier(f.with_values(minus)).values - 1j * minus, fn),
    )


@_check("line", ("m03-rep-isometry", "rep_isometry",
                 "the natural scale/shift action preserves the norm"))
def _check_rep_isometry(cfg: SuiteConfig) -> float:
    f = _probes(cfg, "gaussian-packet", 18, max(5, cfg.probe_counts["line"] // 2),
                grid=cfg.line_grid(), **_GUARDED)
    fn = np.linalg.norm(f.values, axis=-1)

    def drift(element):
        a, b = element
        acted = np.linalg.norm(rep_natural(f, AffineElement(a, b)).values, axis=-1)
        return float(np.max(np.abs(acted - fn) / fn))

    return max(0.0, *_map(drift, cfg.affine_set))


# ---------------------------------------------------------------------------
# circle checks


@_check("circle", ("a02-involution-circle", "involution_circle",
                   "squared circular transform is minus identity plus the mean part"))
def _check_involution_circle(cfg: SuiteConfig) -> float:
    c = _probes(cfg, "trig-poly", 21, cfg.probe_counts["circle"], K=cfg.circle.K)
    hh = circular_hilbert(circular_hilbert(c))
    return _rel(hh.coeffs + c.coeffs - plemelj_project(c, "zero").coeffs, 1.0)


@_check("circle", ("a04-plemelj-chain", "plemelj_chain",
                   "symbol, principal-value, and mean operators satisfy the boundary-value "
                   "chain"))
def _check_plemelj_chain(cfg: SuiteConfig) -> float:
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
    return max(float(np.max(mean_drift)), *(_rel(d, 1.0) for d in defects))


@_check("circle", ("a05-semigroup-averaging", "semigroup_averaging",
                   "coefficient closed form of the rational-dilation action equals "
                   "root-of-unity averaging"))
def _check_semigroup_averaging(cfg: SuiteConfig) -> float:
    K_probe = min(25, cfg.circle.K)
    c = _probes(cfg, "trig-poly", 23, cfg.probe_counts["circle"], K=K_probe, degree=K_probe)

    def defect(element):
        r = RationalScale(*element)
        closed = semigroup_act(c, r)
        sampled = semigroup_act_samples(c, r, max(2 * closed.K + 2, 64))
        recovered = circle_coeffs_from_samples(sampled, closed.K)
        return float(np.max(np.abs(closed.coeffs - recovered.coeffs)))

    return max(0.0, *map(defect, cfg.rational_set))


def _a06_regime(cfg: SuiteConfig) -> Optional[str]:
    return next((f"circle K={cfg.circle.K} is below the scale q={q} of rational element "
                 f"{(q, p, beta)}: a06-semigroup-commutation keeps a scale by q on the "
                 f"degree-K truncation, which needs q <= K"
                 for q, p, beta in cfg.rational_set if p == 1 and q > cfg.circle.K), None)


@_check("circle", ("a06-semigroup-commutation", "semigroup_commutation",
                   "rational-dilation action commutes with the circular transform in exact "
                   "coefficient arithmetic"), regime=_a06_regime)
def _check_semigroup_commutation(cfg: SuiteConfig) -> float:
    K = cfg.circle.K

    def defects(element):
        q, p, beta = element
        r = RationalScale(q, p, beta)
        c = _probes(cfg, "trig-poly", 24 + 7 * q + 13 * p, 5, K=K, degree=max(1, K // (p * q)))
        lhs = semigroup_act(circular_hilbert(c), r, k_out=K)
        rhs = circular_hilbert(semigroup_act(c, r, k_out=K))
        # composition law: pi(q/p, beta) = pi(q, 0) after pi(1/p, beta)
        step = semigroup_act(semigroup_act(c, RationalScale(1, p, beta)), RationalScale(q, 1, 0.0))
        direct = semigroup_act(c, r)
        pad = max(step.K, direct.K)
        return (
            float(np.max(np.abs(lhs.coeffs - rhs.coeffs))),
            float(np.max(np.abs(step.padded(pad).coeffs - direct.padded(pad).coeffs))),
        )

    return max(0.0, *chain.from_iterable(map(defects, cfg.rational_set)))


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

    zero_failures = 0
    for _ in range(trials):
        fam = SignalFamily((covering_member(), covering_member()))
        phi = CircleSignal(np.zeros(size))
        if annihilator_witness(fam, phi) is not None:
            zero_failures += 1

    witness_failures = 0
    for _ in range(trials):
        support = rng.choice(size, size=max(3, size // 4), replace=False)
        phi_coeffs = np.zeros(size, dtype=complex)
        phi_coeffs[support] = 1.0 + rng.random(support.size)
        killer = covering_member()
        killed = rng.choice(support, size=max(1, support.size // 2), replace=False)
        killer_coeffs = np.array(killer.coeffs)
        killer_coeffs[killed] = 0.0
        fam = SignalFamily((CircleSignal(killer_coeffs), covering_member()))
        k = annihilator_witness(fam, CircleSignal(phi_coeffs))
        # a witness must be an index where phi and some member are both nonzero
        if (k is None or phi_coeffs[k + K] == 0.0
                or all(abs(m.coeffs[k + K]) == 0.0 for m in fam.members)):
            witness_failures += 1
    return float(zero_failures), float(witness_failures)


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
def _check_moebius_unitarity(cfg: SuiteConfig) -> float:
    s = _circle_probe_samples(cfg, 28, cfg.probe_counts["circle"])
    sn = np.linalg.norm(s.values, axis=-1)

    def drift(element):
        acted = moebius_act(s, MoebiusElement(*element), "jacobian").values
        return float(np.max(np.abs(np.linalg.norm(acted, axis=-1) / sn - 1.0)))

    return max(0.0, *map(drift, cfg.moebius_set))


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

    return tuple(
        max(0.0, *map(defect, repeat(weight), cfg.moebius_set)) for weight in ("jacobian", "plain")
    )


@_check("circle", ("m04-circle-parseval", "parseval",
                   "coefficient/sample conversions are lossless isometries"))
def _check_circle_parseval(cfg: SuiteConfig) -> float:
    n_s = cfg.circle.n_samples
    c = _probes(cfg, "trig-poly", 25, 10, K=min(cfg.circle.K, (n_s - 1) // 2))
    samples = circle_samples_from_coeffs(c, n_s)
    cn = np.linalg.norm(c.coeffs, axis=-1)
    sn = np.linalg.norm(samples.values, axis=-1) / math.sqrt(n_s)
    back = circle_coeffs_from_samples(samples, c.K)
    return max(float(np.max(np.abs(sn - cn) / cn)), _rel(back.coeffs - c.coeffs, cn))


@_check("circle", ("m05-circle-quadrature", "quadrature_circle",
                   "cotangent-kernel quadrature matches the coefficient multiplier"))
def _check_circle_quadrature(cfg: SuiteConfig) -> float:
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
def _check_decomposition_roundtrip(cfg: SuiteConfig) -> float:
    basis = LineBasis(cfg.operator_n, cfg.line.x_min, cfg.operator_grid().dx)
    rng = np.random.default_rng(_rng_seed(cfg, 31))
    draws = [
        (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        for _ in range(cfg.probe_counts["roundtrip"])
    ]

    def roundtrip(draw):
        lam, eta = draw
        dec = decompose_line_operator(synthesize_commuting_operator(lam, eta, basis))
        return max(abs(dec.lam - lam), abs(dec.eta - eta), dec.max_residual)

    return max(0.0, *_map(roundtrip, draws))


@_check("symmetry", ("a07-hilbert-classifier", "classifier_verdicts",
                     "the anti-symmetric real isometry test singles out +-H (count of wrong "
                     "verdicts)"))
def _check_classifier(cfg: SuiteConfig) -> float:
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
    return float(sum(classify_pm_hilbert(make()).verdict != want for make, want in cases))


@_check("symmetry", ("a08-three-scalar-blocks", "three_scalar_blocks",
                     "three-block scalar extraction recovers the circle operators' symbols"))
def _check_three_scalar_blocks(cfg: SuiteConfig) -> float:
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

    return max(0.0, *chain.from_iterable(map(defects, cases)))


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
def _check_commutant_scalarity(cfg: SuiteConfig) -> float:
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

    return max(0.0, *chain.from_iterable(map(defects, range(cfg.probe_counts["scalarity"]))))


def _a09_regime(cfg: SuiteConfig) -> Optional[str]:
    if cfg.circle.K < 2:
        return (f"circle K={cfg.circle.K} is too small: a09-perturbation-flagging perturbs "
                f"one index in [1, K//2], so K must be at least 2")
    return None


@_check("symmetry", ("a09-perturbation-flagging", "perturbation_flag",
                     "orbit-breaking diagonal perturbations are flagged (count not flagged)"),
        regime=_a09_regime)
def _check_perturbation_flags(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    basis = FourierBasis(K)
    rng = np.random.default_rng(_rng_seed(cfg, 33))
    missed = 0
    for _ in range(cfg.probe_counts["scalarity"]):
        base = complex(rng.normal(), rng.normal())
        diag = np.full(2 * K + 1, base, dtype=complex)
        k0 = int(rng.integers(1, K // 2 + 1))
        diag[k0 + K] += 1.0
        report = rotation_commutant_analysis(
            OperatorMatrix(basis, np.diag(diag)), _scalarity_scales()
        )
        if report.orbit_spread < 0.5:
            missed += 1
    return float(missed)


# Coarsest grid spacing on which the guarded packets (modulation up to 5.2,
# width down to 1.25) keep their spectrum inside half the band, as every
# dilation by 1/2 of the m06 action set needs.
_PACKET_MAX_DX = 0.16


def _m06_regime(cfg: SuiteConfig) -> Optional[str]:
    dx = (cfg.line.x_max - cfg.line.x_min) / cfg.operator_n
    if dx > _PACKET_MAX_DX:
        return (f"operator grid spacing {dx:.4g} (operator_n={cfg.operator_n}) exceeds "
                f"{_PACKET_MAX_DX}: m06-engine-commutator-line needs its guarded packets "
                f"inside half the operator band")
    return None


@_check("symmetry", ("m06-engine-commutator-line", "engine_commutator_line",
                     "matrix engine reproduces the line commutation bound"),
        regime=_m06_regime)
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
def _check_soundness(cfg: SuiteConfig) -> float:
    n = min(cfg.operator_n, 256)
    basis = LineBasis(n, cfg.line.x_min, (cfg.line.x_max - cfg.line.x_min) / n)
    rng = np.random.default_rng(_rng_seed(cfg, 36))

    def defect(_):
        entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T = OperatorMatrix(basis, entries)
        dec = decompose_line_operator(T)
        recon = synthesize_commuting_operator(dec.lam, dec.eta, basis)
        tnorm = np.linalg.norm(T.entries)
        lhs = np.linalg.norm(T.entries - recon.entries)
        rhs = tnorm * math.sqrt(
            dec.residual_plus**2 + dec.residual_minus**2 + dec.residual_zero**2
        )
        return abs(lhs - rhs) / tnorm

    return max(0.0, *map(defect, range(5)))


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
            measured = [float(v) for v in (values if len(check.records) > 1 else (values,))]
            note = ""
        except Exception as exc:  # noqa: BLE001 - failed checks become records
            measured, note = [None] * len(check.records), f"error: {exc}"
        for (check_id, tol_key, anchor), m in zip(check.records, measured, strict=True):
            tol = cfg.tolerances[tol_key] if tol_key is not None else None
            if m is None:
                records.append(CheckRecord(check_id, anchor, None, tol, False, note))
            elif tol is None:
                records.append(
                    CheckRecord(check_id, anchor, m, None, True, "reported, not asserted")
                )
            else:
                records.append(CheckRecord(check_id, anchor, m, tol, m <= tol))
    records.sort(key=lambda r: r.check_id)
    return SuiteReport(
        target=target, version=__version__, config=asdict(cfg), records=tuple(records)
    )
