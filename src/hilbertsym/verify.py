"""Verification suite: every check the package promises, run from one config.

Each check is a pure function of the configuration (probe randomness is
seeded per check), produces exactly one record {check id, anchor, measured,
tolerance, pass}, and never raises: failures of preconditions inside a check
surface as failed records.  Reports are deterministic for a fixed config and
seed, and contain no timestamps.

Checks whose tolerance is reported as None are informational: their measured
values are published but not asserted (see the Moebius weight notes in
circle_ops).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .circle_ops import (
    MoebiusElement,
    _sign_multiplier,
    RationalScale,
    SignalFamily,
    annihilator_witness,
    cauchy_pv,
    cauchy_symbol,
    circular_hilbert,
    circular_hilbert_quadrature,
    mean_functional,
    moebius_act,
    plemelj_project,
    semigroup_act,
    semigroup_act_samples,
)
from .line_ops import (
    AffineElement,
    hardy_project,
    hilbert_multiplier,
    hilbert_pv_quadrature,
    rep_natural,
)
from .probes import make_probes
from .signals import (
    CircleSamples,
    CircleSignal,
    Grid1D,
    circle_coeffs_from_samples,
    circle_samples_from_coeffs,
    dft,
    idft,
    norm,
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
# Coarsest grid spacing on which the guarded packets (modulation up to 5.2,
# width down to 1.25) keep their spectrum inside half the band, as every
# dilation by 1/2 of the m06 action set needs.
_PACKET_MAX_DX = 0.16


def _moebius_samples_needed(a: float) -> int:
    """Sample count that holds the a11 probes after a disc automorphism with
    Blaschke parameter a: the map stretches frequencies by up to (1+a)/(1-a),
    and half the samples must cover 1.5 times the stretched probe degree."""
    return 2 * math.ceil(1.5 * _MOEBIUS_PROBE_DEGREE * (1.0 + a) / (1.0 - a))


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

    def validate(self):
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
        K = self.circle.K
        if K < 2:
            raise ValueError(
                f"circle K={K} is too small: a09-perturbation-flagging perturbs one index "
                f"in [1, K//2], so K must be at least 2"
            )
        for q, p, beta in self.rational_set:
            if p == 1 and q > K:
                raise ValueError(
                    f"circle K={K} is below the scale q={q} of rational element "
                    f"{(q, p, beta)}: a06-semigroup-commutation keeps a scale by q on the "
                    f"degree-K truncation, which needs q <= K"
                )
        if not all(0.0 <= a < 1.0 for _, a in self.moebius_set):
            raise ValueError("moebius_set Blaschke parameters must lie in [0, 1)")
        a_max = max(a for _, a in self.moebius_set)
        need = _moebius_samples_needed(a_max)
        if self.circle.n_samples < need:
            raise ValueError(
                f"circle n_samples={self.circle.n_samples} is below {need}: "
                f"a11-moebius-unitarity needs its degree-{_MOEBIUS_PROBE_DEGREE} probes, "
                f"stretched by (1+a)/(1-a) at a={a_max}, to stay inside the sampled band"
            )
        dx = (self.line.x_max - self.line.x_min) / self.operator_n
        if dx > _PACKET_MAX_DX:
            raise ValueError(
                f"operator grid spacing {dx:.4g} (operator_n={self.operator_n}) exceeds "
                f"{_PACKET_MAX_DX}: m06-engine-commutator-line needs its guarded packets "
                f"inside half the operator band"
            )

    def line_grid(self) -> Grid1D:
        return Grid1D.from_interval(self.line.x_min, self.line.x_max, self.line.n)

    def operator_grid(self) -> Grid1D:
        return Grid1D.from_interval(self.line.x_min, self.line.x_max, self.operator_n)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SuiteConfig":
        doc = dict(doc)
        line = LineGridConfig(**doc.pop("line", {}))
        circle = CircleConfig(**doc.pop("circle", {}))
        affine = doc.pop("affine_set", None)
        rational = doc.pop("rational_set", None)
        moebius = doc.pop("moebius_set", None)
        return cls(
            line=line,
            circle=circle,
            affine_set=[tuple(x) for x in affine] if affine is not None else None,
            rational_set=[tuple(x) for x in rational] if rational is not None else None,
            moebius_set=[tuple(x) for x in moebius] if moebius is not None else None,
            **doc,
        )


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    measured: Optional[float]
    tolerance: Optional[float]  # None = informational (reported, not asserted)
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


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


def _rel(diff_values, ref) -> float:
    """Largest row of ||diff|| / ref, for one signal or a batch of rows (ref
    is a scalar or one value per row)."""
    return float(np.max(np.linalg.norm(diff_values, axis=-1) / np.maximum(ref, 1e-300)))


# ---------------------------------------------------------------------------
# line checks


def _check_multiplier_vs_quadrature(cfg: SuiteConfig) -> float:
    grid = cfg.line_grid()
    f = stack_signals(make_probes(
        "gaussian-packet",
        seed=_rng_seed(cfg, 11),
        count=cfg.probe_counts["line"],
        grid=grid,
        width=(1.0, 1.6),
        center=(-4.0, 4.0),
        modulation=(3.5, 6.0),
    ))
    central = slice(grid.n // 4, 3 * grid.n // 4)
    diff = hilbert_pv_quadrature(f).values - hilbert_multiplier(f).values
    return _rel(diff[:, central], np.linalg.norm(f.values, axis=-1))


def _check_involution_line(cfg: SuiteConfig) -> float:
    f = stack_signals(make_probes(
        "random-bandlimited",
        seed=_rng_seed(cfg, 12),
        count=cfg.probe_counts["line"],
        grid=cfg.line_grid(),
    ))
    hh = hilbert_multiplier(hilbert_multiplier(f))
    return _rel(hh.values + f.values, np.linalg.norm(f.values, axis=-1))


def _guarded_packets(cfg: SuiteConfig, grid: Grid1D, salt: int, count: int):
    """Packets safe for every element of the affine set: narrow enough for
    the largest dilation, modulated away from the mean bin (and the band
    edge) so neither symbol discontinuity carries energy."""
    return make_probes(
        "gaussian-packet",
        seed=_rng_seed(cfg, salt),
        count=count,
        grid=grid,
        width=(1.25, 1.4),
        center=(-1.0, 1.0),
        modulation=(4.5, 5.2),
    )


def _check_affine_commutation(cfg: SuiteConfig) -> float:
    f = stack_signals(_guarded_packets(cfg, cfg.line_grid(), 13, cfg.probe_counts["line"]))
    hf = hilbert_multiplier(f)
    fn = np.linalg.norm(f.values, axis=-1)
    worst = 0.0
    for a, b in cfg.affine_set:
        g = AffineElement(a, b)
        lhs = hilbert_multiplier(rep_natural(f, g))
        worst = max(worst, _rel(lhs.values - rep_natural(hf, g).values, fn))
    return worst


def _check_line_parseval(cfg: SuiteConfig) -> float:
    grid = cfg.line_grid()
    probes = make_probes(
        "gaussian-packet", seed=_rng_seed(cfg, 14), count=5, grid=grid
    ) + make_probes("random-bandlimited", seed=_rng_seed(cfg, 15), count=5, grid=grid)
    worst = 0.0
    for f in probes:
        s = dft(f)
        worst = max(worst, abs(norm(s) - norm(f)) / norm(f))
        worst = max(worst, _rel(idft(s).values - f.values, np.linalg.norm(f.values)))
    # transform contract must not depend on n being a power of two
    g360 = Grid1D.from_interval(-40.0, 40.0, 360)
    f = make_probes("gaussian-packet", seed=_rng_seed(cfg, 16), count=1, grid=g360,
                    width=(2.0, 3.0), center=(-1.0, 1.0), modulation=(1.0, 2.0))[0]
    worst = max(worst, _rel(idft(dft(f)).values - f.values, np.linalg.norm(f.values)))
    worst = max(worst, abs(norm(dft(f)) - norm(f)) / norm(f))
    return worst


def _check_hardy_identities(cfg: SuiteConfig) -> float:
    f = stack_signals(make_probes(
        "random-bandlimited",
        seed=_rng_seed(cfg, 17),
        count=cfg.probe_counts["line"],
        grid=cfg.line_grid(),
    ))
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


def _check_rep_isometry(cfg: SuiteConfig) -> float:
    grid = cfg.line_grid()
    f = stack_signals(_guarded_packets(cfg, grid, 18, max(5, cfg.probe_counts["line"] // 2)))
    fn = np.linalg.norm(f.values, axis=-1)
    worst = 0.0
    for a, b in cfg.affine_set:
        acted = np.linalg.norm(rep_natural(f, AffineElement(a, b)).values, axis=-1)
        worst = max(worst, float(np.max(np.abs(acted - fn) / fn)))
    return worst


# ---------------------------------------------------------------------------
# circle checks


def _check_involution_circle(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    probes = make_probes(
        "trig-poly", seed=_rng_seed(cfg, 21), count=cfg.probe_counts["circle"], K=K
    )
    worst = 0.0
    for c in probes:
        hh = circular_hilbert(circular_hilbert(c))
        mean_only = plemelj_project(c, "zero")
        worst = max(worst, float(np.linalg.norm(hh.coeffs + c.coeffs - mean_only.coeffs)))
    return worst


def _check_plemelj_chain(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    probes = make_probes(
        "trig-poly", seed=_rng_seed(cfg, 22), count=cfg.probe_counts["circle"], K=K
    )
    worst = 0.0
    for c in probes:
        s = cauchy_symbol(c)
        pv = cauchy_pv(c)
        h = circular_hilbert(c)
        mean_only = plemelj_project(c, "zero")
        worst = max(worst, float(np.linalg.norm(s.coeffs - 2.0 * pv.coeffs)))
        worst = max(worst, float(np.linalg.norm(s.coeffs - (1j * h.coeffs + mean_only.coeffs))))
        worst = max(
            worst,
            float(np.linalg.norm(pv.coeffs - (0.5j * h.coeffs + 0.5 * mean_only.coeffs))),
        )
        plus = plemelj_project(c, "plus")
        minus = plemelj_project(c, "minus")
        tilde = plemelj_project(c, "plus-tilde")
        worst = max(worst, float(np.linalg.norm(plus.coeffs + minus.coeffs - c.coeffs)))
        worst = max(worst, float(np.linalg.norm(plus.coeffs - mean_only.coeffs - tilde.coeffs)))
        # projections expressed through the symbol operator
        p_plus = 0.5 * (c.coeffs + s.coeffs)
        worst = max(worst, float(np.linalg.norm(p_plus - plus.coeffs)))
        # mean invariance of the semigroup action with its normalising constant
        r = RationalScale(2, 3, 0.4)
        acted = semigroup_act(c, r, k_out=K)
        worst = max(
            worst,
            abs(mean_functional(acted) - math.sqrt(r.p / r.q) * mean_functional(c)),
        )
    return worst


def _check_semigroup_averaging(cfg: SuiteConfig) -> float:
    K_probe = min(25, cfg.circle.K)
    c = stack_signals(make_probes(
        "trig-poly",
        seed=_rng_seed(cfg, 23),
        count=cfg.probe_counts["circle"],
        K=K_probe,
        degree=K_probe,
    ))
    worst = 0.0
    for q, p, beta in cfg.rational_set:
        r = RationalScale(q, p, beta)
        closed = semigroup_act(c, r)
        sampled = semigroup_act_samples(c, r, max(2 * closed.K + 2, 64))
        recovered = circle_coeffs_from_samples(sampled, closed.K)
        worst = max(worst, float(np.max(np.abs(closed.coeffs - recovered.coeffs))))
    return worst


def _check_semigroup_commutation(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    worst = 0.0
    for q, p, beta in cfg.rational_set:
        r = RationalScale(q, p, beta)
        deg = max(1, K // (p * q))
        c = stack_signals(make_probes(
            "trig-poly", seed=_rng_seed(cfg, 24 + 7 * q + 13 * p), count=5, K=K, degree=deg
        ))
        lhs = semigroup_act(circular_hilbert(c), r, k_out=K)
        rhs = circular_hilbert(semigroup_act(c, r, k_out=K))
        worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
        # composition law: pi(q/p, beta) = pi(q, 0) after pi(1/p, beta)
        step = semigroup_act(semigroup_act(c, RationalScale(1, p, beta)), RationalScale(q, 1, 0.0))
        direct = semigroup_act(c, r)
        pad = max(step.K, direct.K)
        worst = max(
            worst,
            float(np.max(np.abs(step.padded(pad).coeffs - direct.padded(pad).coeffs))),
        )
    return worst


def _check_circle_parseval(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    n_s = cfg.circle.n_samples
    probes = make_probes(
        "trig-poly",
        seed=_rng_seed(cfg, 25),
        count=10,
        K=min(K, (n_s - 1) // 2),
    )
    worst = 0.0
    for c in probes:
        samples = circle_samples_from_coeffs(c, n_s)
        worst = max(worst, abs(norm(samples) - norm(c)) / norm(c))
        back = circle_coeffs_from_samples(samples, c.K)
        worst = max(worst, _rel(back.coeffs - c.coeffs, float(np.linalg.norm(c.coeffs))))
    return worst


def _check_circle_quadrature(cfg: SuiteConfig) -> float:
    n_s = cfg.circle.n_samples
    deg = n_s // 8
    probes = make_probes("trig-poly", seed=_rng_seed(cfg, 26), count=10, K=deg, degree=deg)
    worst = 0.0
    for c in probes:
        samples = circle_samples_from_coeffs(c, n_s)
        quad = circular_hilbert_quadrature(samples)
        mult = circle_samples_from_coeffs(circular_hilbert(c), n_s)
        worst = max(worst, _rel(quad.values - mult.values, float(np.linalg.norm(samples.values))))
    return worst


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
        phi = CircleSignal(phi_coeffs)
        k = annihilator_witness(fam, phi)
        if k is None:
            witness_failures += 1
            continue
        idx = k + K
        if phi_coeffs[idx] == 0.0:
            witness_failures += 1
            continue
        if all(abs(m.coeffs[idx]) == 0.0 for m in fam.members):
            witness_failures += 1
    return float(zero_failures), float(witness_failures)


def _circle_probe_samples(cfg: SuiteConfig, salt: int, count: int) -> CircleSamples:
    probes = make_probes(
        "trig-poly", seed=_rng_seed(cfg, salt), count=count, K=_MOEBIUS_PROBE_DEGREE
    )
    return circle_samples_from_coeffs(stack_signals(probes), cfg.circle.n_samples)


def _check_moebius_unitarity(cfg: SuiteConfig) -> float:
    s = _circle_probe_samples(cfg, 28, cfg.probe_counts["circle"])
    sn = np.linalg.norm(s.values, axis=-1)
    worst = 0.0
    for theta, a in cfg.moebius_set:
        acted = moebius_act(s, MoebiusElement(theta, a), "jacobian").values
        worst = max(worst, float(np.max(np.abs(np.linalg.norm(acted, axis=-1) / sn - 1.0))))
    return worst


def _moebius_cauchy_defect(cfg: SuiteConfig, weight: str) -> float:
    s = _circle_probe_samples(cfg, 29, max(5, cfg.probe_counts["circle"] // 2))
    K_full = (s.n - 1) // 2

    def cauchy(samples):
        return circle_samples_from_coeffs(
            cauchy_pv(circle_coeffs_from_samples(samples, K_full)), s.n
        )

    cf = cauchy(s)
    sn = np.linalg.norm(s.values, axis=-1)
    worst = 0.0
    for theta, a in cfg.moebius_set:
        m = MoebiusElement(theta, a)
        lhs = cauchy(moebius_act(s, m, weight))
        worst = max(worst, _rel(lhs.values - moebius_act(cf, m, weight).values, sn))
    return worst


# ---------------------------------------------------------------------------
# symmetry checks


def _check_decomposition_roundtrip(cfg: SuiteConfig) -> float:
    basis = LineBasis(cfg.operator_n, cfg.line.x_min, cfg.operator_grid().dx)
    rng = np.random.default_rng(_rng_seed(cfg, 31))
    worst = 0.0
    for _ in range(cfg.probe_counts["roundtrip"]):
        lam = complex(rng.normal(), rng.normal())
        eta = complex(rng.normal(), rng.normal())
        T = synthesize_commuting_operator(lam, eta, basis)
        dec = decompose_line_operator(T)
        worst = max(worst, abs(dec.lam - lam), abs(dec.eta - eta), dec.max_residual)
    return worst


def _check_classifier(cfg: SuiteConfig) -> float:
    basis = LineBasis(cfg.operator_n, cfg.line.x_min, cfg.operator_grid().dx)
    h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
    ident = synthesize_commuting_operator(1.0, 0.0, basis)
    p_plus = OperatorMatrix(basis, 0.5 * ident.entries + 0.5j * h_mat.entries)
    x_mat = OperatorMatrix(basis, np.diag(basis.grid().positions().astype(complex)))
    failures = 0
    if classify_pm_hilbert(h_mat).verdict != "plus-H":
        failures += 1
    if classify_pm_hilbert(OperatorMatrix(basis, -h_mat.entries)).verdict != "minus-H":
        failures += 1
    for t in (ident, p_plus, x_mat):
        if classify_pm_hilbert(t).verdict != "neither":
            failures += 1
    fbasis = FourierBasis(cfg.circle.K)
    h_circ = synthesize_commuting_operator(0.0, 1.0, fbasis)
    if classify_pm_hilbert(h_circ).verdict != "plus-H":
        failures += 1
    if classify_pm_hilbert(OperatorMatrix(fbasis, -h_circ.entries)).verdict != "minus-H":
        failures += 1
    return float(failures)


def _check_three_scalar_blocks(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    basis = FourierBasis(K)
    ks = np.arange(-K, K + 1)
    h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
    s_mat = OperatorMatrix(basis, np.diag(np.where(ks >= 0, 1.0, -1.0).astype(complex)))
    ident = synthesize_commuting_operator(1.0, 0.0, basis)
    worst = 0.0
    for T, expect in (
        (h_mat, (-1j, 0.0, 1j)),
        (s_mat, (1.0, 1.0, -1.0)),
        (ident, (1.0, 1.0, 1.0)),
    ):
        dec = decompose_circle_operator(T)
        worst = max(
            worst,
            abs(dec.lam - expect[0]),
            abs(dec.eta - expect[1]),
            abs(dec.omega - expect[2]),
            dec.max_residual,
        )
    return worst


def _scalarity_scales():
    return [
        RationalScale(1, 1, 0.9),
        RationalScale(1, 1, 2.3),
        RationalScale(2, 1, 0.0),
        RationalScale(1, 2, 0.0),
    ]


def _check_commutant_scalarity(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    basis = FourierBasis(K)
    h_diag = -1j * _sign_multiplier(K)
    rng = np.random.default_rng(_rng_seed(cfg, 32))
    worst = 0.0
    for _ in range(cfg.probe_counts["scalarity"]):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        diag = sum(coeffs[j] * h_diag**j for j in range(4))
        report = rotation_commutant_analysis(
            OperatorMatrix(basis, np.diag(diag)), _scalarity_scales()
        )
        worst = max(worst, report.diagonal_defect, report.orbit_spread, report.rotation_defect)
    return worst


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


def _check_engine_commutator_line(cfg: SuiteConfig) -> float:
    grid = cfg.operator_grid()
    basis = LineBasis(grid.n, grid.x_min, grid.dx)
    h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
    probes = _guarded_packets(cfg, grid, 34, max(5, cfg.probe_counts["line"] // 2))
    actions = [
        line_affine_action(AffineElement(a, b))
        for a in (0.5, 2.0, 4.0)
        for b in (0.0, 7 * grid.dx, 3.5 * grid.dx)
    ]
    return commutator_defect(h_mat, actions, probes).max_defect


def _check_engine_commutator_circle(cfg: SuiteConfig) -> float:
    K = cfg.circle.K
    basis = FourierBasis(K)
    h_mat = synthesize_commuting_operator(0.0, 1.0, basis)
    actions = []
    for q, p, beta in cfg.rational_set[:12]:
        actions.append(circle_semigroup_action(RationalScale(q, p, beta), K))
    probes = make_probes(
        "trig-poly", seed=_rng_seed(cfg, 35), count=5, K=K, degree=max(1, K // 25)
    )
    return commutator_defect(h_mat, actions, probes).max_defect


def _check_soundness(cfg: SuiteConfig) -> float:
    n = min(cfg.operator_n, 256)
    basis = LineBasis(n, cfg.line.x_min, (cfg.line.x_max - cfg.line.x_min) / n)
    rng = np.random.default_rng(_rng_seed(cfg, 36))
    worst = 0.0
    for _ in range(5):
        entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        T = OperatorMatrix(basis, entries)
        dec = decompose_line_operator(T)
        recon = synthesize_commuting_operator(dec.lam, dec.eta, basis)
        tnorm = np.linalg.norm(T.entries)
        lhs = np.linalg.norm(T.entries - recon.entries)
        rhs = tnorm * math.sqrt(
            dec.residual_plus**2 + dec.residual_minus**2 + dec.residual_zero**2
        )
        worst = max(worst, abs(lhs - rhs) / tnorm)
    return worst


# ---------------------------------------------------------------------------
# registry and runner


@dataclass(frozen=True)
class _CheckSpec:
    check_id: str
    target: str
    anchor: str
    tol_key: Optional[str]  # None = informational
    fn: Callable[[SuiteConfig], float]


_REGISTRY = [
    _CheckSpec(
        "a01-multiplier-vs-quadrature",
        "line",
        "singular kernel quadrature agrees with the multiplier form on the line",
        "multiplier_vs_quadrature",
        _check_multiplier_vs_quadrature,
    ),
    _CheckSpec(
        "a02-involution-line",
        "line",
        "applying the line transform twice negates mean-free signals",
        "involution_line",
        _check_involution_line,
    ),
    _CheckSpec(
        "a03-affine-commutation",
        "line",
        "scale and shift actions commute with the line transform",
        "affine_commutation",
        _check_affine_commutation,
    ),
    _CheckSpec(
        "m01-line-parseval",
        "line",
        "transform pair is unitary (round trip and norm preservation)",
        "parseval",
        _check_line_parseval,
    ),
    _CheckSpec(
        "m02-hardy-identities",
        "line",
        "Hardy projections partition the identity and diagonalise the transform",
        "hardy_identities",
        _check_hardy_identities,
    ),
    _CheckSpec(
        "m03-rep-isometry",
        "line",
        "the natural scale/shift action preserves the norm",
        "rep_isometry",
        _check_rep_isometry,
    ),
    _CheckSpec(
        "a02-involution-circle",
        "circle",
        "squared circular transform is minus identity plus the mean part",
        "involution_circle",
        _check_involution_circle,
    ),
    _CheckSpec(
        "a04-plemelj-chain",
        "circle",
        "symbol, principal-value, and mean operators satisfy the boundary-value chain",
        "plemelj_chain",
        _check_plemelj_chain,
    ),
    _CheckSpec(
        "a05-semigroup-averaging",
        "circle",
        "coefficient closed form of the rational-dilation action equals root-of-unity averaging",
        "semigroup_averaging",
        _check_semigroup_averaging,
    ),
    _CheckSpec(
        "a06-semigroup-commutation",
        "circle",
        "rational-dilation action commutes with the circular transform in exact coefficient arithmetic",
        "semigroup_commutation",
        _check_semigroup_commutation,
    ),
    _CheckSpec(
        "a10-annihilator-zero",
        "circle",
        "empty zero set plus vanishing convolutions forces the zero signal",
        "annihilator_outcomes",
        lambda cfg: _annihilator_outcomes(cfg)[0],
    ),
    _CheckSpec(
        "a10-annihilator-witness",
        "circle",
        "a surviving convolution coefficient is returned as a counterexample witness",
        "annihilator_outcomes",
        lambda cfg: _annihilator_outcomes(cfg)[1],
    ),
    _CheckSpec(
        "a11-moebius-unitarity",
        "circle",
        "disc-automorphism action with the jacobian weight preserves the norm",
        "moebius_unitarity",
        _check_moebius_unitarity,
    ),
    _CheckSpec(
        "a11-moebius-defect-jacobian",
        "circle",
        "commutator of the jacobian-weight disc action with the principal-value Cauchy operator (reported)",
        None,
        lambda cfg: _moebius_cauchy_defect(cfg, "jacobian"),
    ),
    _CheckSpec(
        "a11-moebius-defect-plain",
        "circle",
        "commutator of the plain-weight disc action with the principal-value Cauchy operator (reported)",
        None,
        lambda cfg: _moebius_cauchy_defect(cfg, "plain"),
    ),
    _CheckSpec(
        "m04-circle-parseval",
        "circle",
        "coefficient/sample conversions are lossless isometries",
        "parseval",
        _check_circle_parseval,
    ),
    _CheckSpec(
        "m05-circle-quadrature",
        "circle",
        "cotangent-kernel quadrature matches the coefficient multiplier",
        "quadrature_circle",
        _check_circle_quadrature,
    ),
    _CheckSpec(
        "a07-decomposition-roundtrip",
        "symmetry",
        "operators built as lam*I + eta*H decompose back to (lam, eta)",
        "decomposition_roundtrip",
        _check_decomposition_roundtrip,
    ),
    _CheckSpec(
        "a07-hilbert-classifier",
        "symmetry",
        "the anti-symmetric real isometry test singles out +-H (count of wrong verdicts)",
        "classifier_verdicts",
        _check_classifier,
    ),
    _CheckSpec(
        "a08-three-scalar-blocks",
        "symmetry",
        "three-block scalar extraction recovers the circle operators' symbols",
        "three_scalar_blocks",
        _check_three_scalar_blocks,
    ),
    _CheckSpec(
        "a09-commutant-scalarity",
        "symmetry",
        "rotation/orbit analysis certifies scalar commutants at truncation",
        "commutant_scalarity",
        _check_commutant_scalarity,
    ),
    _CheckSpec(
        "a09-perturbation-flagging",
        "symmetry",
        "orbit-breaking diagonal perturbations are flagged (count not flagged)",
        "perturbation_flag",
        _check_perturbation_flags,
    ),
    _CheckSpec(
        "m06-engine-commutator-line",
        "symmetry",
        "matrix engine reproduces the line commutation bound",
        "engine_commutator_line",
        _check_engine_commutator_line,
    ),
    _CheckSpec(
        "m07-engine-commutator-circle",
        "symmetry",
        "matrix engine reproduces the exact circle commutation",
        "engine_commutator_circle",
        _check_engine_commutator_circle,
    ),
    _CheckSpec(
        "m08-decomposition-soundness",
        "symmetry",
        "reported residuals compose exactly into the reconstruction error",
        "soundness",
        _check_soundness,
    ),
]


def run_verify(target: str, config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run the verification suite for one target (or "all").

    Deterministic for a fixed config: probe seeds derive from the config
    seed, records are ordered by check id, and the report carries no
    timestamp.  Check failures (including tripped guards inside a check)
    become failed records rather than exceptions.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown verify target {target!r}; expected one of {TARGETS}")
    cfg = config if config is not None else SuiteConfig()
    records = []
    for spec in _REGISTRY:
        if target != "all" and spec.target != target:
            continue
        tol = cfg.tolerances[spec.tol_key] if spec.tol_key is not None else None
        try:
            measured = float(spec.fn(cfg))
        except Exception as exc:  # noqa: BLE001 - failed checks become records
            records.append(
                CheckRecord(spec.check_id, spec.anchor, None, tol, False, f"error: {exc}")
            )
            continue
        if tol is None:
            records.append(
                CheckRecord(
                    spec.check_id, spec.anchor, measured, None, True, "reported, not asserted"
                )
            )
        else:
            records.append(CheckRecord(spec.check_id, spec.anchor, measured, tol, measured <= tol))
    records.sort(key=lambda r: r.check_id)
    return SuiteReport(
        target=target, version=__version__, config=asdict(cfg), records=tuple(records)
    )
