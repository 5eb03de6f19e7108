import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hilbertsym import verify
from hilbertsym import (
    AffineElement, CircleSignal, FourierBasis, Grid1D, LineBasis, LineSignal, OperatorMatrix,
)
from hilbertsym.cli import main
from hilbertsym.line_ops import hilbert_multiplier, rep_natural
from hilbertsym.sigio import load_signal, save_operator, save_signal
from hilbertsym.symmetry import synthesize_commuting_operator
from hilbertsym.verify import (
    _GUARDED,
    _REGISTRY,
    CircleConfig,
    LineGridConfig,
    SuiteConfig,
    _by_rows,
    _check_affine_commutation,
    _check_rep_isometry,
    _moebius_samples_needed,
    _probes,
    _rel,
    _worst,
    run_verify,
)


SRC = str(Path(verify.__file__).resolve().parents[1])


def small_circle_config(**over):
    # full circle sizes are already fast; shrink probe counts for CI speed
    return SuiteConfig(
        rng_seed=over.pop("rng_seed", 7),
        probe_counts={"line": 6, "circle": 6, "roundtrip": 10, "scalarity": 4, "annihilator": 4},
        **over,
    )


class TestRunVerify:
    def test_circle_target_passes(self):
        report = run_verify("circle", small_circle_config())
        failing = [r.check_id for r in report.records if not r.passed]
        assert failing == []
        assert report.passed
        ids = [r.check_id for r in report.records]
        assert ids == sorted(ids)

    def test_symmetry_target_passes(self):
        report = run_verify("symmetry", small_circle_config())
        assert [r.check_id for r in report.records if not r.passed] == []

    def test_informational_records_always_pass(self):
        report = run_verify("circle", small_circle_config())
        info = [r for r in report.records if r.tolerance is None]
        assert len(info) == 2  # both disc-action commutator defects
        assert all(r.passed for r in info)
        # the jacobian weight commutes, the plain weight does not
        by_id = {r.check_id: r for r in info}
        assert by_id["a11-moebius-defect-jacobian"].measured <= 1e-8
        assert by_id["a11-moebius-defect-plain"].measured > 1e-3

    def test_determinism(self):
        a = run_verify("circle", small_circle_config())
        b = run_verify("circle", small_circle_config())
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_degenerate_grid_fails_without_crashing(self):
        cfg = SuiteConfig(probe_counts={"line": 2})
        cfg.line = LineGridConfig(n=8)  # forced past validate(), which rejects it
        report = run_verify("line", cfg)
        assert not report.passed
        errored = [r for r in report.records if r.note.startswith("error:")]
        assert errored  # guard trips surface as failed records
        assert all(r.measured is None for r in errored)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            run_verify("sphere")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SuiteConfig(circle=CircleConfig(n_samples=511))
        with pytest.raises(ValueError):
            SuiteConfig(tolerances={"parseval": 0.0})

    def test_default_config_is_accepted(self):
        cfg = SuiteConfig()
        cfg.validate()
        assert cfg.circle.n_samples >= _moebius_samples_needed(0.7)

    @pytest.mark.parametrize(
        "field, value, check_id",
        [
            ("circle", CircleConfig(K=2), "a06-semigroup-commutation"),
            ("circle", CircleConfig(K=1), "a09-perturbation-flagging"),
            ("operator_n", 255, "m06-engine-commutator-line"),
            ("circle", CircleConfig(K=16, n_samples=64), "a11-moebius-unitarity"),
            ("line", LineGridConfig(n=1000), "a01-multiplier-vs-quadrature"),
            ("affine_set", [(0.05, 0.0)], "a03-affine-commutation"),
        ],
    )
    def test_out_of_regime_config_is_rejected(self, field, value, check_id):
        with pytest.raises(ValueError, match=check_id):
            SuiteConfig(**{field: value})
        # the rejected setting does break the named check when forced past validate()
        cfg = SuiteConfig(probe_counts={"line": 4, "circle": 4, "scalarity": 2})
        setattr(cfg, field, value)
        check = next(c for c in _REGISTRY if check_id in [r[0] for r in c.records])
        i = [r[0] for r in check.records].index(check_id)
        try:
            values = check.fn(cfg)
        except Exception:  # noqa: BLE001 - an erroring check is what the rule prevents
            return
        measured = _worst(values[i] if len(check.records) > 1 else values)
        assert measured > cfg.tolerances[check.records[i][1]]


@pytest.mark.parametrize(
    "line, operator_n",
    [
        ((-10.0, 10.0, 512), 512),
        ((-5.0, 5.0, 4096), 64),
        ((-20.0, 20.0, 2048), 512),  # wide enough for a01, not for the dilations
        ((-30.0, 30.0, 3072), 512),
    ],
)
def test_line_window_is_rejected_or_its_report_passes(line, operator_n):
    counts = {"line": 4, "circle": 4, "roundtrip": 4, "scalarity": 2, "annihilator": 2}
    try:
        cfg = SuiteConfig(line=LineGridConfig(*line), operator_n=operator_n,
                          probe_counts=counts)
    except ValueError as exc:
        named = set(re.findall(r"\b[am]\d\d-[a-z-]+", str(exc)))
        assert named and "too narrow" in str(exc)
        # every named check does fail when the config is forced past validate()
        cfg = SuiteConfig()
        cfg.line, cfg.operator_n = LineGridConfig(*line), operator_n
        for check_id in named:
            check = next(c for c in _REGISTRY if check_id in [r[0] for r in c.records])
            with pytest.raises(ValueError):
                check.fn(cfg)  # a guard trips: the packets do not fit the window
        return
    report = run_verify("all", cfg)
    assert [r.check_id for r in report.records if not r.passed] == []


@pytest.mark.parametrize(
    "config, named",
    [
        ({"line": {"n": 450}, "tolerances": {"multiplier_vs_quadrature": 0.1},
          "affine_set": [[2.0, 0.0]]}, {"a01-multiplier-vs-quadrature", "m01-line-parseval"}),
        ({"line": {"n": 450}, "tolerances": {"multiplier_vs_quadrature": 0.1},
          "affine_set": [[0.9, 0.0]]}, {"a01-multiplier-vs-quadrature", "m01-line-parseval"}),
        ({"line": {"n": 400}, "tolerances": {"multiplier_vs_quadrature": 0.2},
          "affine_set": [[1.0, 0.0]]}, {"a01-multiplier-vs-quadrature", "m01-line-parseval",
                                       "a03-affine-commutation", "m03-rep-isometry"}),
    ],
)
def test_packets_beyond_the_central_half_of_the_band_are_rejected(tmp_path, config, named):
    # a loosened a01 tolerance passes the cubic rule; the packets' band does not
    with pytest.raises(ValueError) as exc:
        SuiteConfig.from_json_dict(config)
    assert set(re.findall(r"\b[am]\d\d-[a-z-]+", str(exc.value))) == named
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["verify", "line", "--config", str(cfg_path)]) == 1
    # forced past validate(), every named check fails
    cfg = SuiteConfig()
    cfg.line, cfg.affine_set = LineGridConfig(**config["line"]), config["affine_set"]
    cfg.tolerances.update(config["tolerances"])
    failed = {r.check_id for r in run_verify("line", cfg).records if not r.passed}
    assert failed == named


@pytest.mark.parametrize("operator_n", [255, 479])
def test_operator_grids_below_the_m06_band_bound_are_rejected(operator_n):
    with pytest.raises(ValueError, match=rf"^affine scale a=0.5 is too small for "
                                         rf"operator_n={operator_n} on \[-40, 40\]: "
                                         rf"m06-engine-commutator-line dilates [^;]*$"):
        SuiteConfig(operator_n=operator_n)


@pytest.mark.parametrize("operator_n", [480, 499])
@pytest.mark.parametrize("rng_seed", [0, 7, 24, 12345])
def test_operator_grids_at_the_m06_band_bound_pass_m06(operator_n, rng_seed):
    cfg = SuiteConfig(rng_seed=rng_seed, operator_n=operator_n)
    m06 = next(c for c in _REGISTRY if c.records[0][0] == "m06-engine-commutator-line")
    assert _worst(m06.fn(cfg)) <= cfg.tolerances["engine_commutator_line"]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _rows(count):
    """A batch of ``count`` probe rows whose first sample is the row index."""
    values = np.zeros((count, 4), dtype=complex)
    values[:, 0] = np.arange(count)
    return LineSignal(Grid1D(0.0, 4, 1.0), values)


class TestThreadedMap:
    @pytest.mark.parametrize("rows", [1, 3, 40, 2000])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
    def test_results_in_row_order(self, monkeypatch, cpus, rows):
        _cpus(monkeypatch, cpus)
        caller = threading.current_thread()

        def fn(g):
            return g.values[:, 0].real.astype(int).tolist(), threading.current_thread()

        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = _by_rows(fn, _rows(rows))
        finally:
            sys.setswitchinterval(interval)
        # two blocks per CPU, none empty, in row order
        blocks = [block for block, _ in out]
        assert len(blocks) == min(2 * cpus, rows) and all(blocks)
        assert sum(blocks, []) == list(range(rows))
        # share 0 (blocks 0, N, 2N, ...) runs on the calling thread, the
        # other shares on the call's own executor
        shares = min(cpus, len(blocks))
        for i, (_, thread) in enumerate(out):
            assert (thread is caller) == (i % shares == 0)
            assert thread is caller or thread.name.startswith("hilbertsym-verify")

    @pytest.mark.parametrize("bad_row", [0, 5, 11])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_raising_block_reruns_the_whole_batch(self, monkeypatch, cpus, bad_row):
        _cpus(monkeypatch, cpus)
        calls = []

        def fn(g):
            rows = g.values[:, 0].real.astype(int).tolist()
            calls.append(rows)
            if bad_row in rows:
                raise ValueError(f"row {bad_row} of a batch of {len(rows)}")
            return rows

        with pytest.raises(ValueError, match=f"row {bad_row} of a batch of 12$"):
            _by_rows(fn, _rows(12))
        # the last call is the serial rerun on the unsplit batch
        assert calls[-1] == list(range(12)) and len(calls) > 1

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_one_cpu_report_is_byte_identical(self, monkeypatch, rng_seed):
        # every check; 7 line probes do not divide into 2, 4 or 6 row blocks
        counts = {"line": 7, "circle": 6, "roundtrip": 21, "scalarity": 4, "annihilator": 4}
        with monkeypatch.context() as unsplit:  # the line checks on their whole batch
            unsplit.setattr(verify, "_by_rows", lambda fn, f: fn(f))
            _cpus(unsplit, 1)
            serial = run_verify("all", SuiteConfig(rng_seed=rng_seed, probe_counts=counts))
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            threaded = run_verify("all", SuiteConfig(rng_seed=rng_seed, probe_counts=counts))
            assert json.dumps(threaded.to_json_dict()) == json.dumps(serial.to_json_dict())
            assert threaded.to_csv_text() == serial.to_csv_text()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
    def test_one_cpu_cli_report_is_byte_identical(self):
        # pinned before numpy loads, so its BLAS starts one thread too
        cpu = {min(os.sched_getaffinity(0))}

        def verify_all(**pin):
            return subprocess.run([sys.executable, "-m", "hilbertsym.cli", "verify", "all"],
                                  cwd=SRC, capture_output=True, text=True, check=True,
                                  timeout=300, **pin).stdout

        one_cpu = verify_all(preexec_fn=lambda: os.sched_setaffinity(0, cpu))
        assert json.loads(one_cpu)["pass"] is True
        assert verify_all() == one_cpu

    def test_no_thread_outlives_a_run(self):
        before = threading.active_count()
        run_verify("all", SuiteConfig(probe_counts={"line": 4, "roundtrip": 5}))
        assert threading.active_count() == before
        assert [t for t in threading.enumerate() if t.name.startswith("hilbertsym-verify")] == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_check_error_names_the_lowest_failing_element(self, monkeypatch, cpus):
        # a=0.05 (element 1) and a=0.02 (element 2) both alias; a raising row
        # block reruns the whole batch, which dilates by the scales in order
        _cpus(monkeypatch, cpus)
        cfg = SuiteConfig(rng_seed=3, probe_counts={"line": 4})
        # past validate(), which rejects scales this small
        cfg.affine_set = [(2.0, 0.0), (0.05, 0.0), (0.02, 0.0), (4.0, 0.0)]
        records = {r.check_id: r for r in run_verify("line", cfg).records}
        a03 = records["a03-affine-commutation"]
        assert a03.measured is None and not a03.passed
        assert a03.note.startswith("error: dilation by a=0.05 would alias")
        assert run_verify("line", SuiteConfig(probe_counts={"line": 4})).passed


def _a03_per_element(cfg):
    """a03 as one rep_natural per affine element: the oracle of the grouped check."""
    f = _probes(cfg, "gaussian-packet", 13, cfg.probe_counts["line"], grid=cfg.line_grid(),
                **_GUARDED)
    hf = hilbert_multiplier(f)
    fn = np.linalg.norm(f.values, axis=-1)

    def defect(element):
        g = AffineElement(*element)
        return _rel(hilbert_multiplier(rep_natural(f, g)).values - rep_natural(hf, g).values, fn)

    return _worst(list(map(defect, cfg.affine_set)))


def _m03_per_element(cfg):
    """m03 as one rep_natural per affine element: the oracle of the grouped check."""
    f = _probes(cfg, "gaussian-packet", 18, max(5, cfg.probe_counts["line"] // 2),
                grid=cfg.line_grid(), **_GUARDED)
    fn = np.linalg.norm(f.values, axis=-1)

    def drift(element):
        acted = np.linalg.norm(rep_natural(f, AffineElement(*element)).values, axis=-1)
        return np.abs(acted - fn) / fn

    return _worst(list(map(drift, cfg.affine_set)))


class TestAffineCommutationByScale:
    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_grouped_check_equals_the_per_element_oracle(self, monkeypatch, rng_seed):
        cfg = SuiteConfig(rng_seed=rng_seed)
        rows = dict.fromkeys((0.5, 2.0, 4.0), 0)
        real = verify.dilate

        def counting(f, a):
            rows[a] += len(f.values)
            return real(f, a)

        monkeypatch.setattr(verify, "dilate", counting)
        measured = _worst(_check_affine_commutation(cfg))
        # each probe row of f and of H f is dilated once per distinct scale,
        # not once per element, whatever the row blocks
        assert rows == dict.fromkeys((0.5, 2.0, 4.0), 2 * cfg.probe_counts["line"])
        assert measured.hex() == _a03_per_element(cfg).hex()
        assert _worst(_check_rep_isometry(cfg)).hex() == _m03_per_element(cfg).hex()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_interleaved_repeated_scales(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        cfg = SuiteConfig(rng_seed=7, probe_counts={"line": 6},
                          affine_set=[(2.0, 0.0), (0.5, 0.1), (2.0, -0.2), (0.5, 0.0)])
        assert _worst(_check_affine_commutation(cfg)).hex() == _a03_per_element(cfg).hex()
        assert _worst(_check_rep_isometry(cfg)).hex() == _m03_per_element(cfg).hex()

    def test_smallest_scale_is_bounded(self, tmp_path):
        with pytest.raises(ValueError, match="a03-affine-commutation and m03-rep-isometry"):
            SuiteConfig(affine_set=[(0.05, 0.0)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"affine_set": [[0.05, 0.0]]}))
        assert main(["verify", "line", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("rng_seed", [0, 3, 7])
    def test_an_accepted_small_scale_runs_clean(self, rng_seed):
        # the rule's least scale at the defaults is 0.0585
        cfg = SuiteConfig(rng_seed=rng_seed, probe_counts={"line": 8},
                          affine_set=[(0.06, 0.0), (0.06, 0.3), (0.08, -0.1), (2.0, 0.0)])
        report = run_verify("line", cfg)
        assert [r.check_id for r in report.records if not r.passed] == []

    def test_shifts_far_beyond_the_window_run_clean(self):
        # translate's phase ramp is periodic in b, so a huge shift keeps it finite
        report = run_verify("line", SuiteConfig(affine_set=[(2.0, 1e307), (0.5, -1e307)]))
        assert [r.check_id for r in report.records if not r.passed] == []


class TestCliVerify:
    def test_verify_circle_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg = {"probe_counts": {"line": 4, "circle": 4, "roundtrip": 5,
                                "scalarity": 3, "annihilator": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "out.csv"
        dat_path = tmp_path / "out.dat"
        code = main([
            "verify", "circle", "--config", str(cfg_path), "--seed", "3",
            "--csv", str(csv_path), "--gnuplot-dat", str(dat_path),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["config"]["rng_seed"] == 3
        header = csv_path.read_text().splitlines()[0]
        assert header == "check_id,measured,tolerance"
        assert dat_path.read_text().strip()

    def test_verify_bad_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"circle": {"n_samples": 511}}))
        assert main(["verify", "circle", "--config", str(cfg_path)]) == 1

    def test_a_boolean_rational_element_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rational_set": [[True, 1, 0.0]]}))
        assert main(["verify", "circle", "--config", str(cfg_path)]) == 1
        assert "q and p must be integers, got q=True, p=1" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self):
        assert main(["verify", "circle", "--config", "/nonexistent/cfg.json"]) == 2

    def test_usage_error_on_bad_target(self):
        assert main(["verify", "sphere"]) == 1

    def test_failing_suite_exits_four(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tolerances": {"parseval": 1e-300},
                                        "probe_counts": {"line": 2}}))
        code = main(["verify", "line", "--config", str(cfg_path)])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"rng_seed": -1}, "rng_seed"),
        ({"rng_seed": "x"}, "rng_seed"),
        ({"rng_seed": 1e30}, "rng_seed"),
        ({"circle": {"K": 128.0}}, "circle.K"),
        ({"circle": {"n_samples": 512.0}}, "circle.n_samples"),
        ({"line": {"n": 4096.0}}, "line.n"),
        ({"operator_n": 512.0}, "operator_n"),
        ({"operator_n": 0}, "operator_n"),
        ({"operator_n": -5}, "operator_n"),
        ({"line": {"n": 0}}, "line.n"),
        ({"probe_counts": {"circle": 2.5}}, "probe count 'circle'"),
        ({"rational_set": [[2, 4, 0.0]]}, "rational_set element [2, 4, 0.0]: q/p"),
        ({"affine_set": [[-1.0, 0.0]]}, "affine_set element [-1.0, 0.0]: scale a"),
        ({"tolerances": {"parsevl": 1e-12}}, "unknown tolerance 'parsevl'"),
        ({"probe_counts": {"lines": 4}}, "unknown probe count 'lines'"),
        # 16*dx^3 overflows a float power here: rejected by a01's cubic rule, not an exit 4
        ({"line": {"x_max": 1e120}}, "line grid spacing"),
        ({"line": {"x_max": 1e300}}, "line grid spacing"),
        ({"line": {"x_min": 1e300, "x_max": 1.0000001e300}}, "line grid spacing"),
        # config values that :g would round are printed in full
        ({"line": {"x_min": 1e300, "x_max": 1.0000001e300}},
         "line window [1e+300, 1.0000001e+300] is too narrow"),
        ({"tolerances": {"multiplier_vs_quadrature": 1.0000001e-12}},
         "above its tolerance 1.0000001e-12"),
        # finite ends whose width is not
        ({"line": {"x_min": -1e308, "x_max": 1e308}}, "line.x_max must be a finite width"),
    ],
)
def test_malformed_config_exits_one_naming_its_field(tmp_path, capsys, doc, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "all", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: invalid config: ") and field in out.err


# every row of SuiteConfig's field table: its name in messages, the config
# document that sets it, and whether it holds a real number (else an integer)
FIELD_ROWS = [
    ("rng_seed", lambda v: {"rng_seed": v}, False),
    ("line.n", lambda v: {"line": {"n": v}}, False),
    ("line.x_min", lambda v: {"line": {"x_min": v}}, True),
    ("line.x_max", lambda v: {"line": {"x_max": v}}, True),
    ("circle.K", lambda v: {"circle": {"K": v}}, False),
    ("circle.n_samples", lambda v: {"circle": {"n_samples": v}}, False),
    ("operator_n", lambda v: {"operator_n": v}, False),
    *((f"probe count {k!r}", lambda v, k=k: {"probe_counts": {k: v}}, False)
      for k in verify._default_probe_counts()),
    *((f"tolerance {k!r}", lambda v, k=k: {"tolerances": {k: v}}, True)
      for k in verify._default_tolerances()),
]


@pytest.mark.parametrize(
    "field, doc",
    [pytest.param(field, doc(value), id=f"{field}={value!r}")
     for field, doc, real in FIELD_ROWS
     for value in ("5", True, None, *([float("nan")] if real else []))],
)
def test_a_field_of_the_wrong_kind_is_rejected_naming_it(tmp_path, capsys, field, doc):
    with pytest.raises(ValueError, match=re.escape(field)):
        SuiteConfig.from_json_dict(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "all", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid config: ") and field in err


@pytest.mark.parametrize("doc, field", [
    ({"line": {"x_min": float("nan")}}, "line.x_min"),
    ({"line": {"x_max": float("inf")}}, "line.x_max"),
    ({"line": {"x_max": 10**400}}, "line.x_max"),  # no float holds it
    ({"line": {"x_max": -50.0}}, "line.x_max"),
    ({"circle": {"K": -3}}, "circle.K"),
    ({"circle": {"n_samples": 0}}, "circle.n_samples"),
    ({"circle": {"n_samples": 511}}, "circle.n_samples"),
])
def test_a_field_out_of_bounds_is_rejected_naming_it(doc, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be"):
        SuiteConfig.from_json_dict(doc)


def test_seed_override_is_validated(capsys):
    assert main(["verify", "line", "--seed", "-1"]) == 1
    assert "rng_seed must be at least 0, got -1" in capsys.readouterr().err


class TestCliApply:
    def test_semigroup_on_monomial(self, tmp_path, capsys):
        t2 = CircleSignal.from_dict({2: 1.0}, K=8)
        inp = tmp_path / "t2.json"
        out = tmp_path / "out.json"
        save_signal(t2, inp)
        code = main([
            "apply", "semigroup", "--in", str(inp), "--out", str(out),
            "--q", "1", "--p", "2", "--beta", "0",
        ])
        assert code == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["op"] == "semigroup"
        result = load_signal(out)
        assert result.coeff(1) == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(result.coeffs) == 1

    def test_hardy_plus_keeps_positive_frequency_input(self, tmp_path):
        g = Grid1D.from_interval(-40.0, 40.0, 256)
        f = LineSignal(g, np.exp(1j * 3 * g.dxi * g.positions()))
        inp = tmp_path / "f.json"
        out = tmp_path / "out.json"
        save_signal(f, inp)
        assert main(["apply", "hardy+", "--in", str(inp), "--out", str(out)]) == 0
        result = load_signal(out)
        assert np.linalg.norm(result.values - f.values) <= 1e-12 * np.linalg.norm(f.values)

    def test_circular_hilbert_annihilates_constant(self, tmp_path):
        c = CircleSignal.from_dict({0: 1.0}, K=4)
        inp = tmp_path / "c.json"
        out = tmp_path / "out.json"
        save_signal(c, inp)
        assert main(["apply", "circular-hilbert", "--in", str(inp), "--out", str(out)]) == 0
        result = load_signal(out)
        assert np.all(result.coeffs == 0)

    def test_convolve_requires_second_file(self, tmp_path):
        c = CircleSignal.from_dict({0: 1.0}, K=4)
        inp = tmp_path / "c.json"
        save_signal(c, inp)
        assert main(["apply", "convolve", "--in", str(inp), "--out", str(inp)]) == 1

    def test_wrong_signal_type_is_usage_error(self, tmp_path):
        c = CircleSignal.from_dict({0: 1.0}, K=4)
        inp = tmp_path / "c.json"
        out = tmp_path / "out.json"
        save_signal(c, inp)
        assert main(["apply", "dilate", "--in", str(inp), "--out", str(out), "--a", "2"]) == 1

    def test_missing_input_is_io_error(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["apply", "hilbert", "--in", "/nope.json", "--out", str(out)]) == 2

    def test_moebius_on_samples(self, tmp_path):
        from hilbertsym.signals import circle_samples_from_coeffs

        c = CircleSignal.from_dict({2: 1.0}, K=4)
        s = circle_samples_from_coeffs(c, 64)
        inp = tmp_path / "s.json"
        out = tmp_path / "out.json"
        save_signal(s, inp)
        code = main([
            "apply", "moebius", "--in", str(inp), "--out", str(out),
            "--theta", "0.9", "--blaschke-a", "0", "--weight", "jacobian",
        ])
        assert code == 0
        result = load_signal(out)
        expected = np.exp(2j * (s.angles() - 0.9))
        np.testing.assert_allclose(result.values, expected, atol=1e-10)

    def test_convolve_two_files(self, tmp_path):
        a = CircleSignal.from_dict({2: 1.0}, K=4)
        b = CircleSignal.from_dict({2: 3.0, 1: 1.0}, K=4)
        fa, fb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
        save_signal(a, fa)
        save_signal(b, fb)
        code = main(["apply", "convolve", "--in", str(fa), "--out", str(out), "--with", str(fb)])
        assert code == 0
        result = load_signal(out)
        assert result.coeff(2) == 3.0
        assert np.count_nonzero(result.coeffs) == 1

    @pytest.mark.parametrize("b", ["5.0", "1e308"])
    def test_translate_echoes_warnings(self, tmp_path, capsys, b):
        g = Grid1D.from_interval(-40.0, 40.0, 256)
        x = g.positions()
        f = LineSignal(g, np.exp(-((x - 38.0) ** 2) / 2.0))
        inp = tmp_path / "f.json"
        out = tmp_path / "out.json"
        save_signal(f, inp)
        assert main(["apply", "translate", "--in", str(inp), "--out", str(out), "--b", b]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert "edge-mass" in echo["warnings"]


class TestCliDecompose:
    def test_hilbert_matrix_passes(self, tmp_path, capsys):
        basis = LineBasis(64, -8.0, 0.25)
        op = synthesize_commuting_operator(0.0, 1.0, basis)
        path = tmp_path / "h.json"
        save_operator(op, path)
        code = main(["decompose", "--in", str(path), "--space", "line"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["eta"][0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_matrix_passes(self, tmp_path, capsys):
        basis = LineBasis(64, -8.0, 0.25)
        op = synthesize_commuting_operator(1.0, 0.0, basis)
        path = tmp_path / "i.json"
        save_operator(op, path)
        assert main(["decompose", "--in", str(path), "--space", "line"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"][0] == pytest.approx(1.0, abs=1e-12)
        assert doc["eta"][0] == pytest.approx(0.0, abs=1e-12)

    def test_position_matrix_exits_three(self, tmp_path, capsys):
        basis = LineBasis(64, -8.0, 0.25)
        x = basis.grid().positions().astype(complex)
        op = OperatorMatrix(basis, np.diag(x))
        path = tmp_path / "x.json"
        save_operator(op, path)
        code = main(["decompose", "--in", str(path), "--space", "line"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert max(doc["residuals"]["plus"], doc["residuals"]["minus"]) > 1e-3

    def test_residuals_whose_squares_overflow_are_finite(self, tmp_path, capsys):
        # the defect rows of 1e200*(0.3I + 0.7H) square past the float range;
        # taken at a power-of-two scale, no residual reads Infinity or NaN
        basis = LineBasis(16, -2.0, 0.25)
        op = synthesize_commuting_operator(0.3, 0.7, basis)
        path = tmp_path / "big.json"
        save_operator(OperatorMatrix(basis, 1e200 * op.entries), path)
        assert main(["decompose", "--in", str(path), "--space", "line"]) == 0

        def refuse(name):
            raise ValueError(f"{name} in the decomposition")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["lambda"][0] == pytest.approx(0.3e200, rel=1e-12)
        assert max(doc["residuals"]["plus"], doc["residuals"]["minus"]) <= 1e-15

    def test_residuals_relative_to_an_unrepresentable_norm_are_null(self, tmp_path, capsys):
        # ||T||_F = 65 * 3e306 exceeds the float range, so no relative
        # residual is known: each is written as null, not as a bare NaN, and
        # the operator still fails the tolerance
        path = tmp_path / "huge.json"
        save_operator(OperatorMatrix(FourierBasis(32), np.full((65, 65), 3e306)), path)
        assert main(["decompose", "--in", str(path), "--space", "circle"]) == 3

        def refuse(name):
            raise ValueError(f"{name} in the decomposition")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["residuals"] == {"plus": None, "minus": None, "zero": None}
        assert doc["lambda"] == [3e306, 0.0]

    @pytest.mark.parametrize("tol", ["nan", "-1e-10", "-inf"])
    def test_tolerance_must_be_a_non_negative_number(self, tmp_path, capsys, tol):
        path = tmp_path / "i.json"
        save_operator(synthesize_commuting_operator(1.0, 0.0, LineBasis(16, -2.0, 0.25)), path)
        assert main(["decompose", "--in", str(path), "--space", "line"]) == 0
        capsys.readouterr()
        assert main(["decompose", "--in", str(path), "--space", "line", f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be a non-negative number" in captured.err

    def test_space_mismatch_is_usage_error(self, tmp_path):
        basis = LineBasis(16, -2.0, 0.25)
        op = synthesize_commuting_operator(1.0, 0.0, basis)
        path = tmp_path / "op.json"
        save_operator(op, path)
        assert main(["decompose", "--in", str(path), "--space", "circle"]) == 1
