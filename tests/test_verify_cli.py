import json
import os
import re
import sys

import numpy as np
import pytest

from hilbertsym import CircleSignal, Grid1D, LineBasis, LineSignal, OperatorMatrix
from hilbertsym.cli import main
from hilbertsym.sigio import load_signal, save_operator, save_signal
from hilbertsym.symmetry import synthesize_commuting_operator
from hilbertsym.verify import (
    _REGISTRY,
    CircleConfig,
    LineGridConfig,
    SuiteConfig,
    _map,
    _moebius_samples_needed,
    run_verify,
)


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
        measured = values[i] if len(check.records) > 1 else values
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


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestThreadedMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
    def test_results_in_item_order(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        assert _map(lambda x: x * x, range(11)) == [x * x for x in range(11)]
        assert _map(str, []) == []
        # more threads than cores, switching as often as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _map(lambda x: [x] * 3, range(2000)) == [[x] * 3 for x in range(2000)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_lowest_index_failure_is_raised(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)

        def fn(x):
            if x in (4, 5, 9):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 4"):
            _map(fn, range(12))

    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_one_cpu_report_is_byte_identical(self, monkeypatch, rng_seed):
        # every check; an odd roundtrip count leaves the two shares unequal
        counts = {"line": 6, "circle": 6, "roundtrip": 21, "scalarity": 4, "annihilator": 4}
        _cpus(monkeypatch, 2)
        threaded = run_verify("all", SuiteConfig(rng_seed=rng_seed, probe_counts=counts))
        _cpus(monkeypatch, 1)
        serial = run_verify("all", SuiteConfig(rng_seed=rng_seed, probe_counts=counts))
        assert json.dumps(threaded.to_json_dict()) == json.dumps(serial.to_json_dict())
        assert threaded.to_csv_text() == serial.to_csv_text()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_check_error_names_the_lowest_failing_element(self, monkeypatch, cpus):
        # a=0.05 (item 1) and a=0.02 (item 2) both alias; with two CPUs they
        # fall in different shares, the later one on the calling thread
        _cpus(monkeypatch, cpus)
        affine = [(2.0, 0.0), (0.05, 0.0), (0.02, 0.0), (4.0, 0.0)]
        cfg = SuiteConfig(rng_seed=3, probe_counts={"line": 4}, affine_set=affine)
        records = {r.check_id: r for r in run_verify("line", cfg).records}
        a03 = records["a03-affine-commutation"]
        assert a03.measured is None and not a03.passed
        assert a03.note.startswith("error: dilation by a=0.05 would alias")
        assert run_verify("line", SuiteConfig(probe_counts={"line": 4})).passed


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
        ({"line": {"n": 0}}, "line grid too small"),
        ({"probe_counts": {"circle": 2.5}}, "probe count 'circle'"),
        ({"rational_set": [[2, 4, 0.0]]}, "rational_set element [2, 4, 0.0]: q/p"),
        ({"affine_set": [[-1.0, 0.0]]}, "affine_set element [-1.0, 0.0]: scale a"),
        ({"tolerances": {"parsevl": 1e-12}}, "unknown tolerance 'parsevl'"),
        ({"probe_counts": {"lines": 4}}, "unknown probe count 'lines'"),
    ],
)
def test_malformed_config_exits_one_naming_its_field(tmp_path, capsys, doc, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "all", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: invalid config: ") and field in out.err


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

    def test_translate_echoes_warnings(self, tmp_path, capsys):
        g = Grid1D.from_interval(-40.0, 40.0, 256)
        x = g.positions()
        f = LineSignal(g, np.exp(-((x - 38.0) ** 2) / 2.0))
        inp = tmp_path / "f.json"
        out = tmp_path / "out.json"
        save_signal(f, inp)
        assert main(["apply", "translate", "--in", str(inp), "--out", str(out), "--b", "5.0"]) == 0
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

    def test_space_mismatch_is_usage_error(self, tmp_path):
        basis = LineBasis(16, -2.0, 0.25)
        op = synthesize_commuting_operator(1.0, 0.0, basis)
        path = tmp_path / "op.json"
        save_operator(op, path)
        assert main(["decompose", "--in", str(path), "--space", "circle"]) == 1
