import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jpmsim
from jpmsim import analytic, meanfield
from jpmsim.cli import main
from jpmsim.core import DetectorParams, omega_from_ghz


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    def test_lists_all_subcommands(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for cmd in ("simulate", "compare", "efficiency", "nep", "match",
                    "analytic", "optimize", "sweep"):
            assert cmd in out

    @pytest.mark.parametrize("cmd,flags", [
        ("simulate", ["--drive", "--alpha-sq", "--kappa", "--sigma", "--t0",
                      "--paper-literal", "--pulse-file", "--t-end", "--samples",
                      "--output", "--gamma-tl", "--gamma-0", "--gamma-1",
                      "--gamma-rel", "--freq"]),
        ("compare", ["--alpha-sq", "--t-end", "--samples", "--output"]),
        ("efficiency", ["--ideal", "--n-in", "--gamma-res", "--output"]),
        ("nep", ["--matched", "--gamma-res", "--output"]),
        ("match", ["--gamma-1", "--gamma-0", "--gamma-rel", "--output"]),
        ("analytic", ["--mode", "--alpha-sq", "--kappa", "--order", "--output"]),
        ("optimize", ["--alpha-sq", "--t-m", "--output"]),
        ("sweep", ["--spec", "--format", "--workers", "--output"]),
    ])
    def test_subcommand_help_enumerates_flags(self, capsys, cmd, flags):
        code, out, _ = run(capsys, cmd, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_bad_flag(self, capsys):
        code, _, _ = run(capsys, "match", "--bogus")
        assert code == 2


class TestSimulate:
    def test_zero_drive_trajectory(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "simulate", "--drive", "continuous", "--alpha-sq", "0",
            "--t-end", "10", "--output", str(out_path),
        )
        assert code == 0
        assert "pm(t_end) = 0.000000" in out
        data = np.genfromtxt(out_path, delimiter=",", names=True)
        assert np.all(data["pm"] == 0.0)

    def test_repeat_invocation_is_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "simulate", "--drive", "continuous",
                "--alpha-sq", "0.05", "--t-end", "10", "--output", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_paper_literal_gaussian_differs(self, capsys):
        def pm_for(*extra):
            _, out, _ = run(
                capsys, "simulate", "--drive", "gauss",
                "--alpha-sq", "0.1", "--sigma", "1", *extra,
            )
            return float(out.split("=")[1].split("at")[0])

        pm_norm = pm_for()
        pm_lit = pm_for("--paper-literal")
        # the literal prefactor carries 2 pi times the energy
        assert pm_lit > 2 * pm_norm

    def test_exp_pulse_matches_series(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--drive", "exp",
            "--alpha-sq", "0.15", "--kappa", "5",
        )
        assert code == 0
        pm = float(out.split("=")[1].split("at")[0])
        params = DetectorParams(
            gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
            gamma_res=0.0, omega_0=omega_from_ghz(5.0),
        )
        series = analytic.exp_pulse_steady_state(params, 0.15, 5.0)
        assert abs(pm - series) < 1e-2


class TestCompare:
    def test_zero_time_agreement_and_header(self, capsys):
        code, out, err = run(
            capsys, "compare", "--alpha-sq", "0.05", "--t-end", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,pm_meanfield,pm_rate"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert float(first[2]) == 0.0
        assert "max abs gap" in err

    def test_classical_regime_small_gap(self, capsys):
        # strong incoherent pumping: mean field and rate closed form agree
        code, _, err = run(
            capsys, "compare", "--alpha-sq", "5", "--t-end", "30",
        )
        assert code == 0
        gap = float(err.split("mean abs gap =")[1].strip())
        assert gap < 0.05


class TestEfficiency:
    def test_ideal_symmetric(self, capsys):
        code, out, _ = run(
            capsys, "efficiency", "--ideal", "--gamma-tl", "2", "--gamma-1", "1",
        )
        assert code == 0
        assert float(out) == pytest.approx(8.0 / 9.0, abs=1e-9)

    def test_report_json(self, capsys):
        code, out, _ = run(
            capsys, "efficiency", "--gamma-tl", "1", "--gamma-1", "1",
            "--gamma-res", "100",
        )
        assert code == 0
        data = json.loads(out)
        assert data["eta"] == pytest.approx(1.0, abs=1e-9)


class TestNep:
    def test_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "nep", "--matched", "--gamma-0", "0.01", "--gamma-1", "1",
            "--gamma-rel", "3.3e-5", "--gamma-res", "100",
        )
        assert code == 0
        val = json.loads(out)["nep"]
        assert 1e-20 < val < 3e-20


class TestMatch:
    def test_symmetric_unit(self, capsys):
        code, out, _ = run(capsys, "match", "--gamma-1", "1")
        assert code == 0
        assert float(out) == pytest.approx(1.0, rel=1e-9)


class TestAnalytic:
    def test_poles_json(self, capsys):
        code, out, _ = run(
            capsys, "analytic", "--mode", "poles", "--alpha-sq", "0.1",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["poles"]) == 4
        assert data["poles"][0] == [0.0, 0.0]
        assert data["residues"][0] == [1.0, 0.0]

    def test_exp_steady_value(self, capsys):
        code, out, _ = run(
            capsys, "analytic", "--mode", "exp-steady",
            "--alpha-sq", "0.15", "--kappa", "5",
        )
        assert code == 0
        params = DetectorParams(
            gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
            gamma_res=0.0, omega_0=omega_from_ghz(5.0),
        )
        assert float(out) == pytest.approx(
            analytic.exp_pulse_steady_state(params, 0.15, 5.0), rel=1e-6)


class TestOptimize:
    def test_result_fields(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--alpha-sq", "0.02", "--t-m", "50",
        )
        assert code == 0
        data = json.loads(out)
        assert not data["at_boundary"]
        assert data["gamma_tl_max"] > 0
        assert 0 < data["pm"] <= 1


class TestSweep:
    def test_csv_output(self, capsys, tmp_path):
        spec = {
            "axis1": {"name": "gamma_tl", "min": 0.5, "max": 2.0, "points": 3},
            "objective": "eta",
            "params": {"gamma_1": 1.0, "gamma_res": 100.0},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "sweep", "--spec", str(spec_path),
            "--output", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "gamma_tl,eta"
        assert len(rows) == 4

    def test_json_output_parallel(self, capsys, tmp_path):
        spec = {
            "axis1": {"name": "alpha_sq", "min": 0.01, "max": 0.1, "points": 3},
            "objective": "pm_at_tm",
            "t_m": 5.0,
            "params": {},
            "drive": {"kind": "continuous", "alpha_sq": 0.0},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, _ = run(
            capsys, "sweep", "--spec", str(spec_path),
            "--format", "json", "--workers", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["values"]) == 3
        assert data["failed_cells"] == []

    def test_unknown_spec_key(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axes": []}))
        code, _, err = run(capsys, "sweep", "--spec", str(spec_path))
        assert code == 2
        assert "axes" in err


class TestConfig:
    def test_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_1": 4.0}))
        code, out, _ = run(capsys, "--config", str(cfg), "match")
        assert code == 0
        assert float(out) == pytest.approx(4.0, rel=1e-9)
        code, out, _ = run(
            capsys, "--config", str(cfg), "match", "--gamma-1", "9.0",
        )
        assert code == 0
        assert float(out) == pytest.approx(9.0, rel=1e-9)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_flag": 1}))
        assert main(["--config", str(cfg), "match"]) == 2


AXIS = {"name": "gamma_tl", "min": 0.5, "max": 2.0, "points": 2}
#: Problems that are numerical failures and exit 3; every other case exits 2.
NUMERICAL = {"keeps growing", "collides", "p0 = nan"}
#: --config files that test_malformed_input_exits_2 writes: a JSON true or a
#: float is not an integer or a rate
CONFIG_FILES = {"true_gamma_1.json": {"gamma_1": True}, "true_order.json": {"order": True},
                "float_order.json": {"order": 2.5}}


@pytest.mark.parametrize("argv,spec,problem", [
    (["simulate", "--drive", "exp", "--alpha-sq", "0.1"], None, "kappa"),
    (["simulate", "--drive", "gauss", "--alpha-sq", "0.1"], None, "sigma"),
    (["simulate", "--drive", "tab", "--alpha-sq", "0.1"], None, "pulse-file"),
    (["analytic", "--mode", "exp-steady", "--alpha-sq", "0.1"], None, "kappa"),
    (["sweep"], {"axis1": AXIS, "objective": "eta"}, "--output"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "drive": {"kind": "tab", "alpha_sq": 0.1}, "t_m": 5.0}, "pulse_file"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "drive": {"kind": "exp", "alpha_sq": 0.1}, "t_m": 5.0}, "kappa"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "drive": {"kind": "square"}, "t_m": 5.0}, "square"),
    (["sweep", "--format", "json"], {"objective": "eta"}, "axis1"),
    (["sweep", "--format", "json"],
     {"axis1": {"name": "gamma_tl", "min": 0.5, "max": 2.0}, "t_m": 5.0}, "points"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "params": {"gama_1": 2.0}, "t_m": 5.0}, "gama_1"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "drive": {"kind": "exp", "kapa": 2.0}, "t_m": 5.0}, "kapa"),
    (["--config"], None, "--config"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "params": {"gamma_1": "1"}, "t_m": 5.0}, "gamma_1"),
    (["simulate", "--drive", "tab", "--alpha-sq", "0.1", "--pulse-file", "one_column.csv"],
     None, "line 3"),
    (["efficiency", "--gamma-tl", "0", "--gamma-1", "0"], None, "all rates zero"),
    (["match", "--gamma-1", "nan"], None, "gamma_1"),
    (["analytic", "--mode", "exp-steady", "--alpha-sq", "50", "--kappa", "0.05"],
     None, "keeps growing"),
    (["sweep", "--format", "json"], {"axis1": AXIS, "t_m": math.nan}, "t_m"),
    (["sweep", "--format", "json"], {"axis1": AXIS, "t_m": "5"}, "t_m"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "objective": "steady_pm", "n_in": -1, "params": {"gamma_res": 1.0}},
     "n_in"),
    (["sweep", "--format", "json"],
     {"axis1": {**AXIS, "max": math.inf}, "t_m": 5.0}, "max"),
    (["analytic", "--mode", "poles", "--alpha-sq", "1e-13", "--gamma-1", "1e-12"],
     None, "collides"),
    (["simulate", "--drive", "continuous", "--alpha-sq", "0.1", "--samples", "0"],
     None, "n_samples"),
    (["simulate", "--drive", "continuous", "--alpha-sq", "0.1", "--samples", "1"],
     None, "n_samples"),
    (["compare", "--alpha-sq", "0.1", "--samples", "0"], None, "n_samples"),
    (["sweep", "--format", "json"], {"axis1": {**AXIS, "points": 2.5}, "t_m": 5.0}, "points"),
    (["sweep", "--format", "json"], {"axis1": {**AXIS, "points": "8"}, "t_m": 5.0}, "points"),
    (["sweep", "--format", "json"], {"axis1": {**AXIS, "points": True}, "t_m": 5.0}, "points"),
    (["efficiency", "--gamma-res", "1", "--n-in", "nan"], None, "n_in"),
    (["efficiency", "--gamma-res", "1", "--n-in", "inf"], None, "n_in"),
    (["analytic", "--mode", "exp-steady", "--alpha-sq", "0.1", "--kappa", "nan"], None, "kappa"),
    (["analytic", "--mode", "exp-steady", "--alpha-sq", "nan", "--kappa", "1"], None, "alpha_sq"),
    (["analytic", "--mode", "exp-steady", "--alpha-sq", "-0.1", "--kappa", "1"], None, "alpha_sq"),
    (["analytic", "--mode", "poles", "--alpha-sq", "-1"], None, "alpha_sq"),
    (["efficiency", "--gamma-res", "1e200", "--gamma-0", "0.01"], None, "not finite"),
    (["nep", "--gamma-res", "1e200", "--gamma-0", "0.01"], None, "not finite"),
    (["efficiency", "--gamma-1", "0", "--gamma-rel", "1"], None, "eta_max = 0"),
    (["simulate", "--drive", "continuous", "--gamma-tl", "0", "--gamma-1", "0",
      "--alpha-sq", "0.1"], None, "gamma_tilde = 0"),
    (["simulate", "--drive", "continuous", "--gamma-tl", "0", "--gamma-1", "0",
      "--alpha-sq", "0.1", "--t-end", "5", "--output", "x.csv"], None, "gamma_tilde = 0"),
    (["simulate", "--drive", "gauss", "--sigma", "1", "--gamma-tl", "0", "--gamma-1", "0",
      "--alpha-sq", "0.1", "--output", "y.csv"], None, "gamma_tilde = 0"),
    (["compare", "--gamma-tl", "0", "--gamma-1", "0", "--alpha-sq", "0.1"],
     None, "gamma_tilde = 0"),
    # JSON true is not the number 1
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "params": {"gamma_1": True}, "t_m": 5.0}, "gamma_1"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "drive": {"alpha_sq": True}, "t_m": 5.0}, "alpha_sq"),
    (["sweep", "--format", "json"], {"axis1": AXIS, "t_m": True}, "t_m"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "objective": "steady_pm", "n_in": True, "params": {"gamma_res": 1.0}},
     "n_in"),
    (["sweep", "--format", "json"], {"axis1": {**AXIS, "min": True}, "t_m": 5.0}, "min"),
    (["--config", "true_gamma_1.json", "match"], None, "gamma_1"),
    (["--config", "true_order.json", "analytic", "--mode", "exp-steady", "--alpha-sq", "0.1",
      "--kappa", "1"], None, "order"),
    (["--config", "float_order.json", "analytic", "--mode", "exp-steady", "--alpha-sq", "0.1",
      "--kappa", "1"], None, "order"),
    (["sweep", "--format", "json"],
     {"axis1": AXIS, "params": {"gamma_1": 10**400}, "t_m": 5.0}, "gamma_1"),
    # omega_R overflows: LSODA's NaN states fail the invariants, without a warning
    (["simulate", "--drive", "gauss", "--sigma", "1", "--alpha-sq", "1e300", "--gamma-tl", "1e10"],
     None, "p0 = nan"),
])
def test_malformed_input_exits_2(capsys, tmp_path, monkeypatch, argv, spec, problem):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one_column.csv").write_text("t,f\n0,0\n1\n2,0\n")
    for name, config in CONFIG_FILES.items():
        (tmp_path / name).write_text(json.dumps(config))
    if spec is not None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = argv + ["--spec", str(spec_path)]
    code, _, err = run(capsys, *argv)
    assert code == (3 if problem in NUMERICAL else 2)
    assert problem in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gamma_tl,code,message", [
    ("1e8", 0, ""),
    ("1e150", 3, "propagator is not finite"),
])
def test_stiff_continuous_drive_finishes(gamma_tl, code, message):
    # in a separate process, so that a hang fails the test instead of the suite
    env = {**os.environ, "PYTHONPATH": str(Path(jpmsim.__file__).parents[1])}
    argv = [sys.executable, "-m", "jpmsim.cli", "simulate", "--drive", "continuous",
            "--alpha-sq", "0.1", "--gamma-tl", gamma_tl, "--t-end", "10"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == code
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_stiff_pulse_finishes():
    # gamma_tl 1e6 GHz against a 1 GHz pulse: only a stiff method gets through
    env = {**os.environ, "PYTHONPATH": str(Path(jpmsim.__file__).parents[1])}
    argv = [sys.executable, "-m", "jpmsim.cli", "simulate", "--drive", "exp",
            "--alpha-sq", "0.1", "--kappa", "1", "--gamma-tl", "1e6"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("argv", [
    ["nep", "--gamma-0", "0.01", "--gamma-res", "1", "--gamma-tl", "0"],
    ["efficiency", "--gamma-tl", "0", "--gamma-0", "0.1", "--gamma-res", "1"],
], ids=["nep", "efficiency"])
def test_infinite_nep_is_null(capsys, argv):
    # no coupling with dark counts: the NEP is infinite
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out, parse_constant=reject_constant)["nep"] is None


@pytest.mark.parametrize("flags,block", [
    (["--drive", "exp", "--kappa", "3"], {"kind": "exp", "kappa": 3.0}),
    (["--drive", "gauss", "--sigma", "1.5", "--t0", "5"],
     {"kind": "gauss", "sigma": 1.5, "t0": 5.0}),
    (["--drive", "gauss", "--sigma", "1.5", "--paper-literal"],
     {"kind": "gauss", "sigma": 1.5, "paper_literal": True}),
    (["--drive", "tab", "--pulse-file", "pulse.csv"],
     {"kind": "tab", "pulse_file": "pulse.csv"}),
])
def test_simulate_and_sweep_build_the_same_drive(
        capsys, tmp_path, monkeypatch, flags, block):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pulse.csv").write_text("t,f\n0,0\n1,1\n3,0\n")
    seen = []
    integrate_pulses = meanfield.integrate_pulses

    def spy(cells, *args):
        seen.append(list(cells))
        return integrate_pulses(cells, *args)

    monkeypatch.setattr(meanfield, "integrate_pulses", spy)
    assert main(["simulate", "--alpha-sq", "0.2", "--gamma-1", "1.3", *flags]) == 0
    spec = {
        "axis1": {"name": "gamma_tl", "min": 1.0, "max": 1.0, "points": 1},
        "params": {"gamma_1": 1.3},
        "drive": {"alpha_sq": 0.2, **block},
        "t_m": 5.0,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["sweep", "--spec", "spec.json", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(seen) == 2
    assert seen[0] == seen[1]
