import json

import numpy as np
import pytest

from jpmsim import meanfield, rate, sweep
from jpmsim.cli import main
from jpmsim.core import DetectorParams, DriveSpec, omega_from_ghz

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


class TestAxis:
    def test_log_grid(self):
        ax = sweep.SweepAxis("gamma_tl", 0.1, 10.0, 3)
        assert np.allclose(ax.grid(), [0.1, 1.0, 10.0])

    def test_linear_grid(self):
        ax = sweep.SweepAxis("t_m", 0.0, 10.0, 11, scale="linear")
        assert np.allclose(ax.grid(), np.arange(11.0))

    def test_single_point(self):
        ax = sweep.SweepAxis("alpha_sq", 0.5, 0.5, 1)
        assert np.allclose(ax.grid(), [0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep.SweepAxis("bogus", 0.1, 1.0, 5)
        with pytest.raises(ValueError):
            sweep.SweepAxis("gamma_tl", 1.0, 0.1, 5)
        with pytest.raises(ValueError):
            sweep.SweepAxis("gamma_tl", 0.0, 1.0, 5, scale="log")
        with pytest.raises(ValueError):
            sweep.SweepAxis("gamma_tl", 0.1, 1.0, 0)


class TestSpecValidation:
    def test_pm_needs_t_m(self):
        with pytest.raises(ValueError):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                params=make_params(),
                drive=DriveSpec.continuous(0.1, OMEGA),
            )

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                params=make_params(),
                drive=DriveSpec.continuous(0.1, OMEGA),
                objective="wat",
            )


class TestRunSweep:
    def test_degenerate_sweep_equals_direct(self):
        p = make_params()
        d = DriveSpec.continuous(0.1, OMEGA)
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 1.0, 1.0, 1),
            params=p, drive=d, t_m=5.0,
        )
        res = sweep.run_sweep(spec)
        cfg = meanfield.IntegratorConfig(t_end=5.0, n_samples=2)
        direct = meanfield.integrate(p, d, cfg).pm[-1]
        assert res.values[0] == pytest.approx(direct, rel=1e-9)
        assert res.errors == ()

    def test_eta_argmax_near_matching(self):
        # along the coupling axis the efficiency peaks at the matching value
        p = make_params(gamma_0=0.005, gamma_1=1.0, gamma_res=100.0)
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 0.01, 100.0, 161),
            params=p, drive=DriveSpec.continuous(0.0, OMEGA),
            objective="eta",
        )
        res = sweep.run_sweep(spec)
        best = res.axis1_values[int(np.nanargmax(res.values))]
        assert best == pytest.approx(rate.matching_gamma_tl(p), rel=0.1)

    def test_2d_grid_shape_and_band(self):
        p = make_params(gamma_res=100.0)
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 0.05, 20.0, 13),
            axis2=sweep.SweepAxis("gamma_1", 0.05, 20.0, 13),
            params=p, drive=DriveSpec.continuous(0.0, OMEGA),
            objective="eta",
        )
        res = sweep.run_sweep(spec)
        assert res.values.shape == (13, 13)
        # the ridge sits on gamma_tl ~ gamma_1: the argmax along each row
        # tracks the diagonal
        for i, g1_row in enumerate(res.values):
            j = int(np.nanargmax(g1_row))
            assert res.axis2_values[j] == pytest.approx(
                res.axis1_values[i], rel=0.7)

    def test_saturated_plateau(self):
        # strong drive: pm(t_m) is insensitive to the coupling over a wide band
        p = make_params()
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 0.5, 2.0, 7),
            params=p, drive=DriveSpec.continuous(5.0, OMEGA), t_m=50.0,
        )
        res = sweep.run_sweep(spec)
        assert (np.max(res.values) - np.min(res.values)) / np.max(res.values) < 0.02

    def test_failed_cells_are_nan(self):
        # gamma_res > 0 is rejected by the coherent integrator: every cell on
        # that axis fails but the run still completes
        p = make_params()
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_res", 0.1, 1.0, 3),
            params=p, drive=DriveSpec.continuous(0.1, OMEGA), t_m=5.0,
        )
        res = sweep.run_sweep(spec)
        assert np.all(np.isnan(res.values))
        assert len(res.errors) == 3

    def test_parallel_matches_serial(self, capsys, tmp_path):
        # `jpmsim sweep --workers N` is accepted and ignored: same bytes out
        spec = {
            "axis1": {"name": "gamma_tl", "min": 0.2, "max": 5.0, "points": 6},
            "axis2": {"name": "alpha_sq", "min": 0.01, "max": 1.0, "points": 4},
            "drive": {"kind": "continuous", "alpha_sq": 0.1},
            "t_m": 10.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["sweep", "--spec", str(spec_path), "--format", "json"]
        outputs = []
        for extra in ([], ["--workers", "4"]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["failed_cells"] == []

    def test_determinism(self):
        p = make_params()
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("alpha_sq", 0.01, 1.0, 5),
            params=p, drive=DriveSpec.continuous(0.1, OMEGA), t_m=5.0,
        )
        a = sweep.run_sweep(spec)
        b = sweep.run_sweep(spec)
        assert np.array_equal(a.values, b.values)


class TestExports:
    def _small_result(self):
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 0.5, 2.0, 3),
            params=make_params(gamma_res=50.0),
            drive=DriveSpec.continuous(0.0, OMEGA),
            objective="eta",
        )
        return sweep.run_sweep(spec)

    def test_csv(self, tmp_path):
        res = self._small_result()
        path = tmp_path / "s.csv"
        res.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "gamma_tl,eta"
        assert len(rows) == 4

    def test_json(self):
        res = self._small_result()
        data = json.loads(res.to_json())
        assert data["objective"] == "eta"
        assert len(data["values"]) == 3
        assert data["failed_cells"] == []


class TestOptimizer:
    def test_agrees_with_grid_oracle(self):
        p = make_params()
        d = DriveSpec.continuous(0.02, OMEGA)
        res = sweep.optimize_gamma_tl(d, p, t_m=50.0)
        oracle = sweep.grid_argmax_gamma_tl(d, p, t_m=50.0)
        # within one cell of the 400-point log grid (ratio ~ 1.023)
        assert abs(np.log(res.gamma_tl / oracle)) < np.log(1.05)
        assert not res.at_boundary

    def test_boundary_flag(self):
        p = make_params()
        d = DriveSpec.continuous(0.02, OMEGA)
        res = sweep.optimize_gamma_tl(d, p, t_m=50.0, bracket=(1e-2, 1e-1))
        assert res.at_boundary

    def test_pm_at_reported_optimum(self):
        p = make_params()
        d = DriveSpec.continuous(0.05, OMEGA)
        res = sweep.optimize_gamma_tl(d, p, t_m=20.0)
        direct = meanfield.integrate(
            DetectorParams(
                gamma_tl=res.gamma_tl, gamma_0=0.0, gamma_1=1.0,
                gamma_rel=0.0, gamma_res=0.0, omega_0=OMEGA,
            ),
            d,
            meanfield.IntegratorConfig(t_end=20.0, n_samples=2),
        ).pm[-1]
        assert res.pm == pytest.approx(direct, rel=1e-9)


class TestSaturation:
    def test_monotone_with_knee(self):
        p = make_params()
        d = DriveSpec.continuous(0.0, OMEGA)
        grid = np.geomspace(1e-3, 10.0, 12)
        pm = sweep.saturation_curve(p, d, t_m=10.0, alpha_grid=grid)
        assert np.all(np.diff(pm) > 0)
        # linear at the bottom, saturated at the top
        assert pm[1] / pm[0] == pytest.approx(grid[1] / grid[0], rel=0.1)
        assert pm[-1] / pm[-2] < 1.1
        assert pm[-1] < 1.0

    def test_zero_amplitude_entry(self):
        p = make_params()
        d = DriveSpec.continuous(0.0, OMEGA)
        pm = sweep.saturation_curve(p, d, t_m=5.0, alpha_grid=[0.0, 0.1])
        assert pm[0] == 0.0
        assert pm[1] > 0.0
