import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from jpmsim import meanfield, rate, sweep
from jpmsim.cli import main
from jpmsim.core import DetectorParams, DriveKind, DriveSpec, omega_from_ghz

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
        with pytest.raises(ValueError, match="scale must be linear or log, got 'lin'"):
            sweep.SweepAxis("gamma_tl", 0.1, 1.0, 5, scale="lin")


class TestSpecValidation:
    def test_pm_needs_t_m(self):
        with pytest.raises(ValueError):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                params=make_params(),
                drive=DriveSpec.continuous(0.1, OMEGA),
            )

    @pytest.mark.parametrize("objective,field", [("pm_at_tm", "t_m"), ("eta_finite_n", "n_in")])
    def test_zero_t_m_or_n_in(self, objective, field):
        with pytest.raises(ValueError, match=field):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                params=make_params(),
                drive=DriveSpec.continuous(0.1, OMEGA),
                objective=objective, **{field: 0.0},
            )

    @pytest.mark.parametrize("objective", ["steady_pm", "eta_finite_n"])
    def test_flux_objective_needs_n_in(self, objective):
        with pytest.raises(ValueError, match=f"{objective} needs n_in"):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                params=make_params(gamma_res=1.0),
                drive=DriveSpec.continuous(0.0, OMEGA),
                objective=objective,
            )

    def test_same_name_on_both_axes(self, capsys, tmp_path):
        # one name on both axes would leave one of them without effect
        with pytest.raises(ValueError, match="'gamma_tl'"):
            sweep.SweepSpec(
                axis1=sweep.SweepAxis("gamma_tl", 0.1, 10, 3),
                axis2=sweep.SweepAxis("gamma_tl", 0.5, 2, 3),
                params=make_params(), drive=DriveSpec.continuous(0.0, OMEGA), objective="eta",
            )
        axis = {"name": "gamma_tl", "min": 0.5, "max": 2.0, "points": 3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"axis1": axis, "axis2": axis, "t_m": 5.0}))
        assert main(["sweep", "--spec", str(spec_path), "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert "'gamma_tl'" in err and "Traceback" not in err

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
        direct = meanfield.integrate(p, d, t_end=5.0, n_samples=2).pm[-1]
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

    def test_swept_sigma_moves_default_centre(self):
        # a Gaussian without t0 is centred by its own sigma in every cell,
        # exactly as a standalone drive of that width
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("sigma", 0.5, 2.0, 4),
            params=make_params(),
            drive=DriveSpec.gaussian(1.0, OMEGA, sigma=1.0), t_m=20.0,
        )
        res = sweep.run_sweep(spec)
        assert res.errors == ()
        for sigma, value in zip(res.axis1_values, res.values):
            d = DriveSpec.gaussian(1.0, OMEGA, sigma)
            assert value == meanfield.integrate(make_params(), d, t_end=20.0, n_samples=2).pm[-1]

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


def cell_inputs(spec, res, idx):
    """The detector, drive and t_m of one cell of a sweep result."""
    swept = {spec.axis1.name: res.axis1_values[idx[0]]}
    if spec.axis2 is not None:
        swept[spec.axis2.name] = res.axis2_values[idx[1]]
    by_target = {"params": {}, "drive": {}, "t_m": {}}
    for name, value in swept.items():
        by_target[sweep.PARAM_TARGETS[name]][name] = value
    return (replace(spec.params, **by_target["params"]),
            replace(spec.drive, **by_target["drive"]),
            by_target["t_m"].get("t_m", spec.t_m))


Ax = sweep.SweepAxis
TABLE = ([0.5, 1.5, 3.0, 4.0], [0.0, 1.0, 0.6, 0.0])
STACKED_GRIDS = {
    "exp": (Ax("gamma_tl", 0.2, 5.0, 3), Ax("alpha_sq", 0.05, 3.0, 2),
            make_params(gamma_1=1.3), DriveSpec.exponential(1.0, OMEGA, 1.5), 25.0),
    "gauss-relaxation": (Ax("gamma_tl", 0.2, 5.0, 3), Ax("alpha_sq", 0.05, 3.0, 2),
                         make_params(gamma_rel=0.3), DriveSpec.gaussian(1.0, OMEGA, 1.2), 15.0),
    "table-relaxation": (Ax("gamma_tl", 0.2, 5.0, 3), Ax("alpha_sq", 0.05, 3.0, 2),
                         make_params(gamma_rel=0.1), DriveSpec.tabulated(1.0, OMEGA, *TABLE), 12.0),
    # one stiff cell beside easy ones; t_m is short because DOP853 has to
    # resolve 1/gamma_tl = 1e-4 ns
    "stiff-corner": (Ax("gamma_tl", 1.0, 1e4, 3), Ax("alpha_sq", 2.0, 2.0, 1),
                     make_params(), DriveSpec.exponential(1.0, OMEGA, 8.0), 0.4),
    "swept-sigma": (Ax("sigma", 0.7, 2.8, 3), Ax("gamma_tl", 0.5, 2.0, 2),
                    make_params(gamma_rel=0.2), DriveSpec.gaussian(1.0, OMEGA, 1.0), 20.0),
    "swept-t_m": (Ax("t_m", 2.0, 12.0, 3, scale="linear"), Ax("gamma_tl", 0.5, 2.0, 2),
                  make_params(), DriveSpec.gaussian(1.0, OMEGA, 1.0), 30.0),
}


def stacked_spec(name):
    axis1, axis2, params, drive, t_m = STACKED_GRIDS[name]
    return sweep.SweepSpec(axis1=axis1, axis2=axis2, params=params, drive=drive, t_m=t_m)


def spy_pm_at(monkeypatch, fails=lambda params, drive: False):
    """Two lists that record, from now on, the number of cells of each
    meanfield.pm_at call and one entry per meanfield.integrate call; a pm_at
    call whose detector and drive ``fails`` raises IntegrationError."""
    calls, integrated = [], []
    pm_at, integrate = meanfield.pm_at, meanfield.integrate

    def spy(params, drive, t_m):
        calls.append(len(t_m))
        if fails(params, drive):
            raise meanfield.IntegrationError("injected", 0.0)
        return pm_at(params, drive, t_m)

    def spy_integrate(*args, **kwargs):
        integrated.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(meanfield, "pm_at", spy)
    monkeypatch.setattr(meanfield, "integrate", spy_integrate)
    return calls, integrated


class TestStackedPulses:
    """The pm_at_tm cells of a sweep share one meanfield.pm_at call per
    envelope: one LSODA call per pulse envelope, one stack of expm for all
    continuous-drive cells."""

    @pytest.mark.parametrize("name", list(STACKED_GRIDS))
    def test_cells_match_one_cell_integrate_and_dop853(self, name, dop853_pulse):
        # LSODA's max-norm error test holds every cell to the tolerance, so
        # no cell can hide its error behind the others
        spec = stacked_spec(name)
        res = sweep.run_sweep(spec)
        assert res.errors == ()
        for idx in np.ndindex(res.values.shape):
            params, drive, t_m = cell_inputs(spec, res, idx)
            alone = sweep._pm_at(params, drive, t_m)
            ref = dop853_pulse(params, drive, np.array([0.0, t_m]))[3, -1]
            assert abs(res.values[idx] - alone) < 1e-8
            assert abs(res.values[idx] - ref) < 1e-8

    @pytest.mark.parametrize("continuous", [False, True], ids=["pulse", "continuous"])
    def test_one_call_per_envelope(self, monkeypatch, continuous):
        # sigma shapes a Gaussian's envelope, not a continuous drive's
        calls, integrated = spy_pm_at(monkeypatch)
        for name, pulse_calls in (("gauss-relaxation", [6]), ("swept-sigma", [2, 2, 2])):
            spec = stacked_spec(name)
            if continuous:
                spec = replace(spec, drive=DriveSpec.continuous(1.0, OMEGA))
            calls.clear()
            assert sweep.run_sweep(spec).errors == ()
            assert calls == ([6] if continuous else pulse_calls)
        assert integrated == []

    @pytest.mark.parametrize("cls", [DetectorParams, DriveSpec])
    def test_builds_no_detector_or_drive_per_cell(self, monkeypatch, cls):
        # the 64 cells of an 8x8 gamma_tl x alpha_sq grid are array entries
        # of one copied detector and drive, as for the rate objectives
        spec = sweep.SweepSpec(axis1=Ax("gamma_tl", 0.2, 5.0, 8), axis2=Ax("alpha_sq", 0.05, 3.0, 8),
                               params=make_params(gamma_rel=0.3),
                               drive=DriveSpec.gaussian(1.0, OMEGA, 1.2), t_m=15.0)
        assert count_built(monkeypatch, spec, [cls]) == 0

    def test_builds_one_drive_per_envelope_group(self, monkeypatch):
        # swept-sigma: 3 widths, so 3 drives, each with its sigma as a float
        seen = []
        pm_at = meanfield.pm_at

        def spy(params, drive, t_m):
            seen.append(drive)
            return pm_at(params, drive, t_m)

        monkeypatch.setattr(meanfield, "pm_at", spy)
        spec = stacked_spec("swept-sigma")
        assert count_built(monkeypatch, spec, [DetectorParams]) == 0
        assert count_built(monkeypatch, spec, [DriveSpec]) == 3
        sigmas = [d.sigma for d in seen[-3:]]
        assert [type(s) for s in sigmas] == [float] * 3
        assert sigmas == spec.axis1.grid().tolist()

    @pytest.mark.parametrize("axis1", [Ax("gamma_rel", 0.01, 1.0, 8), Ax("t_m", 0.5, 40.0, 8)],
                             ids=["gamma_rel", "t_m"])
    def test_continuous_grid_is_one_call(self, monkeypatch, axis1):
        spec = sweep.SweepSpec(axis1=axis1, axis2=Ax("alpha_sq", 0.01, 3.0, 8),
                               params=make_params(gamma_rel=0.1),
                               drive=DriveSpec.continuous(1.0, OMEGA), t_m=10.0)
        calls, integrated = spy_pm_at(monkeypatch)
        res = sweep.run_sweep(spec)
        assert (calls, integrated, res.errors) == ([64], [], ())

    def test_non_positive_t_m_fails_its_cell(self, monkeypatch):
        # as a cell integrated alone does; the stacked grid must not take
        # t = -5 or a second t = 0, so the two other cells need one call
        spec = sweep.SweepSpec(
            axis1=Ax("t_m", -5.0, 10.0, 4, scale="linear"), params=make_params(),
            drive=DriveSpec.gaussian(1.0, OMEGA, 1.0), t_m=5.0)
        calls = []
        integrate_pulses = meanfield.integrate_pulses

        def spy(params, drive, t_eval):
            y = integrate_pulses(params, drive, t_eval)
            calls.append(len(y))
            return y

        monkeypatch.setattr(meanfield, "integrate_pulses", spy)
        res = sweep.run_sweep(spec)
        assert calls == [2]
        assert res.errors == ((0,), (1,))
        for i in (2, 3):
            alone = sweep._pm_at(spec.params, spec.drive, res.axis1_values[i])
            assert abs(res.values[i] - alone) < 1e-8

    @pytest.mark.parametrize("fault", ["call-fails", "cell-breaks-invariant"])
    def test_fallback_gives_the_same_result(self, monkeypatch, fault):
        # the gamma_0 > 0 cells fail on their own; the others must come out
        # of the one-cell fallback as they come out of the stacked call
        spec = sweep.SweepSpec(
            axis1=Ax("gamma_0", 0.0, 0.1, 2, scale="linear"), axis2=Ax("gamma_tl", 0.5, 2.0, 3),
            params=make_params(), drive=DriveSpec.gaussian(1.0, OMEGA, 1.0), t_m=15.0)
        expected = sweep.run_sweep(spec)
        integrate_pulses = meanfield.integrate_pulses

        def faulty(params, drive, t_eval):
            if np.size(params.gamma_tl) == 1:  # one-cell calls, from integrate, are left alone
                return integrate_pulses(params, drive, t_eval)
            if fault == "call-fails":
                raise meanfield.IntegrationError("injected", 0.0)
            y = integrate_pulses(params, drive, t_eval)
            y[1, 3, -1] = np.nan
            return y

        monkeypatch.setattr(meanfield, "integrate_pulses", faulty)
        res = sweep.run_sweep(spec)
        assert res.errors == expected.errors == ((1, 0), (1, 1), (1, 2))
        assert json.loads(res.to_json())["failed_cells"] == [[1, 0], [1, 1], [1, 2]]
        np.testing.assert_allclose(res.values, expected.values, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("drive", [DriveSpec.gaussian(1.0, OMEGA, 1.0),
                                       DriveSpec.continuous(1.0, OMEGA)],
                             ids=["pulse", "continuous"])
    @pytest.mark.parametrize("bad", [0, 5, 15])
    def test_failed_call_is_halved(self, monkeypatch, bad, drive):
        # one cell that breaks every stacked call it is in: the halves
        # around it are integrated stacked, not cell by cell
        spec = sweep.SweepSpec(axis1=Ax("alpha_sq", 0.05, 5.0, 16), params=make_params(),
                               drive=drive, t_m=15.0)
        expected = sweep.run_sweep(spec)
        bad_alpha_sq = expected.axis1_values[bad]
        calls, _ = spy_pm_at(
            monkeypatch, fails=lambda params, drive: np.any(drive.alpha_sq == bad_alpha_sq))
        res = sweep.run_sweep(spec)
        assert res.errors == ((bad,),)
        assert len(calls) <= 2 * math.log2(16) + 1 < 16
        keep = np.arange(16) != bad
        np.testing.assert_allclose(res.values[keep], expected.values[keep], rtol=0, atol=1e-8)
        if drive.kind is DriveKind.CONTINUOUS:  # expm works slice by slice
            assert np.array_equal(res.values[keep], expected.values[keep])


def seeded_params(seed, **kw):
    """Base rates drawn from ``seed``; ``kw`` pins some of them."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.05, 2.0, size=5)
    return make_params(**{"gamma_tl": g[0], "gamma_0": 0.05 * g[1], "gamma_1": g[2],
                          "gamma_rel": 0.1 * g[3], "gamma_res": 10.0 * g[4], **kw})


def rate_cell(objective, params, n_in):
    """One cell of a rate objective from the scalar rate functions."""
    if objective == "eta":
        return rate.efficiency(params)
    if objective == "steady_pm":
        return rate.steady_state(params, n_in)[2]
    return rate.efficiency_finite_flux(params, n_in)


def per_cell_sweep(spec):
    """The reference for the sweep grid model: each cell's detector and drive
    built by replace(), its value from the scalar rate function or from
    sweep._pm_at, and a cell failed where either raises."""
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    grids = [ax.grid() for ax in axes]
    ref = sweep.SweepResult(spec, grids[0], grids[1] if spec.axis2 else None,
                            np.full([g.size for g in grids], np.nan), ())
    failed = []
    for idx in np.ndindex(ref.values.shape):
        try:
            params, drive, t_m = cell_inputs(spec, ref, idx)
            ref.values[idx] = (sweep._pm_at(params, drive, t_m) if spec.objective == "pm_at_tm"
                               else rate_cell(spec.objective, params, spec.n_in))
        except (ValueError, meanfield.IntegrationError, meanfield.InvariantViolation):
            failed.append(idx)
    return replace(ref, errors=tuple(failed))


Lin = dict(scale="linear")
#: name -> (axis1, axis2 or None, pinned base rates, drive or None for continuous)
RATE_GRIDS = {
    "gamma_tilde-0-corner": (Ax("gamma_tl", 0.0, 2.0, 5, **Lin), Ax("gamma_1", 0.0, 1.5, 4, **Lin),
                             dict(gamma_0=0.0, gamma_rel=0.0), None),
    "gamma_res-through-0": (Ax("gamma_res", -2.0, 4.0, 7, **Lin), Ax("gamma_tl", 0.01, 100.0, 6),
                            {}, None),
    "rates-below-0": (Ax("gamma_tl", -1.0, 1.0, 5, **Lin), Ax("gamma_0", -0.1, 0.1, 5, **Lin),
                      {}, None),
    "alpha_sq-below-0": (Ax("alpha_sq", -1.0, 1.0, 5, **Lin), Ax("gamma_tl", 0.1, 10.0, 4),
                         {}, None),
    "t_m-below-0": (Ax("t_m", -5.0, 5.0, 3, **Lin), Ax("gamma_0", -0.1, 0.2, 4, **Lin), {}, None),
    "kappa-below-0": (Ax("kappa", -1.0, 2.0, 4, **Lin), Ax("gamma_res", 0.0, 3.0, 4, **Lin), {},
                      DriveSpec.exponential(0.5, OMEGA, 1.0)),
    "one-axis": (Ax("gamma_1", -0.5, 2.0, 6, **Lin), None, dict(gamma_rel=0.0, gamma_0=0.0), None),
    "unswept-rates": (Ax("alpha_sq", -1.0, 1.0, 3, **Lin), None, dict(gamma_res=0.0), None),
    "overflow": (Ax("gamma_res", -1.0, 1e200, 6, **Lin), Ax("gamma_tl", 1.0, 1e200, 3), {}, None),
    "sigma-through-0-gaussian": (Ax("sigma", -1.0, 2.0, 4, **Lin), Ax("gamma_tl", 0.1, 10.0, 3),
                                 {}, DriveSpec.gaussian(0.5, OMEGA, 1.0)),
    # sigma and kappa need only be finite on a drive they do not shape
    "sigma-through-0-exponential": (Ax("sigma", -1.0, 2.0, 4, **Lin),
                                    Ax("gamma_0", -0.1, 0.1, 3, **Lin), {},
                                    DriveSpec.exponential(0.5, OMEGA, 1.0)),
    "kappa-through-0-gaussian": (Ax("kappa", -1.0, 2.0, 4, **Lin),
                                 Ax("gamma_1", -0.5, 1.0, 4, **Lin), {},
                                 DriveSpec.gaussian(0.5, OMEGA, 1.0)),
    "one-point-axes": (Ax("gamma_tl", -0.5, -0.5, 1, **Lin), Ax("gamma_1", 2.0, 2.0, 1), {}, None),
    "one-point-beside-many": (Ax("gamma_1", 2.0, 2.0, 1), Ax("gamma_0", -0.1, 0.1, 3, **Lin),
                              {}, None),
}


def rate_spec(name, objective, seed):
    axis1, axis2, pinned, drive = RATE_GRIDS[name]
    return sweep.SweepSpec(axis1=axis1, axis2=axis2, params=seeded_params(seed, **pinned),
                           drive=drive or DriveSpec.continuous(0.0, OMEGA),
                           objective=objective, n_in=0.3)


def count_built(monkeypatch, spec, classes=(DetectorParams, DriveSpec), run=sweep.run_sweep):
    """How many objects of ``classes`` run(spec) builds."""
    built = []
    for cls in classes:
        def spy(self, init=cls.__post_init__):
            built.append(self)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    run(spec)
    return len(built)


class TestRateBroadcast:
    """A rate objective runs as one broadcast call over the whole grid."""

    @pytest.mark.parametrize("objective", ["eta", "steady_pm", "eta_finite_n"])
    @pytest.mark.parametrize("name", list(RATE_GRIDS))
    def test_output_is_byte_identical_to_per_cell(self, name, objective, tmp_path):
        for seed in (1, 2, 3):
            spec = rate_spec(name, objective, seed)
            res, ref = sweep.run_sweep(spec), per_cell_sweep(spec)
            assert res.errors  # each grid has failing cells
            assert res.to_json() == ref.to_json()
            res.to_csv(tmp_path / "res.csv")
            ref.to_csv(tmp_path / "ref.csv")
            assert (tmp_path / "res.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_non_finite_cells_are_failed(self):
        # gamma_res of 2.5e199 and more overflows eta's denominator: those
        # cells have no value and are listed, like the negative gamma_res cell
        spec = sweep.SweepSpec(axis1=Ax("gamma_res", -1.0, 1e200, 5, **Lin),
                               axis2=Ax("gamma_tl", 0.5, 2.0, 2),
                               params=make_params(gamma_0=0.01),
                               drive=DriveSpec.continuous(0.0, OMEGA), objective="eta")
        with warnings.catch_warnings():
            # as outside the test suite, where a RuntimeWarning does not raise
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sweep.run_sweep(spec)
        assert res.errors == tuple((i, j) for i in range(5) for j in range(2))
        assert np.all(np.isnan(res.values))
        assert all(type(i) is int for cell in res.errors for i in cell)
        assert json.loads(res.to_json())["failed_cells"] == [list(c) for c in res.errors]

    def test_checks_each_axis_value_once(self, monkeypatch):
        # a rate objective builds no cell, and each axis is checked by one
        # array call of its field's rule, not by a build per value
        for name in ("rates-below-0", "kappa-below-0", "sigma-through-0-gaussian"):
            assert count_built(monkeypatch, rate_spec(name, "eta", 1)) == 0


#: name -> (axis1, axis2 or None, pinned base rates, drive or None for
#: continuous) of pm_at_tm grids. In the pulse grids no two cells that can be
#: built share an envelope, so each is its own one-cell call, as alone.
PM_GRIDS = {
    "t_m-through-0": (Ax("t_m", -5.0, 10.0, 4, **Lin), Ax("gamma_tl", 0.5, 2.0, 3),
                      dict(gamma_0=0.0), None),
    "gamma_0-and-rates-below-0": (Ax("gamma_0", -0.1, 0.1, 5, **Lin),
                                  Ax("gamma_tl", -1.0, 1.0, 5, **Lin), {}, None),
    "alpha_sq-below-0": (Ax("alpha_sq", -1.0, 1.0, 5, **Lin), Ax("gamma_1", -0.5, 2.0, 4, **Lin),
                         dict(gamma_0=0.0), None),
    "gamma_res-and-kappa": (Ax("gamma_res", -1.0, 1.0, 3, **Lin), Ax("kappa", -1.0, 1.0, 3, **Lin),
                            dict(gamma_0=0.0), None),
    "one-axis-alpha_sq": (Ax("alpha_sq", -0.5, 2.0, 6, **Lin), None, dict(gamma_0=0.0), None),
    "one-axis-t_m": (Ax("t_m", -1.0, 3.0, 5, **Lin), None, dict(gamma_0=0.0), None),
    "one-point-beside-many": (Ax("gamma_tl", 1.5, 1.5, 1), Ax("t_m", -1.0, 3.0, 3, **Lin),
                              dict(gamma_0=0.0), None),
    "sigma-through-0-gaussian": (Ax("sigma", -1.0, 2.0, 4, **Lin), None, dict(gamma_0=0.0),
                                 DriveSpec.gaussian(0.5, OMEGA, 1.0)),
    "sigma-through-0-exponential": (Ax("sigma", -1.0, 2.0, 3, **Lin),
                                    Ax("gamma_0", -0.1, 0.0, 2, **Lin), {},
                                    DriveSpec.exponential(0.5, OMEGA, 1.0)),
    "kappa-through-0-gaussian": (Ax("kappa", -1.0, 2.0, 3, **Lin),
                                 Ax("gamma_0", -0.1, 0.0, 2, **Lin), {},
                                 DriveSpec.gaussian(0.5, OMEGA, 1.0)),
    # omega_R, the rates and the propagator overflow, except in one corner
    "overflow": (Ax("alpha_sq", 1e-3, 1e300, 5), Ax("gamma_tl", 0.5, 1e200, 4),
                 dict(gamma_0=0.0), None),
}


def pm_spec(name, seed):
    axis1, axis2, pinned, drive = PM_GRIDS[name]
    return sweep.SweepSpec(axis1=axis1, axis2=axis2,
                           params=seeded_params(seed, **{"gamma_res": 0.0, **pinned}),
                           drive=drive or DriveSpec.continuous(0.1, OMEGA), t_m=5.0)


class TestContinuousPm:
    """pm_at_tm cells fail where one cell alone fails."""

    @pytest.mark.parametrize("name", list(PM_GRIDS))
    def test_output_is_byte_identical_to_per_cell(self, name, tmp_path):
        for seed in (1, 2, 3):
            spec = pm_spec(name, seed)
            res, ref = sweep.run_sweep(spec), per_cell_sweep(spec)
            assert res.errors and len(res.errors) < res.values.size
            assert res.to_json() == ref.to_json()
            res.to_csv(tmp_path / "res.csv")
            ref.to_csv(tmp_path / "ref.csv")
            assert (tmp_path / "res.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_checks_each_axis_value_once(self, monkeypatch):
        # each axis is checked by one array call, and the 3 x 3 cells whose
        # gamma_tl and gamma_0 are both >= 0 are array entries, not objects
        spec = replace(rate_spec("rates-below-0", "eta", 1), objective="pm_at_tm", t_m=5.0)
        assert count_built(monkeypatch, spec) == 0


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

    def test_json_failed_cell_is_null(self):
        # with gamma_1 = gamma_rel = 0, eta has no value at gamma_tl = 0
        spec = sweep.SweepSpec(
            axis1=sweep.SweepAxis("gamma_tl", 0.0, 1.0, 3, scale="linear"),
            params=make_params(gamma_1=0.0, gamma_res=50.0),
            drive=DriveSpec.continuous(0.0, OMEGA),
            objective="eta",
        )
        res = sweep.run_sweep(spec)

        def reject_constant(token):
            raise ValueError(f"not strict JSON: {token}")

        data = json.loads(res.to_json(), parse_constant=reject_constant)
        assert data["failed_cells"] == [[0]]
        assert data["values"][0] is None
        assert data["values"][1:] == res.values[1:].tolist()


def serial_optimize(drive, params, t_m, bracket=(1e-2, 1e2)):
    """optimize_gamma_tl with its coarse grid as a loop of sweep._pm_at, one
    cell at a time: the reference for the stacked coarse grid."""
    coarse = np.linspace(math.log10(bracket[0]), math.log10(bracket[1]), sweep.COARSE_POINTS)
    vals = [sweep._pm_at(replace(params, gamma_tl=10.0**x), drive, t_m) for x in coarse]
    k = int(np.argmax(vals))
    if k in (0, sweep.COARSE_POINTS - 1):
        return sweep.OptimizeResult(gamma_tl=10.0 ** coarse[k], pm=vals[k], at_boundary=True)
    res = minimize_scalar(
        lambda x: -sweep._pm_at(replace(params, gamma_tl=10.0**x), drive, t_m),
        bounds=(coarse[k - 1], coarse[k + 1]), method="bounded",
        options={"xatol": math.log10(1.0 + sweep.GAMMA_TL_REL_TOL)})
    return sweep.OptimizeResult(gamma_tl=10.0**res.x, pm=-res.fun, at_boundary=False)


def seeded_optimize_input(seed):
    """(drive, params, t_m, bracket) drawn from ``seed``; every third input
    has a bracket of its own."""
    rng = np.random.default_rng(5000 + seed)
    omega = omega_from_ghz(rng.uniform(1.0, 10.0))
    params = DetectorParams(gamma_tl=1.0, gamma_0=0.0, gamma_1=rng.uniform(0.1, 3.0),
                            gamma_rel=rng.uniform(0.0, 0.5), gamma_res=0.0, omega_0=omega)
    drive = DriveSpec.continuous(10.0 ** rng.uniform(-3.0, 1.0), omega)
    bracket = tuple(sorted(10.0 ** rng.uniform(-3.0, 3.0, 2))) if seed % 3 == 0 else (1e-2, 1e2)
    return drive, params, rng.uniform(1.0, 60.0), bracket


class TestOptimizer:
    def test_coarse_grid_is_one_pm_at_call(self, monkeypatch):
        calls, integrated = spy_pm_at(monkeypatch)
        res = sweep.optimize_gamma_tl(DriveSpec.continuous(0.02, OMEGA), make_params(), 50.0)
        assert not res.at_boundary
        assert calls == [sweep.COARSE_POINTS]
        # perfbench/spans.py counts the meanfield.integrate calls under
        # optimize_gamma_tl (sweep.evals_per_optimize); the Brent steps make them
        assert len(integrated) >= 1

    def test_builds_one_detector_per_brent_step(self, monkeypatch):
        # the coarse grid is one copied detector with 25 gamma_tl; each Brent
        # step builds its own, checked, detector
        calls, integrated = spy_pm_at(monkeypatch)
        inputs = (DriveSpec.continuous(0.02, OMEGA), make_params(), 50.0)
        built = count_built(monkeypatch, inputs, [DetectorParams],
                            run=lambda args: sweep.optimize_gamma_tl(*args))
        assert calls == [sweep.COARSE_POINTS]
        assert built == len(integrated) >= 1

    def test_same_floats_as_a_serial_coarse_grid(self):
        # expm works slice by slice, so each stacked cell gets the floats of
        # its own integrate call, and the optimizer takes the same steps
        inputs = [seeded_optimize_input(seed) for seed in range(24)]
        inputs.append((DriveSpec.continuous(0.02, OMEGA), make_params(), 50.0, (1e-2, 1e-1)))
        results = [sweep.optimize_gamma_tl(*inp) for inp in inputs]
        expected = [serial_optimize(*inp) for inp in inputs]
        assert results == expected
        assert [type(r.pm) for r in results] == [type(r.pm) for r in expected]
        assert {res.at_boundary for res in results} == {False, True}

    @pytest.mark.parametrize("kw,t_m,problem", [
        (dict(gamma_0=0.1), 20.0, "mean-field closure assumes gamma_0 = 0"),
        (dict(gamma_1=0.0), 20.0, "gamma_1 = 0"),
        ({}, 0.0, "t_m must be > 0"),
        ({}, math.nan, "t_m must be a finite number"),
    ])
    def test_rejects_before_the_coarse_grid(self, monkeypatch, kw, t_m, problem):
        calls, integrated = spy_pm_at(monkeypatch)
        with pytest.raises(ValueError, match=problem):
            sweep.optimize_gamma_tl(DriveSpec.continuous(0.1, OMEGA), make_params(**kw), t_m)
        assert calls == integrated == []

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 1.0), (0.01, math.inf), (10.0, 1.0),
                                         (math.nan, 1.0)])
    def test_rejects_a_bracket_without_finite_0_low_high(self, monkeypatch, bracket):
        calls, integrated = spy_pm_at(monkeypatch)
        d, p = DriveSpec.continuous(0.02, OMEGA), make_params()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bracket"):
                sweep.optimize_gamma_tl(d, p, 20.0, bracket=bracket)
            with pytest.raises(ValueError, match="bracket"):
                sweep.grid_argmax_gamma_tl(d, p, 20.0, bracket=bracket)
        assert calls == integrated == []

    @pytest.mark.parametrize("points", [0, -3, 2.5])
    def test_grid_oracle_rejects_points_below_1(self, monkeypatch, points):
        calls, integrated = spy_pm_at(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="points"):
                sweep.grid_argmax_gamma_tl(DriveSpec.continuous(0.02, OMEGA), make_params(), 20.0,
                                           points=points)
        assert integrated == []

    def test_rejects_a_pulse_drive(self, monkeypatch):
        # stacked pulse cells share one LSODA step sequence, so the coarse
        # grid would not get the floats the Brent steps get
        calls, integrated = spy_pm_at(monkeypatch)
        with pytest.raises(ValueError, match="needs a continuous drive, got gaussian"):
            sweep.optimize_gamma_tl(DriveSpec.gaussian(1.0, OMEGA, 1.0), make_params(), 20.0)
        assert calls == integrated == []

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
            t_end=20.0, n_samples=2,
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
        # no drive leaves pm at exactly 0.0, with no special case for it
        for d in (DriveSpec.continuous(0.0, OMEGA), DriveSpec.gaussian(0.0, OMEGA, 1.0)):
            pm = sweep.saturation_curve(make_params(), d, t_m=5.0, alpha_grid=[0.0, 0.1])
            assert pm[0] == 0.0
            assert pm[1] > 0.0
