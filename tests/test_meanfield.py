import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import test_sweep
from jpmsim import analytic, meanfield, pulses, rate, sweep
from jpmsim.core import DetectorParams, DriveSpec, omega_from_ghz

OMEGA = omega_from_ghz(5.0)
RATES = ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res")


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


def with_arrays(obj, **fields):
    """A copy of a detector or drive with ``fields`` set, arrays among them."""
    obj = copy.copy(obj)
    obj.__dict__.update(fields)
    return obj


def stacked(cells):
    """One detector and one drive holding the rates and alpha_sq of the
    (params, drive) pairs ``cells`` as (N,) arrays, with the first drive's
    envelope."""
    params, drive = cells[0]
    return (with_arrays(params, **{n: np.array([getattr(p, n) for p, _ in cells]) for n in RATES}),
            with_arrays(drive, alpha_sq=np.array([d.alpha_sq for _, d in cells])))


class TestRabiFrequency:
    def test_zero_amplitude(self):
        p = make_params()
        d = DriveSpec.continuous(0.0, OMEGA)
        assert meanfield.rabi_frequency(p, d) == 0.0

    def test_unit_value(self):
        # sqrt(2 * (pi/2) * 1 * 1 / pi) = 1
        p = make_params(omega_0=1.0)
        d = DriveSpec.continuous(np.pi / 2, 1.0)
        assert meanfield.rabi_frequency(p, d) == pytest.approx(1.0, rel=1e-12)

    def test_exp_pulse_initial_value(self):
        # at t = 0 the pulsed rate equals sqrt(2 alpha_sq kappa gamma_tl / pi)
        p = make_params(gamma_tl=0.7)
        kappa, a2 = 3.0, 0.4
        d = DriveSpec.exponential(a2, OMEGA, kappa)
        expected = np.sqrt(2 * a2 * kappa * 0.7 / np.pi)
        wr0 = meanfield.rabi_frequency(p, d) * pulses.envelope_for(d)(0.0)
        assert wr0 == pytest.approx(expected, rel=1e-12)


class TestIntegrate:
    def test_zero_drive_no_clicks(self):
        p = make_params()
        d = DriveSpec.continuous(0.0, OMEGA)
        traj = meanfield.integrate(p, d, t_end=20.0)
        assert np.all(traj.pm == 0.0)
        assert np.all(traj.p0 == 1.0)

    def test_continuous_saturates_to_one(self):
        p = make_params()
        d = DriveSpec.continuous(0.05, OMEGA)
        wr = meanfield.rabi_frequency(p, d)
        t_end = 50.0 / min(p.gamma_tl, p.gamma_1, wr)
        traj = meanfield.integrate(p, d, t_end=t_end)
        assert traj.pm[-1] > 0.999

    def test_conservation_lossless(self):
        p = make_params(gamma_tl=0.8, gamma_1=1.3)
        d = DriveSpec.continuous(0.03, OMEGA)
        traj = meanfield.integrate(p, d, t_end=15.0)
        total = traj.p0 + traj.p1 + traj.pm
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_conservation_pulse(self):
        p = make_params()
        d = DriveSpec.exponential(0.5, OMEGA, kappa=2.0)
        traj = meanfield.integrate(p, d)
        total = traj.p0 + traj.p1 + traj.pm
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_pm_monotone(self):
        for d in (
            DriveSpec.continuous(0.1, OMEGA),
            DriveSpec.exponential(1.0, OMEGA, kappa=1.0),
            DriveSpec.gaussian(1.0, OMEGA, sigma=0.5),
        ):
            traj = meanfield.integrate(make_params(), d)
            assert np.all(np.diff(traj.pm) >= -1e-12)

    def test_gamma_0_rejected(self):
        p = make_params(gamma_0=0.01)
        with pytest.raises(ValueError, match="gamma_0"):
            meanfield.integrate(p, DriveSpec.continuous(0.1, OMEGA))

    def test_gamma_res_rejected(self):
        p = make_params(gamma_res=0.5)
        with pytest.raises(ValueError, match="gamma_res"):
            meanfield.integrate(p, DriveSpec.continuous(0.1, OMEGA))

    def test_detuned_drive_rejected(self):
        p = make_params()
        with pytest.raises(ValueError, match="resonant"):
            meanfield.integrate(p, DriveSpec.continuous(0.1, OMEGA * 1.01))

    def test_rabi_oscillation_signature(self):
        # omega_R = 20 gamma_1: several p1 maxima before pm reaches 0.5
        p = make_params()
        alpha_sq = 400.0 * np.pi / (2 * p.gamma_tl * OMEGA)  # omega_R = 20
        d = DriveSpec.continuous(alpha_sq, OMEGA)
        traj = meanfield.integrate(p, d, t_end=5.0, n_samples=4000)
        cut = np.searchsorted(traj.pm, 0.5)
        p1 = traj.p1[:cut]
        maxima = np.sum((p1[1:-1] > p1[:-2]) & (p1[1:-1] > p1[2:]))
        assert maxima >= 3


class TestLaplaceCrossOracle:
    def test_matches_residue_reconstruction(self):
        p = make_params(gamma_tl=0.7, gamma_1=1.2)
        a2 = 0.04
        t_end = 20.0 / p.gamma_tilde
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), t_end=t_end)
        ps = analytic.continuous_pm_poles(p, a2)
        recon = ps.reconstruct(traj.times)
        assert np.max(np.abs(recon - traj.pm)) < 1e-10


def dop853_reference(p, a2, times):
    """(v, p0, p1, pm) at ``times`` from DOP853 at rtol 1e-13, with the
    equations of motion written out component by component."""
    wr = np.sqrt(2.0 * a2 * p.gamma_tl * OMEGA / np.pi)
    gt = p.gamma_tl + p.gamma_1 + p.gamma_rel

    def rhs(t, y):
        v, p0, p1, _ = y
        return [-0.5 * gt * v + wr * (p0 - p1), (p.gamma_tl + p.gamma_rel) * p1 - 0.5 * wr * v,
                -gt * p1 + 0.5 * wr * v, p.gamma_1 * p1]

    sol = solve_ivp(rhs, (0.0, times[-1]), [0.0, 1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times)
    assert sol.success
    return sol.y


def components(traj):
    return np.array([traj.v, traj.p0, traj.p1, traj.pm])


class TestExactContinuousPropagator:
    def test_lossless_matches_pole_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            gtl, g1 = 10.0 ** rng.uniform(-1, 1, size=2)
            a2 = 10.0 ** rng.uniform(-3, 0)
            p = make_params(gamma_tl=gtl, gamma_1=g1)
            traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA),
                                       t_end=rng.uniform(1, 60), n_samples=50)
            recon = analytic.continuous_pm_poles(p, a2).reconstruct(traj.times)
            worst = max(worst, np.max(np.abs(recon - traj.pm)))
        assert worst < 1e-11

    def test_relaxation_matches_dop853(self):
        # gamma_rel > 0: the pole oracle does not apply
        rng = np.random.default_rng(12)
        for _ in range(20):
            gtl, g1 = 10.0 ** rng.uniform(-1, 1, size=2)
            a2 = 10.0 ** rng.uniform(-3, 0)
            p = make_params(gamma_tl=gtl, gamma_1=g1, gamma_rel=rng.uniform(0.01, 1.0))
            traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), n_samples=50)
            ref = dop853_reference(p, a2, traj.times)
            assert np.max(np.abs(components(traj) - ref)) < 1e-10

    def test_double_root_matches_dop853(self):
        # gamma_tl = gamma_1 = 1: the cubic s^3 + 3 s^2 + (2 + w) s + w/2,
        # w = wr^2, has a double root where its discriminant vanishes
        def discriminant(w):
            b, c, d = 3.0, 2.0 + w, 0.5 * w
            return 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2

        w = brentq(discriminant, 0.3, 0.45, xtol=1e-15)
        assert w == pytest.approx(0.37781, abs=1e-5)
        p = make_params()
        a2 = w * np.pi / (2.0 * p.gamma_tl * OMEGA)
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA))
        ref = dop853_reference(p, a2, traj.times)
        assert np.max(np.abs(components(traj) - ref)) < 1e-10


class TestPropagate:
    """The one expm stepper: a stack of generators, each on its own grid."""

    @pytest.mark.parametrize("samples", [2, 37, 400])
    def test_stack_is_bit_identical_to_each_generator_alone(self, samples):
        rng = np.random.default_rng(samples)
        cells = [(make_params(gamma_tl=10.0 ** rng.uniform(-2, 2), gamma_1=rng.uniform(0.1, 3.0),
                              gamma_rel=rng.uniform(0.0, 0.5)),
                  DriveSpec.continuous(10.0 ** rng.uniform(-3, 0.5), OMEGA)) for _ in range(30)]
        gens = meanfield._generators(*stacked(cells), 30)
        t_eval = np.linspace(0.0, rng.uniform(0.5, 60.0, size=30), samples, axis=1)
        y = meanfield.propagate(gens, meanfield.GROUND, t_eval)
        assert y.shape == (30, 4, samples)
        for k in range(30):
            alone = meanfield.propagate(gens[k:k + 1], meanfield.GROUND, t_eval[k:k + 1])
            assert np.array_equal(y[k], alone[0])

    def test_rate_generators_stack_too(self):
        # the 3x3 rate model against integrate_rate, a stack of one
        cases = [(make_params(gamma_tl=g, gamma_rel=0.3), n_in, t_end)
                 for g, n_in, t_end in ((0.5, 2.0, 5.0), (1.0, 10.0, 20.0), (3.0, 0.1, 60.0))]
        gens = np.stack([rate.generator(p, n_in) for p, n_in, _ in cases])
        t_eval = np.linspace(0.0, [t_end for *_, t_end in cases], 400, axis=1)
        y = meanfield.propagate(gens, [1.0, 0.0, 0.0], t_eval)
        assert y.shape == (3, 3, 400)
        for k, case in enumerate(cases):
            t, alone = rate.integrate_rate(*case)
            assert np.array_equal(t, t_eval[k])
            assert np.array_equal(y[k], alone)

    def test_overflowing_slice_fails_at_its_first_non_finite_time(self):
        # p0 grows as e^(800 t), on a grid of step 0.1: e^(80 k) overflows at k = 9
        gens = np.stack([np.zeros((4, 4)), 800.0 * np.eye(4), np.zeros((4, 4))])
        t_eval = np.linspace(0.0, [5.0, 2.0, 7.0], 21, axis=1)
        with pytest.raises(meanfield.IntegrationError, match="not finite") as err:
            meanfield.propagate(gens, meanfield.GROUND, t_eval)
        assert err.value.t_fail == t_eval[1, 9]


#: A trapezoid-like pulse table starting at t = 0.5 ns.
TABLE = ([0.5, 1.5, 3.0, 4.0], [0.0, 1.0, 0.6, 0.0])


class TestPulseLSODA:
    def test_matches_dop853(self, dop853_pulse):
        # seeded exponential, Gaussian and tabulated pulses; every other case
        # with relaxation
        rng = np.random.default_rng(21)
        for i in range(12):
            gtl, g1 = 10.0 ** rng.uniform(-1, 1, size=2)
            p = make_params(gamma_tl=gtl, gamma_1=g1, gamma_rel=0.5 * rng.random() * (i % 2))
            a2 = 10.0 ** rng.uniform(-2, 0.7)
            d = (DriveSpec.exponential(a2, OMEGA, 10.0 ** rng.uniform(-0.5, 0.7)),
                 DriveSpec.gaussian(a2, OMEGA, 10.0 ** rng.uniform(-0.3, 0.5)),
                 DriveSpec.tabulated(a2, OMEGA, *TABLE))[i % 3]
            traj = meanfield.integrate(p, d, n_samples=20)
            ref = dop853_pulse(p, d, traj.times)
            assert np.max(np.abs(components(traj) - ref)) < 1e-8

    @pytest.mark.parametrize("drive", [
        DriveSpec.gaussian(2.0, OMEGA, sigma=0.7, t0=30.0),
        DriveSpec.tabulated(1.0, OMEGA, np.add(TABLE[0], 40.0), TABLE[1]),
    ], ids=["gauss-t0-30", "table-from-40"])
    def test_late_pulse_not_stepped_over(self, drive, dop853_pulse):
        # before the pulse the state sits still, so nothing in the error
        # estimate stops a step from jumping the whole pulse
        p = make_params(gamma_rel=0.2)
        traj = meanfield.integrate(p, drive, n_samples=5)
        ref = dop853_pulse(p, drive, traj.times)
        assert traj.pm[-1] > 0.05
        assert np.max(np.abs(components(traj) - ref)) < 1e-8

    @pytest.mark.parametrize("gamma_rel", [0.0, 0.4], ids=["lossless", "relaxation"])
    @pytest.mark.parametrize("drive", [
        DriveSpec.exponential(2.0, OMEGA, 20.0),
        DriveSpec.gaussian(1.5, OMEGA, 1.2),
        DriveSpec.tabulated(1.0, OMEGA, *TABLE),
    ], ids=["exp", "gauss", "table"])
    def test_tail_matches_dop853(self, drive, gamma_rel, dop853_pulse):
        # after the envelope's end the drive is dropped and each component
        # decays in closed form; DOP853 integrates the full equations there
        p = make_params(gamma_tl=0.3, gamma_1=0.2, gamma_rel=gamma_rel)
        t_end = pulses.envelope_for(drive).t_end
        times = np.concatenate(([0.0, t_end], t_end + np.geomspace(1e-3, 30.0, 8)))
        y = meanfield.integrate_pulses(p, drive, times)[0]
        ref = dop853_pulse(p, drive, times)
        assert y[3, -1] - y[3, 1] > 5e-4  # pm still grows after the pulse
        assert np.max(np.abs(y - ref)) < 1e-8

    def test_stiff_tail_is_no_second_lsoda_call(self, monkeypatch):
        # gamma_tl 1e6 GHz: LSODA stops at the envelope's end, and past it p1
        # empties at once, in closed form
        calls = []
        odeint = meanfield.odeint

        def spy(func, y0, t, **kw):
            calls.append(t)
            return odeint(func, y0, t, **kw)

        monkeypatch.setattr(meanfield, "odeint", spy)
        drive = DriveSpec.gaussian(0.5, OMEGA, 1.0)
        traj = meanfield.integrate(make_params(gamma_tl=1e6), drive)
        assert len(calls) == 1
        assert calls[0][-1] == pulses.envelope_for(drive).t_end < traj.times[-1]
        assert traj.p1[-1] == 0.0 and traj.v[-1] == 0.0

    def test_tail_without_decay_is_finite(self):
        # gamma_1 = 0 sends nothing to pm; gamma_tilde = 0 (no coupling, so no
        # drive) keeps the ground state, with no 0/0 in pm's share
        drive = DriveSpec.gaussian(1.0, OMEGA, 1.0)
        cells = [(make_params(gamma_1=0.0), drive),
                 (make_params(gamma_tl=0.0, gamma_1=0.0), drive)]
        t_eval = np.linspace(0.0, 3.0 * pulses.envelope_for(drive).t_end, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = meanfield.integrate_pulses(*stacked(cells), t_eval)
        assert np.isfinite(y).all()
        assert not y[0, 3].any() and np.abs(y[0, 1] + y[0, 2] - 1.0).max() < 1e-12
        assert y[0, 2, -1] > 0.0  # p1 was driven and is still decaying
        np.testing.assert_array_equal(y[1], np.tile(np.array(meanfield.GROUND)[:, None], 7))

    def test_lsoda_forms_the_banded_jacobian_itself(self, monkeypatch):
        # no hand-built Jacobian: LSODA differences the right-hand side over a
        # band of half-width 3, 7 calls whatever the number of cells; the
        # stiff-corner grid (gamma_tl up to 1e4 GHz) ends on the stiff method,
        # so it evaluates that Jacobian
        seen = []
        odeint = meanfield.odeint

        def spy(func, y0, t, **kw):
            head, info = odeint(func, y0, t, **kw)
            seen.append((kw, info))
            return head, info

        monkeypatch.setattr(meanfield, "odeint", spy)
        assert sweep.run_sweep(test_sweep.stacked_spec("stiff-corner")).errors == ()
        [(kw, info)] = seen
        assert (kw["ml"], kw["mu"]) == (3, 3) and "Dfun" not in kw
        assert info["mused"][-1] == 2 and info["nje"][-1] > 0

    @pytest.mark.parametrize("n", [1, 64])
    def test_rhs_is_the_generator_product(self, monkeypatch, n):
        # the two-product right-hand side against (A0_k + f(t) omega_R,k B) y_k,
        # with relaxation in some cells and gamma_1 = 0 in others
        seen = []
        odeint = meanfield.odeint

        def spy(func, y0, t, **kw):
            seen.append(func)
            return odeint(func, y0, t, **kw)

        monkeypatch.setattr(meanfield, "odeint", spy)
        rng = np.random.default_rng(64)
        drive = DriveSpec.gaussian(1.0, OMEGA, 0.8)
        cells = [(make_params(gamma_tl=10.0 ** rng.uniform(-1, 1), gamma_1=(k % 3 != 1) * g1,
                              gamma_rel=(k % 2 == 0) * 0.3 * rng.random()),
                  replace(drive, alpha_sq=10.0 ** rng.uniform(-2, 0.7)))
                 for k, g1 in enumerate(10.0 ** rng.uniform(-1, 1, size=n))]
        meanfield.integrate_pulses(*stacked(cells), np.array([0.0, 2.0]))
        env = pulses.envelope_for(drive)
        blocks = [(meanfield.generator(p), meanfield.rabi_frequency(p, d)) for p, d in cells]
        for t in (0.3, 2.9, 6.1):
            y = rng.uniform(-1.0, 1.0, size=(n, 4))
            want = np.concatenate([(a0 + env(t) * wr * b) @ yk
                                   for ((a0, b), wr), yk in zip(blocks, y)])
            got = seen[0](t, y.ravel())
            assert got.shape == (4 * n,)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    def test_overflowing_rabi_rate_fails_as_nan_states(self, monkeypatch):
        # omega_R = inf: every derivative of the cell is NaN, so the run ends
        # at a NaN state, not in an LSODA "illegal input" at a garbage time
        drive = DriveSpec.gaussian(1e300, OMEGA, 1.0)
        with pytest.raises(meanfield.InvariantViolation, match="p0 = nan"):
            meanfield.integrate(make_params(gamma_tl=1e10), drive)
        errors = []
        pm_at = meanfield.pm_at

        def spy(cells, *args):
            try:
                return pm_at(cells, *args)
            except Exception as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(meanfield, "pm_at", spy)
        # gamma_tl 1e308 with alpha_sq 10 overflows omega_R; gamma_tl 1 does not
        spec = sweep.SweepSpec(axis1=sweep.SweepAxis("gamma_tl", 1.0, 1e308, 2),
                               params=make_params(), drive=replace(drive, alpha_sq=10.0), t_m=10.0)
        res = sweep.run_sweep(spec)
        assert res.errors == ((1,),)
        assert 0.0 < res.values[0] < 1.0
        assert errors and all(isinstance(exc, meanfield.InvariantViolation)
                              and "p0 = nan" in str(exc) for exc in errors)

    @pytest.mark.parametrize("times,values,gamma_1,message", [
        ([0.0], [1.0], 1.0, "at least 2 samples"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], 1.0, "matching"),
        ([0.0, np.nan], [0.0, 1.0], 1.0, "finite"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 0.0], 1.0, "strictly increasing"),
        ([0.0, 1.0], [0.0, 0.0], 1.0, "zero norm"),
        ([-2.0, -1.0], [0.0, 0.0], 0.0, "zero norm"),  # the default t_end is -1
    ])
    def test_bad_table_error_with_default_t_end(self, times, values, gamma_1, message):
        # the default t_end builds the envelope, whose check is the error reported
        drive = DriveSpec.tabulated(0.3, OMEGA, times, values)
        with pytest.raises(ValueError, match=message):
            meanfield.integrate(make_params(gamma_1=gamma_1), drive)

    @pytest.mark.parametrize("drive,end", [
        (DriveSpec.tabulated(0.3, OMEGA, [0.5, 2.0, 7.0], [0.0, 1.0, 0.0]), 7.0),
        (DriveSpec.exponential(0.3, OMEGA, 2.0), 20.0),
        (DriveSpec.gaussian(0.3, OMEGA, 0.5), 12.0 / (0.5 * np.sqrt(2.0))),
    ], ids=["table", "exp", "gauss"])
    def test_default_t_end_is_the_envelope_end_plus_the_tail(self, drive, end):
        # a table ends at its last knot, an analytic shape at its support's end
        traj = meanfield.integrate(make_params(gamma_1=0.8), drive, n_samples=3)
        assert traj.times[-1] == end + meanfield.PULSE_TAIL_FACTOR / 0.8
        assert traj.times[-1] == pulses.envelope_for(drive).t_end + 12.5

    @pytest.mark.parametrize("t_eval", [[0.0], [1.0, 5.0], [0.0, 5.0, 5.0], [0.0, 5.0, 2.0],
                                        [0.0, np.nan], [0.0, 5.0, np.inf]])
    def test_sample_grid_must_increase_from_zero(self, t_eval):
        with pytest.raises(ValueError, match="t_eval"):
            meanfield.integrate_pulses(make_params(), DriveSpec.gaussian(1.0, OMEGA, 1.0),
                                       np.array(t_eval))

    def test_needs_a_cell(self):
        with pytest.raises(ValueError, match="at least one cell"):
            meanfield.integrate_pulses(with_arrays(make_params(), gamma_tl=np.array([])),
                                       DriveSpec.gaussian(1.0, OMEGA, 1.0), np.array([0.0, 5.0]))


CONTINUOUS = DriveSpec.continuous(0.1, OMEGA)
GAUSSIAN = DriveSpec.gaussian(1.0, OMEGA, 1.0)


def pm_alone(params, drive, t_m):
    return meanfield.integrate(params, drive, t_end=t_m, n_samples=2).pm[-1]


class TestPmAt:
    """pm of N cells, each at its own t_m, in one call."""

    def test_continuous_cells_are_bit_identical_to_integrate(self):
        rng = np.random.default_rng(11)
        cells, t_m = [], rng.uniform(0.1, 40.0, size=30)
        for _ in range(30):
            g = rng.uniform(0.01, 3.0, size=3)
            cells.append((make_params(gamma_tl=g[0], gamma_1=g[1], gamma_rel=0.2 * g[2]),
                          DriveSpec.continuous(rng.uniform(0.0, 2.0), OMEGA)))
        pm = meanfield.pm_at(*stacked(cells), t_m)
        assert pm.shape == (30,)
        assert all(pm[k] == pm_alone(p, d, t) for k, ((p, d), t) in enumerate(zip(cells, t_m)))

    def test_continuous_call_is_one_propagate_call(self, monkeypatch):
        stacks, propagate = [], meanfield.propagate

        def spy(gens, *args):
            stacks.append(gens.shape)
            return propagate(gens, *args)

        monkeypatch.setattr(meanfield, "propagate", spy)
        cells = [(make_params(gamma_tl=g), DriveSpec.continuous(0.1, OMEGA)) for g in (0.5, 1, 2)]
        meanfield.pm_at(*stacked(cells), [5.0, 10.0, 20.0])
        meanfield.pm_at(*stacked(cells[:1]), [5.0])
        assert stacks == [(3, 4, 4), (1, 4, 4)]

    def test_pulse_cells_match_integrate(self):
        # t_m before, at and after the envelope's end in one call: LSODA serves
        # the first two, the closed-form tail the third; one sample serves two cells
        for drive in (DriveSpec.gaussian(1.0, OMEGA, 1.0), DriveSpec.exponential(1.0, OMEGA, 4.0),
                      DriveSpec.tabulated(1.0, OMEGA, *TABLE)):
            t_end = pulses.envelope_for(drive).t_end
            cells = [(make_params(gamma_tl=g, gamma_rel=r), replace(drive, alpha_sq=a))
                     for g, r, a in ((0.5, 0.0, 0.2), (1.0, 0.3, 1.0), (2.0, 0.0, 3.0),
                                     (1.0, 0.0, 1.0))]
            t_m = [t_end + 6.5, 0.6 * t_end, t_end + 6.5, t_end]
            pm = meanfield.pm_at(*stacked(cells), t_m)
            for k, ((p, d), t) in enumerate(zip(cells, t_m)):
                assert abs(pm[k] - pm_alone(p, d, t)) < 1e-8

    def test_non_finite_cell_fails_the_call(self):
        cells = [(make_params(), DriveSpec.continuous(0.1, OMEGA)),
                 (make_params(gamma_tl=1e150), DriveSpec.continuous(0.1, OMEGA))]
        with pytest.raises(meanfield.IntegrationError, match="not finite"):
            meanfield.pm_at(*stacked(cells), [10.0, 10.0])

    @pytest.mark.parametrize("first,second,t_m", [
        (CONTINUOUS, DriveSpec.continuous(0.3, OMEGA), 0.0),
        (CONTINUOUS, DriveSpec.continuous(0.3, OMEGA), -1.0),
        (CONTINUOUS, DriveSpec.continuous(0.3, OMEGA), np.nan),
        (CONTINUOUS, DriveSpec.continuous(0.3, OMEGA), np.inf),
        (GAUSSIAN, replace(GAUSSIAN, alpha_sq=0.5), np.inf),
        (DriveSpec.exponential(0.5, OMEGA, 1.0), DriveSpec.exponential(0.5, OMEGA, 1.0), np.inf),
    ], ids=["t_m-0", "t_m-below-0", "t_m-nan", "t_m-inf", "gauss-t_m-inf", "exp-t_m-inf"])
    def test_rejects_cells_it_cannot_stack(self, first, second, t_m):
        # an infinite t_m gave a finite pulse pm and a 0 * inf in the
        # continuous grid; every warning is an error here
        cells = [(make_params(), first), (make_params(), second)]
        with pytest.raises(ValueError, match="t_m > 0 and finite"):
            meanfield.pm_at(*stacked(cells), [5.0, t_m])

    @pytest.mark.parametrize("drive,t_m", [
        (GAUSSIAN, [5.0]),  # gave both cells pm at 5 ns
        (GAUSSIAN, [5.0, 10.0, 20.0]),  # gave a bare IndexError
        (CONTINUOUS, [5.0]),
        (CONTINUOUS, 5.0),
        (GAUSSIAN, [[5.0, 10.0]]),
    ], ids=["gauss-one-time", "gauss-three-times", "continuous-one-time", "scalar-t_m", "2-d-t_m"])
    def test_t_m_needs_one_entry_per_cell(self, drive, t_m):
        params, drive = stacked([(make_params(gamma_tl=g), drive) for g in (0.5, 2.0)])
        with pytest.raises(ValueError, match="one entry per cell"):
            meanfield.pm_at(params, drive, t_m)

    def test_rates_need_one_length(self):
        params = with_arrays(make_params(), gamma_tl=np.array([0.5, 2.0]),
                             gamma_1=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="one entry per cell"):
            meanfield.pm_at(params, CONTINUOUS, [5.0, 5.0])

    @pytest.mark.parametrize("drive", [CONTINUOUS, GAUSSIAN], ids=["continuous", "gauss"])
    def test_scalar_cell_serves_every_t_m(self, drive):
        t_m = [12.0, 3.0, 7.5]
        pm = meanfield.pm_at(make_params(), drive, t_m)
        assert pm.shape == (3,)
        assert all(abs(pm[k] - pm_alone(make_params(), drive, t)) < 1e-8
                   for k, t in enumerate(t_m))

    def test_needs_a_cell(self):
        with pytest.raises(ValueError, match="at least one cell"):
            meanfield.pm_at(make_params(), GAUSSIAN, [])


class TestGenerator:
    def test_lossless_matches_hand_written_matrix(self):
        # the continuous-drive generator as it was written out by hand
        p = make_params(gamma_tl=0.7, gamma_1=1.3)
        wr = meanfield.rabi_frequency(p, DriveSpec.continuous(0.04, OMEGA))
        gt, gtl, g1 = p.gamma_tilde, p.gamma_tl, p.gamma_1
        hand = np.array([
            [-0.5 * gt, wr, -wr, 0.0],
            [-0.5 * wr, 0.0, gtl, 0.0],
            [0.5 * wr, 0.0, -gt, 0.0],
            [0.0, 0.0, g1, 0.0],
        ])
        a0, b = meanfield.generator(p)
        assert np.array_equal(a0 + wr * b, hand)


class TestRelaxation:
    @pytest.mark.parametrize("drive", [
        DriveSpec.continuous(0.05, OMEGA),
        DriveSpec.exponential(0.5, OMEGA, kappa=2.0),
    ], ids=["continuous", "exp"])
    def test_probability_conserved(self, drive):
        p = make_params(gamma_rel=0.5)
        traj = meanfield.integrate(p, drive, t_end=30.0)
        total = traj.p0 + traj.p1 + traj.pm
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_strong_drive_matches_rate_closed_form(self):
        # relaxation returns the excitation to the ground state, from where
        # the strong drive pumps it again: every photon is counted eventually
        p = make_params(gamma_rel=0.5)
        a2 = 5.0
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), t_end=30.0)
        _, pm = rate.closed_form_p1_pm(p, a2, traj.times[-1])
        assert traj.pm[-1] == pytest.approx(1.0, abs=1e-3)
        assert abs(traj.pm[-1] - pm) < 1e-3


class TestConfigAndInvariants:
    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, 4.0, True, "8", None])
    def test_bad_n_samples_rejected(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            meanfield.integrate(make_params(), DriveSpec.continuous(0.1, OMEGA), n_samples=n)

    def test_numpy_integer_n_samples_accepted(self):
        traj = meanfield.integrate(make_params(), DriveSpec.continuous(0.1, OMEGA),
                                   n_samples=np.int64(2))
        assert len(traj.times) == 2

    @pytest.mark.parametrize("field", ["p0", "p1", "pm"])
    def test_nan_sample_is_a_violation(self, field):
        y = np.zeros((4, 3))
        y[1] = 1.0
        y[("v", "p0", "p1", "pm").index(field), 1] = np.nan
        with pytest.raises(meanfield.InvariantViolation, match=field):
            meanfield._check_invariants(np.arange(3.0), y)

    def test_lost_probability_is_a_violation(self):
        # every occupation inside [0, 1], but their sum 0.875 at the second sample
        y = np.zeros((4, 3))
        y[1] = 1.0
        y[1:, 1] = [0.5, 0.25, 0.125]
        with pytest.raises(meanfield.InvariantViolation,
                           match="probability sum 0.875 deviates from 1 at t = 1.0"):
            meanfield._check_invariants(np.arange(3.0), y)


class TestReflection:
    def test_full_transmission_line_coupling(self):
        p = make_params(gamma_tl=1.0, gamma_0=0.0, gamma_1=0.0, gamma_rel=0.0)
        # gamma_tilde == gamma_tl: ground state reflects with R = +1
        assert meanfield.reflection_coefficient(p, 1.0, 0.0) == pytest.approx(1.0)

    def test_equal_occupations_reflect(self):
        p = make_params()
        assert meanfield.reflection_coefficient(p, 0.4, 0.4) == pytest.approx(-1.0)

    def test_inverted_state_amplifies(self):
        p = make_params(gamma_tl=1.0, gamma_0=0.0, gamma_1=0.0, gamma_rel=0.0)
        r = meanfield.reflection_coefficient(p, 0.0, 1.0)
        assert r == pytest.approx(-3.0)
        assert abs(r) > 1.0

    def test_series_shape(self):
        p = make_params()
        traj = meanfield.integrate(p, DriveSpec.continuous(0.05, OMEGA), t_end=5.0)
        r = traj.reflection()
        assert r.shape == traj.times.shape
        assert r[0] == pytest.approx(-1.0 + 2 * p.gamma_tl / p.gamma_tilde)


class TestPulseVsSeries:
    def test_exp_pulse_agrees_with_series(self):
        p = make_params()
        a2, kappa = 0.15, 5.0
        traj = meanfield.integrate(p, DriveSpec.exponential(a2, OMEGA, kappa))
        series = analytic.exp_pulse_steady_state(p, a2, kappa, order=5)
        assert abs(traj.pm[-1] - series) < 1e-2


class TestContinuousLimit:
    def test_narrow_gaussian_recovers_continuous(self):
        # sigma -> 0 weak limit: compare pm at the pulse center against the
        # continuous drive at the equivalent elapsed drive time
        # t_eq = (int_0^t0 f^2) / f(t0)^2 = sqrt(2 pi)/(4 sigma), with the
        # continuous flux matched to the gaussian peak flux.
        p = make_params()
        sigma = 1e-3
        a2_g = 4.5
        d_g = DriveSpec.gaussian(a2_g, OMEGA, sigma=sigma)
        env = pulses.envelope_for(d_g)
        t0 = 0.5 * (env.t_start + env.t_end)
        peak_sq = env(t0) ** 2
        a2_c = a2_g * peak_sq / OMEGA
        t_eq = np.sqrt(2 * np.pi) / (4 * sigma)

        pm_gauss = meanfield.integrate(p, d_g, t_end=t0, n_samples=4).pm[-1]
        pm_cont = meanfield.integrate(p, DriveSpec.continuous(a2_c, OMEGA),
                                      t_end=t_eq, n_samples=4).pm[-1]
        assert pm_gauss == pytest.approx(pm_cont, rel=0.02)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        p = make_params()
        traj = meanfield.integrate(p, DriveSpec.continuous(0.05, OMEGA), t_end=5.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert list(data.dtype.names) == ["t", "v", "p0", "p1", "pm", "R"]
        assert data["pm"][-1] == pytest.approx(traj.pm[-1], rel=1e-9)
