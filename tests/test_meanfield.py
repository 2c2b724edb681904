from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from jpmsim import analytic, meanfield, pulses, rate
from jpmsim.core import DetectorParams, DriveKind, DriveSpec, omega_from_ghz

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


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
        traj = meanfield.integrate(p, d, meanfield.IntegratorConfig(t_end=20.0))
        assert np.all(traj.pm == 0.0)
        assert np.all(traj.p0 == 1.0)

    def test_continuous_saturates_to_one(self):
        p = make_params()
        d = DriveSpec.continuous(0.05, OMEGA)
        wr = meanfield.rabi_frequency(p, d)
        t_end = 50.0 / min(p.gamma_tl, p.gamma_1, wr)
        traj = meanfield.integrate(p, d, meanfield.IntegratorConfig(t_end=t_end))
        assert traj.pm[-1] > 0.999

    def test_conservation_lossless(self):
        p = make_params(gamma_tl=0.8, gamma_1=1.3)
        d = DriveSpec.continuous(0.03, OMEGA)
        traj = meanfield.integrate(p, d, meanfield.IntegratorConfig(t_end=15.0))
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
        traj = meanfield.integrate(
            p, d, meanfield.IntegratorConfig(t_end=5.0, n_samples=4000)
        )
        cut = np.searchsorted(traj.pm, 0.5)
        p1 = traj.p1[:cut]
        maxima = np.sum((p1[1:-1] > p1[:-2]) & (p1[1:-1] > p1[2:]))
        assert maxima >= 3


class TestLaplaceCrossOracle:
    def test_matches_residue_reconstruction(self):
        p = make_params(gamma_tl=0.7, gamma_1=1.2)
        a2 = 0.04
        t_end = 20.0 / p.gamma_tilde
        traj = meanfield.integrate(
            p, DriveSpec.continuous(a2, OMEGA), meanfield.IntegratorConfig(t_end=t_end)
        )
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
            cfg = meanfield.IntegratorConfig(t_end=rng.uniform(1, 60), n_samples=50)
            traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), cfg)
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
            cfg = meanfield.IntegratorConfig(n_samples=50)
            traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), cfg)
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
            traj = meanfield.integrate(p, d, meanfield.IntegratorConfig(n_samples=20))
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
        traj = meanfield.integrate(p, drive, meanfield.IntegratorConfig(n_samples=5))
        ref = dop853_pulse(p, drive, traj.times)
        assert traj.pm[-1] > 0.05
        assert np.max(np.abs(components(traj) - ref)) < 1e-8

    def test_banded_jacobian_is_exact(self, monkeypatch):
        # the right-hand side is linear in y, so its Jacobian has columns
        # rhs(t, e_j); the band holds entry (i, j) at row i - j + 3 (mu = 3)
        seen = {}
        odeint = meanfield.odeint

        def spy(func, y0, t, **kw):
            seen.update(rhs=func, jac=kw["Dfun"], ml=kw["ml"], mu=kw["mu"])
            return odeint(func, y0, t, **kw)

        monkeypatch.setattr(meanfield, "odeint", spy)
        cells = [(make_params(gamma_tl=0.5, gamma_rel=0.1), DriveSpec.gaussian(0.2, OMEGA, 1.0)),
                 (make_params(gamma_tl=3.0, gamma_1=2.0), DriveSpec.gaussian(1.5, OMEGA, 1.0))]
        meanfield.integrate_pulses(cells, np.array([0.0, 2.0]))
        assert (seen["ml"], seen["mu"]) == (3, 3)
        t = 1.7
        dense = np.column_stack([seen["rhs"](t, e) for e in np.eye(8)])
        band = seen["jac"](t, np.zeros(8))
        i, j = np.indices((8, 8))
        inside = np.abs(i - j) <= 3
        np.testing.assert_allclose(band[i[inside] - j[inside] + 3, j[inside]], dense[inside],
                                   rtol=1e-14, atol=1e-15)
        assert not dense[~inside].any()
        # and each diagonal block is A0 + omega_R f(t) B of its own cell
        env = pulses.envelope_for(cells[0][1])
        for k, (p, d) in enumerate(cells):
            a0, b = meanfield.generator(p)
            block = dense[4 * k:4 * k + 4, 4 * k:4 * k + 4]
            np.testing.assert_allclose(block, a0 + meanfield.rabi_frequency(p, d) * env(t) * b,
                                       rtol=1e-14, atol=1e-15)

    def test_stacked_cells_need_one_envelope(self):
        p = make_params()
        cells = [(p, DriveSpec.gaussian(1.0, OMEGA, 1.0)), (p, DriveSpec.gaussian(1.0, OMEGA, 2.0))]
        with pytest.raises(ValueError, match="one envelope"):
            meanfield.integrate_pulses(cells, np.array([0.0, 5.0]))

    @pytest.mark.parametrize("t_eval", [[0.0], [1.0, 5.0], [0.0, 5.0, 5.0], [0.0, 5.0, 2.0],
                                        [0.0, np.nan]])
    def test_sample_grid_must_increase_from_zero(self, t_eval):
        cells = [(make_params(), DriveSpec.gaussian(1.0, OMEGA, 1.0))]
        with pytest.raises(ValueError, match="t_eval"):
            meanfield.integrate_pulses(cells, np.array(t_eval))


def pm_alone(params, drive, t_m):
    cfg = meanfield.IntegratorConfig(t_end=t_m, n_samples=2)
    return meanfield.integrate(params, drive, cfg).pm[-1]


class TestPmAt:
    """pm of N cells, each at its own t_m, in one call."""

    def test_continuous_cells_are_bit_identical_to_integrate(self):
        rng = np.random.default_rng(11)
        cells, t_m = [], rng.uniform(0.1, 40.0, size=30)
        for _ in range(30):
            g = rng.uniform(0.01, 3.0, size=3)
            cells.append((make_params(gamma_tl=g[0], gamma_1=g[1], gamma_rel=0.2 * g[2]),
                          DriveSpec.continuous(rng.uniform(0.0, 2.0), OMEGA)))
        pm = meanfield.pm_at(cells, t_m)
        assert pm.shape == (30,)
        assert all(pm[k] == pm_alone(p, d, t) for k, ((p, d), t) in enumerate(zip(cells, t_m)))

    def test_pulse_cells_match_integrate(self):
        drive = DriveSpec.gaussian(1.0, OMEGA, 1.0)
        cells = [(make_params(gamma_tl=g), replace(drive, alpha_sq=a))
                 for g, a in ((0.5, 0.2), (1.0, 1.0), (2.0, 3.0))]
        t_m = [15.0, 5.0, 15.0]  # one sample at 5 and one at 15 serve all three
        pm = meanfield.pm_at(cells, t_m)
        for k, ((p, d), t) in enumerate(zip(cells, t_m)):
            assert abs(pm[k] - pm_alone(p, d, t)) < 1e-8

    def test_non_finite_cell_fails_the_call(self):
        cells = [(make_params(), DriveSpec.continuous(0.1, OMEGA)),
                 (make_params(gamma_tl=1e150), DriveSpec.continuous(0.1, OMEGA))]
        with pytest.raises(meanfield.IntegrationError, match="not finite"):
            meanfield.pm_at(cells, [10.0, 10.0])

    @pytest.mark.parametrize("second,t_m", [
        (DriveSpec.gaussian(1.0, OMEGA, 1.0), 5.0),  # a continuous and a pulse drive
        (DriveSpec.continuous(0.3, OMEGA), 0.0),
        (DriveSpec.continuous(0.3, OMEGA), -1.0),
        (DriveSpec.continuous(0.3, OMEGA), np.nan),
    ], ids=["two-envelopes", "t_m-0", "t_m-below-0", "t_m-nan"])
    def test_rejects_cells_it_cannot_stack(self, second, t_m):
        cells = [(make_params(), DriveSpec.continuous(0.1, OMEGA)), (make_params(), second)]
        with pytest.raises(ValueError, match="one envelope, each with t_m > 0"):
            meanfield.pm_at(cells, [5.0, t_m])

    def test_continuous_drives_share_one_key(self):
        # kappa and sigma shape no continuous drive
        keys = {meanfield.envelope_key(DriveSpec(DriveKind.CONTINUOUS, a, OMEGA, kappa=k))
                for a, k in ((0.1, None), (2.0, 1.0), (0.5, 3.0))}
        assert len(keys) == 1


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
        traj = meanfield.integrate(p, drive, meanfield.IntegratorConfig(t_end=30.0))
        total = traj.p0 + traj.p1 + traj.pm
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_strong_drive_matches_rate_closed_form(self):
        # relaxation returns the excitation to the ground state, from where
        # the strong drive pumps it again: every photon is counted eventually
        p = make_params(gamma_rel=0.5)
        a2 = 5.0
        traj = meanfield.integrate(
            p, DriveSpec.continuous(a2, OMEGA), meanfield.IntegratorConfig(t_end=30.0)
        )
        _, pm = rate.closed_form_p1_pm(p, a2, traj.times[-1])
        assert traj.pm[-1] == pytest.approx(1.0, abs=1e-3)
        assert abs(traj.pm[-1] - pm) < 1e-3


class TestConfigAndInvariants:
    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, 4.0, True, "8", None])
    def test_bad_n_samples_rejected(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            meanfield.IntegratorConfig(n_samples=n)

    def test_numpy_integer_n_samples_accepted(self):
        assert meanfield.IntegratorConfig(n_samples=np.int64(2)).n_samples == 2

    @pytest.mark.parametrize("field", ["p0", "p1", "pm"])
    def test_nan_sample_is_a_violation(self, field):
        y = np.zeros((4, 3))
        y[1] = 1.0
        y[("v", "p0", "p1", "pm").index(field), 1] = np.nan
        with pytest.raises(meanfield.InvariantViolation, match=field):
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
        traj = meanfield.integrate(
            p, DriveSpec.continuous(0.05, OMEGA), meanfield.IntegratorConfig(t_end=5.0)
        )
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

        cfg = meanfield.IntegratorConfig(t_end=t0, n_samples=4)
        pm_gauss = meanfield.integrate(p, d_g, cfg).pm[-1]
        cfg_c = meanfield.IntegratorConfig(t_end=t_eq, n_samples=4)
        pm_cont = meanfield.integrate(p, DriveSpec.continuous(a2_c, OMEGA), cfg_c).pm[-1]
        assert pm_gauss == pytest.approx(pm_cont, rel=0.02)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        p = make_params()
        traj = meanfield.integrate(
            p, DriveSpec.continuous(0.05, OMEGA), meanfield.IntegratorConfig(t_end=5.0)
        )
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert list(data.dtype.names) == ["t", "v", "p0", "p1", "pm", "R"]
        assert data["pm"][-1] == pytest.approx(traj.pm[-1], rel=1e-9)
