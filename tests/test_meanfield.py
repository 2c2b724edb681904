import numpy as np
import pytest

from jpmsim import analytic, meanfield, pulses
from jpmsim.core import DetectorParams, DriveSpec, omega_from_ghz

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
        assert np.max(np.abs(recon - traj.pm)) < 1e-4


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
        r = meanfield.reflection_series(traj)
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
