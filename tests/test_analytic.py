import numpy as np
import pytest
from numpy.polynomial import Polynomial

from jpmsim import analytic, meanfield
from jpmsim.core import DetectorParams, DriveSpec, omega_from_ghz

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


class TestLaplaceImage:
    def test_pole_at_origin(self):
        # s * pm(s) -> 1 as s -> 0: unit stationary value
        p = make_params()
        for s in (1e-6, 1e-7, 1e-8):
            val = s * analytic.pm_laplace(p, 0.1, s)
            assert abs(val - 1.0) < 1e-4
        val = 1e-9 * analytic.pm_laplace(p, 0.1, 1e-9)
        assert abs(val - 1.0) < 1e-3

    def test_limit_via_residues(self):
        # residues sum telescopes to the stationary value exactly
        p = make_params(gamma_tl=0.8, gamma_1=1.1)
        ps = analytic.continuous_pm_poles(p, 0.07)
        # at t=0 the reconstruction must vanish: residues sum to zero
        assert abs(np.sum(ps.residues)) < 1e-8

    def test_lossless_guard(self):
        with pytest.raises(ValueError):
            analytic.pm_laplace(make_params(gamma_0=0.1), 0.1, 1.0)


class TestPoles:
    def test_structure(self):
        p = make_params()
        ps = analytic.continuous_pm_poles(p, 0.05)
        assert ps.poles[0] == 0.0
        assert ps.residues[0] == 1.0
        assert np.all(np.real(ps.poles[1:]) < 0)

    def test_conjugate_pair(self):
        p = make_params()
        ps = analytic.continuous_pm_poles(p, 5.0)  # strongly underdamped
        complex_poles = ps.poles[np.abs(np.imag(ps.poles)) > 1e-12]
        assert len(complex_poles) == 2
        assert complex_poles[0] == pytest.approx(np.conj(complex_poles[1]))

    def test_reconstruction_is_real(self):
        p = make_params(gamma_tl=1.3, gamma_1=0.7)
        ps = analytic.continuous_pm_poles(p, 0.3)
        t = np.linspace(0, 30, 400)
        assert ps.reconstruct_imag_max(t) < 1e-10

    def test_reconstruction_matches_laplace_numerically(self):
        # forward-transform the reconstruction by quadrature and compare to
        # the Laplace image at a few real points
        from scipy.integrate import quad

        p = make_params()
        a2 = 0.08
        ps = analytic.continuous_pm_poles(p, a2)
        for s in (0.5, 1.0, 2.0):
            val, _ = quad(lambda t: ps.reconstruct(t)[0] * np.exp(-s * t),
                          0.0, 200.0, limit=400)
            assert val == pytest.approx(
                np.real(analytic.pm_laplace(p, a2, s)), rel=1e-6)

    def test_requires_drive(self):
        with pytest.raises(ValueError):
            analytic.continuous_pm_poles(make_params(), 0.0)


def double_root_alpha_sq(p):
    """alpha_sq at which the continuous-drive cubic s^3 + (3 gt/2) s^2 +
    (gt^2/2 + w) s + gamma_1 w / 2, with w = omega_R^2, has a double root:
    the positive real roots in w of its discriminant."""
    gt, g1 = p.gamma_tilde, p.gamma_1
    b, c, d = 1.5 * gt, Polynomial([0.5 * gt * gt, 1.0]), Polynomial([0.0, 0.5 * g1])
    disc = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
    w = [r.real for r in disc.roots() if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0]
    return [wi * np.pi / (2 * p.gamma_tl * p.omega_0) for wi in w]


def seeded_detectors(n=8):
    """gamma_tl = gamma_1 = 1 at 5 GHz, then n seeded lossless detectors."""
    rng = np.random.default_rng(17)
    return [make_params()] + [
        make_params(gamma_tl=10.0 ** rng.uniform(-1, 1), gamma_1=10.0 ** rng.uniform(-1, 1),
                    omega_0=omega_from_ghz(rng.uniform(1.0, 10.0)))
        for _ in range(n)]


class TestRootNearZero:
    """A root near the pole at 0 comes out of numpy.roots to full relative
    accuracy; only one that comes out exactly 0 fails, with an infinite residue."""

    @pytest.mark.parametrize("a2,g1", [(1e-20, 1.0), (1e-12, 1e-4)])
    def test_matches_integrate(self, a2, g1):
        p = make_params(gamma_1=g1)
        ps = analytic.continuous_pm_poles(p, a2)
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), t_end=30.0, n_samples=31)
        assert np.max(np.abs(ps.reconstruct(traj.times) - traj.pm)) < 1e-12

    def test_root_at_exactly_zero_raises(self):
        with pytest.raises(analytic.DegeneratePoles, match="residues up to inf"):
            analytic.continuous_pm_poles(make_params(gamma_1=1e-4), 1e-30)


class TestDoubleRoot:
    def test_known_double_root_raises(self):
        # numpy.roots splits it by ~1e-8 and the residues reach +-4.3e6 i
        with pytest.raises(analytic.DegeneratePoles, match="may miss pm"):
            analytic.continuous_pm_poles(make_params(), 0.018890254169653932)

    @pytest.mark.parametrize("p", seeded_detectors())
    def test_on_the_locus_raises(self, p):
        alphas = double_root_alpha_sq(p)
        assert alphas
        for a2 in alphas:
            with pytest.raises(analytic.DegeneratePoles):
                analytic.continuous_pm_poles(p, a2)

    @pytest.mark.parametrize("p", seeded_detectors())
    def test_near_the_locus_matches_integrate(self, p):
        for a2 in double_root_alpha_sq(p):
            for a2_near in (a2 * (1 - 1e-5), a2 * (1 + 1e-5)):
                ps = analytic.continuous_pm_poles(p, a2_near)
                traj = meanfield.integrate(p, DriveSpec.continuous(a2_near, p.omega_0),
                                           n_samples=50)
                assert np.max(np.abs(ps.reconstruct(traj.times) - traj.pm)) < analytic.POLE_TOL


class TestExpPulseSeries:
    def test_zero_amplitude(self):
        assert analytic.exp_pulse_steady_state(make_params(), 0.0, 5.0) == 0.0

    def test_plateau_in_convergent_regime(self):
        # weak drive relative to the pulse bandwidth: truncations at orders
        # 3..8 agree to 1e-4
        p = make_params()
        a2, kappa = 0.02, 5.0
        vals = [analytic.exp_pulse_steady_state(p, a2, kappa, order=o)
                for o in range(3, 9)]
        assert max(vals) - min(vals) < 1e-4

    def test_divergence_detected(self):
        p = make_params()
        with pytest.raises(analytic.SeriesDiverged):
            analytic.exp_pulse_steady_state(p, 50.0, 0.2, order=10)

    def test_order_validation(self):
        p = make_params()
        with pytest.raises(ValueError):
            analytic.exp_pulse_steady_state(p, 0.1, 5.0, order=0)
        with pytest.raises(ValueError):
            analytic.exp_pulse_steady_state(p, 0.1, 5.0, order=13)
        with pytest.raises(ValueError):
            analytic.exp_pulse_steady_state(p, 0.1, 0.0)

    def test_against_closed_fifth_order(self):
        # the compact fifth-order expression tracks the full truncation in
        # the weak-drive regime
        p = make_params()
        a2, kappa = 0.05, 5.0
        full = analytic.exp_pulse_steady_state(p, a2, kappa, order=5)
        compact = analytic.exp_pulse_fifth_order(p, a2, kappa)
        assert compact == pytest.approx(full, rel=5e-3)

    def test_lossless_guard(self):
        with pytest.raises(ValueError):
            analytic.exp_pulse_steady_state(make_params(gamma_rel=0.1), 0.1, 5.0)

    @pytest.mark.parametrize("formula", [analytic.exp_pulse_steady_state,
                                         analytic.exp_pulse_fifth_order])
    def test_needs_a_measurement_rate(self, formula):
        with pytest.raises(ValueError, match="need gamma_1 > 0"):
            formula(make_params(gamma_1=0.0), 0.1, 5.0)
