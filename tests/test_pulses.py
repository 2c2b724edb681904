import numpy as np
import pytest
from scipy.integrate import quad

from jpmsim import pulses


class TestExponential:
    def test_peak_is_sqrt_kappa(self):
        assert pulses.exponential_envelope(1.0)(0.0) == pytest.approx(1.0)
        assert pulses.exponential_envelope(4.0)(0.0) == pytest.approx(2.0)
        assert pulses.exponential_envelope(2.0)(0.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_unit_norm_by_quadrature(self):
        env = pulses.exponential_envelope(0.3)
        val, _ = quad(lambda t: env(t) ** 2, 0.0, 40.0 / 0.3)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_decay(self):
        env = pulses.exponential_envelope(2.0)
        assert env(1e3) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing(self):
        env = pulses.exponential_envelope(1.7)
        t = np.linspace(0, 10, 200)
        assert np.all(np.diff(env(t)) < 0)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            pulses.exponential_envelope(0.0)


class TestGaussian:
    def test_symmetry_about_center(self):
        env = pulses.gaussian_envelope(1.0, t0=6.0)
        for delta in (0.3, 1.0, 2.5):
            assert env(6.0 + delta) == pytest.approx(env(6.0 - delta), rel=1e-12)

    def test_raw_prefactor_mass_is_two_pi(self):
        # the literal printed prefactor integrates |f|^2 to 2 pi
        env = pulses.gaussian_envelope(1.0, t0=6.0, paper_literal=True)
        val, _ = quad(lambda t: env(t) ** 2, 0.0, 12.0)
        assert val == pytest.approx(2 * np.pi, rel=1e-6)

    def test_renormalization_constant(self):
        env = pulses.gaussian_envelope(1.0, t0=6.0)
        assert env.c == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-9)

    def test_unit_norm(self):
        env = pulses.gaussian_envelope(1.0, t0=6.0)
        val, _ = quad(lambda t: env(t) ** 2, env.t_start, env.t_end)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_peak_value(self):
        env = pulses.gaussian_envelope(1.0, t0=6.0)
        expected = (8 * np.pi) ** 0.25 / np.sqrt(2 * np.pi)
        assert env(6.0) == pytest.approx(expected, rel=1e-9)

    def test_default_center_clears_origin(self):
        env = pulses.gaussian_envelope(0.5)
        assert env.t_start == pytest.approx(0.0, abs=1e-9)
        assert env(0.0) / env((env.t_start + env.t_end) / 2) < 1e-7

    def test_t0_too_small(self):
        with pytest.raises(ValueError):
            pulses.gaussian_envelope(1.0, t0=0.5)

    def test_monotone_away_from_peak(self):
        env = pulses.gaussian_envelope(2.0, t0=3.0)
        left = np.linspace(env.t_start, 3.0, 100)
        right = np.linspace(3.0, env.t_end, 100)
        assert np.all(np.diff(env(left)) > 0)
        assert np.all(np.diff(env(right)) < 0)


@pytest.mark.parametrize("kappa", np.geomspace(0.01, 10, 7))
def test_exponential_norm_grid(kappa):
    env = pulses.exponential_envelope(kappa)
    assert pulses.squared_norm(env) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("sigma", np.geomspace(0.01, 10, 7))
def test_gaussian_norm_grid(sigma):
    env = pulses.gaussian_envelope(sigma)
    assert pulses.squared_norm(env) == pytest.approx(1.0, abs=1e-6)


class TestTabulated:
    def test_renormalized_on_load(self, tmp_path):
        t = np.linspace(0.0, 10.0, 500)
        f = 3.7 * np.exp(-0.5 * (t - 5.0) ** 2)  # arbitrary un-normalized hump
        path = tmp_path / "pulse.csv"
        with open(path, "w") as fh:
            fh.write("t,f\n")
            for ti, fi in zip(t, f):
                fh.write(f"{ti},{fi}\n")
        env = pulses.load_tabulated_csv(path)
        assert pulses.squared_norm(env) == pytest.approx(1.0, abs=1e-4)

    def test_zero_outside_support(self):
        env = pulses.tabulated_envelope([1.0, 2.0, 3.0], [0.5, 1.0, 0.5])
        assert env(0.5) == 0.0
        assert env(3.5) == 0.0

    def test_bad_input(self):
        with pytest.raises(ValueError):
            pulses.tabulated_envelope([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            pulses.tabulated_envelope([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            pulses.tabulated_envelope([0.0, 1.0, 2.0], [0.0, np.nan, 0.0])
