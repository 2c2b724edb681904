import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from jpmsim import pulses
from jpmsim.core import DriveSpec, omega_from_ghz


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

    @pytest.mark.parametrize("kappa", [5e-324, np.float64(5e-324)])
    def test_support_that_overflows_names_kappa(self, kappa):
        # 40/kappa is inf: an error, not a warning and an infinite support
        with pytest.raises(ValueError, match="kappa = 5e-324 too small"):
            pulses.exponential_envelope(kappa)


class TestGaussian:
    @pytest.mark.parametrize("sigma", [5e-324, np.float64(5e-324)])
    def test_support_that_overflows_names_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma = 5e-324 too small"):
            pulses.gaussian_envelope(sigma)

    @pytest.mark.parametrize("sigma", [1e300, np.float64(1e300)])
    def test_square_that_overflows_names_sigma(self, sigma):
        # sigma ** 2 raises OverflowError for a Python float: an error naming sigma
        with pytest.raises(ValueError, match=r"sigma = 1e\+300 too large"):
            pulses.gaussian_envelope(sigma)

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
        env = pulses.tabulated_envelope(*pulses.load_tabulated_csv(path))
        assert pulses.squared_norm(env) == pytest.approx(1.0, abs=1e-4)

    def test_loaded_as_written(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("# a comment\ntime,amp\n\n0,0\n0.1,3e-1\n# a note\n\n2.5,0\n")
        assert pulses.load_tabulated_csv(path) == ([0.0, 0.1, 2.5], [0.0, 0.3, 0.0])

    @pytest.mark.parametrize("row", ["1.5O,5", "2,x", "2", ",5"])
    def test_malformed_row_after_the_first_sample_names_its_line(self, tmp_path, row):
        path = tmp_path / "pulse.csv"
        path.write_text(f"t,f\n0,0\n1,1\n{row}\n3,0\n")
        with pytest.raises(ValueError, match="pulse.csv line 4: need two numbers"):
            pulses.load_tabulated_csv(path)

    def test_zero_outside_support(self):
        env = pulses.tabulated_envelope([1.0, 2.0, 3.0], [0.5, 1.0, 0.5])
        assert env(0.5) == 0.0
        assert env(3.5) == 0.0

    def test_ramp_norm_is_exact(self):
        # f^2 integrates to 2/3 + 5/3 over the two intervals of the ramp
        c = pulses.tabulated_envelope([0.0, 2.0, 7.0], [0.0, 1.0, 0.0]).c
        assert abs(c - math.sqrt(3.0 / 7.0)) <= math.ulp(c)

    def test_spike_table_has_unit_norm_over_its_knots(self):
        # a sine-squared hump with one sample raised 40-fold, narrower than
        # any uniform grid coarser than its knots
        t = np.linspace(0.0, 20.0, 4001)
        f = np.sin(np.pi * t / 20.0) ** 2
        f[1000] *= 40.0
        g = pulses.tabulated_envelope(t, f).c * f
        mass = sum((b - a) * (x * x + x * y + y * y) / 3.0
                   for a, b, x, y in zip(t[:-1], t[1:], g[:-1], g[1:]))
        assert abs(mass - 1.0) <= 1e-14

    def test_norm_does_not_depend_on_the_scale(self):
        # the squares of 1e200 overflow and those of 1e-200 underflow; the knot
        # sum runs over f / max|f|, so every finite multiple is the same drive
        t, f = np.array([0.0, 1.0, 2.5, 3.0]), np.array([0.0, 1.0, 0.4, 0.0])
        x = np.linspace(-0.5, 3.5, 41)
        want = pulses.tabulated_envelope(t, f)(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e200, 1e-200):
                np.testing.assert_allclose(pulses.tabulated_envelope(t, scale * f)(x), want,
                                           rtol=1e-15, atol=0.0)

    def test_bad_input(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            pulses.tabulated_envelope([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="zero norm"):
            pulses.tabulated_envelope([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="at least 2 samples"):
            pulses.tabulated_envelope([[0.0, 1.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            pulses.tabulated_envelope([0.0, 1.0, 2.0], [0.0, np.nan, 0.0])

    @pytest.mark.parametrize("times", [[-1e308, 1e308], [-1e308, 0.0, 1e308]],
                             ids=["spacing", "knot-sum"])
    def test_span_that_overflows_names_the_sample_times(self, times):
        # the first table's spacing overflows; the second's spacings are
        # finite, but their knot sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"sample times -1e\+308 to 1e\+308"):
                pulses.tabulated_envelope(times, [1.0] * len(times))


def test_no_envelope_for_a_continuous_drive():
    drive = DriveSpec.continuous(0.1, omega_from_ghz(5.0))
    with pytest.raises(ValueError, match="no envelope for drive kind"):
        pulses.envelope_for(drive)


FLOAT_PATH_ENVELOPES = {
    "exp": lambda: pulses.exponential_envelope(1.7),
    "gauss": lambda: pulses.gaussian_envelope(0.8),
    "gauss-paper-literal": lambda: pulses.gaussian_envelope(2.5, t0=4.0, paper_literal=True),
    "table": lambda: pulses.tabulated_envelope([0.5, 1.5, 3.0, 4.0], [0.0, 1.0, 0.6, 0.0]),
}


class TestFloatPath:
    """Each shape is one formula of a Python float, which is what odeint passes;
    an array is evaluated element by element."""

    @pytest.mark.parametrize("name", list(FLOAT_PATH_ENVELOPES))
    def test_agrees_with_the_array_path(self, name):
        env = FLOAT_PATH_ENVELOPES[name]()
        span = env.t_end - env.t_start
        t = np.linspace(env.t_start - 0.1 * span, env.t_end + 0.1 * span, 997)
        array = env(t)
        scalar = [env(float(x)) for x in t]
        assert all(type(x) is float for x in scalar)
        assert np.array_equal(array, scalar)
        assert array.max() > 0.5

    @pytest.mark.parametrize("name,t", [
        ("exp", -1e-300), ("exp", -1.0), ("exp", -1e300),
        ("gauss", -1e200), ("gauss", 1e200), ("gauss-paper-literal", 4.0 + 1e200),
        ("table", 0.4), ("table", 4.1), ("table", -1e300), ("table", 1e300),
    ])
    def test_zero_outside_without_error_or_warning(self, name, t):
        env = FLOAT_PATH_ENVELOPES[name]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env(t) == 0.0
            assert np.array_equal(env(np.array([t])), [0.0])
