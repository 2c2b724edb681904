import json
import math
from dataclasses import replace

import numpy as np
import pytest

from jpmsim import rate
from jpmsim.core import DetectorParams, omega_from_ghz

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


class TestRhs:
    def test_frozen_hand_value(self):
        # expanded by hand once and frozen:
        # b = (2/pi) 0.5/1.510033 + gamma_res feeding, N = 2, p = (.3, .5, .2)
        p = make_params(gamma_tl=0.5, gamma_0=0.01, gamma_1=1.0,
                        gamma_rel=0.02, gamma_res=0.3)
        d = rate.rate_rhs(p, 2.0, (0.3, 0.5, 0.2))
        assert d[0] == pytest.approx(0.4002182708977231, rel=1e-13)
        assert d[1] == pytest.approx(-0.843218270897723, rel=1e-13)
        assert d[2] == pytest.approx(0.443, rel=1e-13)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = rng.uniform(0, 2, size=5)
            p = make_params(gamma_tl=g[0] + 0.01, gamma_0=g[1], gamma_1=g[2],
                            gamma_rel=g[3], gamma_res=g[4])
            occ = rng.dirichlet(np.ones(3))
            d = rate.rate_rhs(p, rng.uniform(0, 5), occ)
            assert abs(d.sum()) < 1e-14

    def test_fixed_point_no_drive_no_dark(self):
        p = make_params(gamma_res=0.5)
        assert np.allclose(rate.rate_rhs(p, 0.0, (1.0, 0.0, 0.0)), 0.0)

    def test_negative_flux_rejected(self):
        with pytest.raises(ValueError):
            rate.rate_rhs(make_params(), -1.0, (1.0, 0.0, 0.0))


class TestGenerator:
    def test_null_vector_is_steady_state(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(60):
            g = rng.uniform(0.05, 2, size=5)
            p = make_params(gamma_tl=g[0], gamma_0=g[1], gamma_1=g[2],
                            gamma_rel=g[3], gamma_res=g[4])
            n_in = rng.uniform(0, 5)
            null = np.linalg.svd(rate.generator(p, n_in))[2][-1]
            worst = max(worst, np.max(np.abs(null / null.sum() - rate.steady_state(p, n_in))))
        assert worst < 1e-12

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            g = rng.uniform(0, 2, size=5)
            p = make_params(gamma_tl=g[0] + 0.01, gamma_0=g[1], gamma_1=g[2],
                            gamma_rel=g[3], gamma_res=g[4])
            cols = rate.generator(p, rng.uniform(0, 5)).sum(axis=0)
            assert np.max(np.abs(cols)) < 1e-15

    @pytest.mark.parametrize("n_in", [-1.0, math.nan, math.inf, True, np.array([1.0])])
    def test_bad_flux_rejected(self, n_in):
        p = make_params(gamma_res=1.0)
        for call in (rate.generator, rate.steady_state, rate.build_report,
                     rate.efficiency_finite_flux):
            with pytest.raises(ValueError, match="n_in"):
                call(p, n_in)


class TestClosedForm:
    def test_initial_values(self):
        p = make_params()
        p1, pm = rate.closed_form_p1_pm(p, 0.2, 0.0)
        assert p1 == 0.0
        assert pm == 0.0

    def test_matches_ode(self):
        p = make_params(gamma_tl=0.6, gamma_1=1.4)
        a2 = 0.1
        t_end = 50.0 / p.gamma_tilde
        n_in = a2 * p.omega_0  # flux convention matching the closed form
        t, occ = rate.integrate_rate(p, n_in, t_end)
        p1, pm = rate.closed_form_p1_pm(p, a2, t)
        assert np.max(np.abs(p1 - occ[1])) < 1e-12
        assert np.max(np.abs(pm - occ[2])) < 1e-12

    @pytest.mark.parametrize("t_end", [-5.0, 0.0, math.nan])
    def test_integrate_rejects_t_end_not_above_0(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            rate.integrate_rate(make_params(), 0.5, t_end)

    def test_no_measurement_rate(self):
        # gamma_1 = 0: nothing is ever measured, and p1 still follows the ODE
        p = make_params(gamma_tl=0.6, gamma_1=0.0)
        a2 = 0.1
        t, occ = rate.integrate_rate(p, a2 * p.omega_0, 50.0 / p.gamma_tilde)
        p1, pm = rate.closed_form_p1_pm(p, a2, t)
        assert np.all(pm == 0.0)
        assert np.max(np.abs(p1 - occ[1])) < 1e-8

    def test_all_population_eventually_measured(self):
        # without dark counts or reset every excitation ends in the
        # measured state
        p = make_params(gamma_tl=2.0, gamma_1=0.5)
        _, pm = rate.closed_form_p1_pm(p, 0.05, 1e4)
        assert pm == pytest.approx(1.0, abs=1e-6)

    def test_requires_no_reset(self):
        with pytest.raises(ValueError):
            rate.closed_form_p1_pm(make_params(gamma_res=0.1), 0.1, 1.0)
        with pytest.raises(ValueError):
            rate.closed_form_p1_pm(make_params(gamma_0=0.1), 0.1, 1.0)


class TestSteadyState:
    def test_is_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(0.05, 2, size=5)
            p = make_params(gamma_tl=g[0], gamma_0=g[1], gamma_1=g[2],
                            gamma_rel=g[3], gamma_res=g[4])
            n_in = rng.uniform(0, 3)
            occ = rate.steady_state(p, n_in)
            assert abs(sum(occ) - 1.0) < 1e-12
            assert np.max(np.abs(rate.rate_rhs(p, n_in, occ))) < 1e-10

    def test_dark_rate_formula(self):
        # stationary gamma_0 p0 at zero flux equals
        # gamma_0 / (1 + gamma_0 / gamma_res)
        p = make_params(gamma_0=0.04, gamma_res=0.7)
        p0, _, _ = rate.steady_state(p, 0.0)
        assert p.gamma_0 * p0 == pytest.approx(rate.dark_count_rate(p), abs=1e-12)

    def test_requires_reset(self):
        with pytest.raises(ValueError):
            rate.steady_state(make_params(), 0.1)

    @pytest.mark.parametrize("call,bad,message", [
        (lambda p: rate.closed_form_drive_rate(p, 0.1),
         dict(gamma_tl=0.0, gamma_1=0.0), "gamma_tilde = 0"),
        (rate.dark_count_rate, dict(gamma_0=0.04), "gamma_res > 0"),
    ], ids=["drive-rate-gamma_tilde-0", "dark-rate-no-reset"])
    def test_closed_form_needs_the_rate_it_divides_by(self, call, bad, message):
        with pytest.raises(ValueError, match=message):
            call(make_params(**bad))


class TestEfficiency:
    def test_symmetric_point(self):
        # gamma_tl = 2, gamma_1 = 1, gamma_res -> large: 4*2*1/(3*3) = 8/9
        p = make_params(gamma_tl=2.0, gamma_1=1.0, gamma_res=1e9)
        assert rate.efficiency(p) == pytest.approx(8.0 / 9.0, rel=1e-8)

    def test_zero_coupling(self):
        p = make_params(gamma_tl=0.0, gamma_res=1.0)
        assert rate.efficiency(p) == 0.0

    def test_unity_at_matching_point(self):
        p = make_params(gamma_tl=1.0, gamma_1=1.0, gamma_res=100.0)
        assert rate.efficiency(p) == pytest.approx(1.0, abs=1e-9)

    def test_finite_flux_crosscheck(self):
        # without dark counts the n_in -> 0 limit reproduces the
        # low-excitation formula exactly
        p = make_params(gamma_tl=1.2, gamma_0=0.0, gamma_1=1.0,
                        gamma_rel=0.01, gamma_res=50.0)
        assert rate.efficiency_finite_flux(p, 1e-7) == pytest.approx(
            rate.efficiency(p), rel=1e-4)
        # with a small dark rate the two models differ at order gamma_0/gamma_1
        p = make_params(gamma_tl=1.2, gamma_0=0.001, gamma_1=1.0,
                        gamma_rel=0.01, gamma_res=50.0)
        assert rate.efficiency_finite_flux(p, 1e-7) == pytest.approx(
            rate.efficiency(p), rel=1e-2)

    @pytest.mark.parametrize("n_in", [0.0, -1.0])
    def test_finite_flux_needs_positive_flux(self, n_in):
        with pytest.raises(ValueError, match="^finite-flux efficiency needs n_in > 0$"):
            rate.efficiency_finite_flux(make_params(gamma_res=1.0), n_in)

    def test_finite_flux_decreases_with_saturation(self):
        p = make_params(gamma_tl=1.0, gamma_1=1.0, gamma_res=50.0,
                        gamma_0=0.001)
        vals = [rate.efficiency_finite_flux(p, n) for n in (1e-6, 0.1, 1.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_unimodal_in_coupling(self):
        p0 = make_params(gamma_0=0.01, gamma_1=1.0, gamma_rel=0.02,
                         gamma_res=100.0)
        grid = np.geomspace(1e-3, 1e3, 200)
        vals = [rate.efficiency(make_params(
            gamma_tl=g, gamma_0=p0.gamma_0, gamma_1=p0.gamma_1,
            gamma_rel=p0.gamma_rel, gamma_res=p0.gamma_res)) for g in grid]
        d = np.sign(np.diff(vals))
        # rises then falls: exactly one sign change
        changes = np.sum(d[1:] != d[:-1])
        assert changes == 1

    def test_reset_saturation(self):
        # efficiency varies < 1% once the reset rate is an order of magnitude
        # above gamma_1
        def eta(gres):
            return rate.efficiency(make_params(
                gamma_tl=1.0, gamma_0=0.01, gamma_1=1.0, gamma_res=gres))
        assert abs(eta(100.0) - eta(10.0)) / eta(100.0) < 0.01


class TestMatching:
    def test_known_value(self):
        p = make_params(gamma_0=0.01, gamma_1=1.0)
        assert rate.matching_gamma_tl(p) == pytest.approx(
            math.sqrt(1.0 * 1.01), rel=1e-12)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = make_params(gamma_0=rng.uniform(0, 0.1),
                            gamma_1=rng.uniform(0.2, 2),
                            gamma_rel=rng.uniform(0, 0.05),
                            gamma_res=100.0)
            star = rate.matching_gamma_tl(p)
            grid = np.geomspace(star / 10, star * 10, 400)
            vals = [rate.efficiency(make_params(
                gamma_tl=g, gamma_0=p.gamma_0, gamma_1=p.gamma_1,
                gamma_rel=p.gamma_rel, gamma_res=p.gamma_res)) for g in grid]
            best = grid[int(np.argmax(vals))]
            assert star == pytest.approx(best, rel=0.05)

    def test_eta_loss_unity_at_matching(self):
        p = make_params(gamma_tl=1.0, gamma_1=1.0)
        assert rate.eta_loss(p) == pytest.approx(1.0, abs=1e-12)
        assert rate.eta_max(p) == pytest.approx(1.0, abs=1e-12)

    def test_eta_loss_below_one_off_matching(self):
        p = make_params(gamma_tl=7.0, gamma_1=1.0)
        assert rate.eta_loss(p) < 1.0


class TestNep:
    def test_reference_operating_point(self):
        g1 = 1.0
        p = make_params(gamma_0=0.01, gamma_1=g1, gamma_rel=3.3e-5,
                        gamma_res=100.0 * g1)
        p = make_params(gamma_tl=rate.matching_gamma_tl(p), gamma_0=0.01,
                        gamma_1=g1, gamma_rel=3.3e-5, gamma_res=100.0 * g1)
        val = rate.nep(p)
        assert 1e-20 < val < 3e-20

    def test_zero_without_dark_channel(self):
        assert rate.nep(make_params(gamma_res=1.0)) == 0.0

    def test_infinite_when_blind(self):
        p = make_params(gamma_tl=0.0, gamma_0=0.01, gamma_res=1.0)
        assert rate.nep(p) == math.inf


class TestReport:
    def test_json_round_trip(self):
        p = make_params(gamma_tl=1.0, gamma_0=0.01, gamma_1=1.0,
                        gamma_rel=3.3e-5, gamma_res=100.0)
        rep = rate.build_report(p, n_in=0.1)
        data = json.loads(rep.to_json())
        assert data["eta"] == pytest.approx(rep.eta)
        assert set(data["units"]) == {
            "eta", "eta_loss", "eta_det", "gamma_tl_max",
            "gamma_dark", "gamma_bright", "nep",
        }
        assert data["units"]["nep"] == "W/sqrt(Hz)"

    def test_factorization(self):
        p = make_params(gamma_tl=2.3, gamma_0=0.005, gamma_1=0.9,
                        gamma_rel=0.01, gamma_res=40.0)
        rep = rate.build_report(p)
        assert rep.eta == pytest.approx(rep.eta_loss * rep.eta_det, rel=1e-9)

    def test_above_unity_flag(self):
        p = make_params(gamma_tl=1.0, gamma_0=0.01, gamma_1=1.0,
                        gamma_rel=3.3e-5, gamma_res=100.0)
        rep = rate.build_report(p)
        assert rep.eta > 1.0
        assert rep.eta_above_unity

    def test_dark_rate_zero_flux(self):
        p = make_params(gamma_0=0.02, gamma_res=1.0)
        rep = rate.build_report(p)
        assert rep.gamma_dark == pytest.approx(rate.dark_count_rate(p), rel=1e-10)
        assert rep.gamma_bright == pytest.approx(0.0, abs=1e-12)



def scalar_reference(p, n_in):
    """The closed forms as written before they broadcast: Python floats,
    ``** 2`` and math.sqrt."""
    b = (2.0 / math.pi) * p.gamma_tl / p.gamma_tilde

    def steady(n):
        bn = b * n
        c = bn / (bn + p.gamma_tl + p.gamma_1 + p.gamma_rel)
        p0 = 1.0 / (1.0 + c + (p.gamma_0 + p.gamma_1 * c) / p.gamma_res)
        return p0, c * p0, 1.0 - p0 - c * p0

    def counts(n):
        p0, p1, _ = steady(n)
        count = p.gamma_1 * p1 + p.gamma_0 * p0
        dark = p.gamma_0 * steady(0.0)[0]
        return count, dark, count - dark

    s = p.gamma_0 + p.gamma_res
    eta = 4.0 * p.gamma_tl * p.gamma_res * (p.gamma_1 * s + p.gamma_0 * (p.gamma_1 + p.gamma_res)) / (
        (p.gamma_tl + p.gamma_1 + p.gamma_rel)
        * (p.gamma_tl + p.gamma_1 + p.gamma_0 + p.gamma_rel) * s ** 2)
    a = p.gamma_1 + p.gamma_rel
    eta_max = 4.0 * (p.gamma_0 + p.gamma_1) / (p.gamma_0 + 2.0 * (a + math.sqrt(a * (p.gamma_0 + a))))
    fast = 4.0 * p.gamma_tl * (p.gamma_0 + p.gamma_1) / (
        (p.gamma_tl + p.gamma_1 + p.gamma_rel) * (p.gamma_tl + p.gamma_1 + p.gamma_0 + p.gamma_rel))
    return {
        "beta_coupling": b, "steady_state": steady(n_in), "count_rates": counts(n_in),
        "efficiency": eta, "efficiency_finite_flux": counts(2.0 * math.pi * n_in)[2] / n_in,
        "matching_gamma_tl": math.sqrt(a * (a + p.gamma_0)), "eta_max": eta_max,
        "eta_loss": fast / eta_max,
    }


def seeded_cases(n):
    rng = np.random.default_rng(2024)
    for _ in range(n):
        g = [float(x) for x in 10.0 ** rng.uniform(-3, 2, size=5)]
        yield make_params(gamma_tl=g[0], gamma_0=g[1], gamma_1=g[2], gamma_rel=g[3],
                          gamma_res=g[4]), float(10.0 ** rng.uniform(-3, 1))


class TestBroadcast:
    """The closed forms take array-valued rates; a scalar call is unchanged."""

    CALLS = {
        "beta_coupling": lambda p, n: rate.beta_coupling(p),
        "steady_state": rate.steady_state,
        "count_rates": rate.count_rates,
        "efficiency": lambda p, n: rate.efficiency(p),
        "efficiency_finite_flux": rate.efficiency_finite_flux,
        "matching_gamma_tl": lambda p, n: rate.matching_gamma_tl(p),
        "eta_max": lambda p, n: rate.eta_max(p),
        "eta_loss": lambda p, n: rate.eta_loss(p),
    }

    def test_scalar_values_unchanged(self):
        # s * s for libm's pow(s, 2) may move the denominator of efficiency
        # by one unit in the last place, and its quotient by up to two (2 of
        # 20,000 random inputs); every other value is identical
        for p, n_in in seeded_cases(200):
            ref = scalar_reference(p, n_in)
            for name, call in self.CALLS.items():
                got, want = np.atleast_1d(call(p, n_in)), np.atleast_1d(ref[name])
                ulps = 2 if name == "efficiency" else 0
                assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))), name

    def test_arrays_match_scalar_calls(self):
        cases = list(seeded_cases(50))
        fields = ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res")
        arrays = make_params()
        arrays.__dict__.update({f: np.array([getattr(p, f) for p, _ in cases]) for f in fields})
        for name, call in self.CALLS.items():
            got = call(arrays, 0.3)
            for k, (p, _) in enumerate(cases):
                want = call(p, 0.3)
                if isinstance(want, tuple):
                    assert tuple(g[k] for g in got) == want, name
                else:
                    assert got[k] == want, name

    @pytest.mark.parametrize("call,bad", [
        (rate.beta_coupling, dict(gamma_tl=0.0, gamma_0=0.0, gamma_1=0.0)),
        (rate.efficiency, dict(gamma_0=0.01, gamma_res=1e200)),
        (rate.eta_loss, dict(gamma_0=0.0, gamma_1=0.0, gamma_rel=1.0)),
        (lambda p: rate.steady_state(p, 0.5)[2], dict(gamma_res=0.0)),
        (lambda p: rate.steady_state(p, 0.5)[2], dict(gamma_tl=0.0, gamma_1=0.0, gamma_0=0.1)),
        (rate.matching_gamma_tl, dict(gamma_rel=1e300)),
        (rate.eta_max, dict(gamma_rel=1e300)),
    ], ids=["gamma_tilde-0", "overflow", "eta_max-0", "no-reset", "no-decay",
            "matching-overflow", "eta_max-overflow"])
    def test_undefined_is_an_error_alone_and_nan_in_an_array(self, call, bad):
        good = make_params(gamma_0=0.01, gamma_res=1.0)
        bad = replace(good, **bad)
        with pytest.raises(ValueError):
            call(bad)
        both = make_params()
        both.__dict__.update({f: np.array([getattr(good, f), getattr(bad, f)])
                              for f in ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res")})
        got = call(both)
        assert got[0] == call(good)
        assert np.isnan(got[1])
