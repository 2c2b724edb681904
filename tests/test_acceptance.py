"""End-to-end acceptance checks, one per core capability.

Each test prints a single PASS/FAIL line in addition to the usual
assertion; the line is written to the real stdout so it shows up even
under pytest's output capture.
"""

import math

import numpy as np
import pytest

from jpmsim import analytic, meanfield, pulses, rate, sweep
from jpmsim.core import DetectorParams, DriveSpec, omega_from_ghz

OMEGA = omega_from_ghz(5.0)


def make_params(**kw):
    base = dict(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0, gamma_rel=0.0,
                gamma_res=0.0, omega_0=OMEGA)
    base.update(kw)
    return DetectorParams(**base)


@pytest.fixture(autouse=True)
def _real_stdout(capfd):
    # lets report() write through pytest's output capture
    global _capture_disabled
    _capture_disabled = capfd.disabled
    yield


def report(name: str, ok: bool) -> None:
    with _capture_disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, name


def _golden_max_eta(p0: DetectorParams) -> float:
    """200-point log grid bracket + golden-section refinement of the
    stationary efficiency over the coupling rate."""

    def eta(g):
        return rate.efficiency(make_params(
            gamma_tl=g, gamma_0=p0.gamma_0, gamma_1=p0.gamma_1,
            gamma_rel=p0.gamma_rel, gamma_res=p0.gamma_res))

    grid = np.geomspace(1e-3, 1e3, 200)
    vals = [eta(g) for g in grid]
    k = int(np.argmax(vals))
    a = math.log(grid[max(k - 1, 0)])
    b = math.log(grid[min(k + 1, len(grid) - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = eta(math.exp(c)), eta(math.exp(d))
    while d - c > 1e-10:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = eta(math.exp(d))
        else:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = eta(math.exp(c))
    return math.exp(0.5 * (a + b))


def test_01_matching_identity():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        p = make_params(
            gamma_0=rng.uniform(0.0, 0.2),
            gamma_1=rng.uniform(0.1, 3.0),
            gamma_rel=rng.uniform(0.0, 0.1),
            gamma_res=rng.uniform(5.0, 300.0),
        )
        numeric = _golden_max_eta(p)
        closed = rate.matching_gamma_tl(p)
        if abs(numeric / closed - 1.0) > 1e-3:
            ok = False
            break
    report("1 matching identity", ok)


def test_02_unit_efficiency_at_matching():
    p = make_params(gamma_tl=1.0, gamma_0=0.0, gamma_1=1.0,
                    gamma_rel=0.0, gamma_res=100.0)
    report("2 unit efficiency at matching",
           abs(rate.efficiency(p) - 1.0) < 1e-9)


def test_03_nep_reference_value():
    g1 = 1.0
    base = make_params(gamma_0=g1 / 100.0, gamma_1=g1, gamma_rel=3.3e-5,
                       gamma_res=100.0 * g1)
    p = make_params(gamma_tl=rate.matching_gamma_tl(base),
                    gamma_0=base.gamma_0, gamma_1=base.gamma_1,
                    gamma_rel=base.gamma_rel, gamma_res=base.gamma_res)
    val = rate.nep(p)
    report("3 noise-equivalent power", 1e-20 <= val <= 3e-20)


def test_04_continuous_saturation():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10):
        gtl = rng.uniform(0.3, 3.0)
        g1 = rng.uniform(0.3, 3.0)
        p = make_params(gamma_tl=gtl, gamma_1=g1)
        # drive fast enough that the slow decay pole dominates the horizon
        wr_target = 2.0 * p.gamma_tilde
        a2 = np.pi * wr_target**2 / (2.0 * gtl * OMEGA)
        d = DriveSpec.continuous(a2, OMEGA)
        wr = meanfield.rabi_frequency(p, d)
        t_end = 50.0 / min(gtl, g1, wr)
        traj = meanfield.integrate(p, d, t_end=t_end)
        if traj.pm[-1] <= 0.999:
            ok = False
            break
    report("4 continuous-drive saturation", ok)


def test_05_closed_form_vs_rate_ode():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(10):
        p = make_params(gamma_tl=rng.uniform(0.2, 3.0),
                        gamma_1=rng.uniform(0.2, 3.0),
                        gamma_rel=rng.uniform(0.0, 0.1))
        a2 = rng.uniform(0.01, 0.5)
        t_end = 50.0 / p.gamma_tilde
        t, occ = rate.integrate_rate(p, a2 * p.omega_0, t_end)
        p1, pm = rate.closed_form_p1_pm(p, a2, t)
        err = max(np.max(np.abs(p1 - occ[1])), np.max(np.abs(pm - occ[2])))
        if err >= 1e-8:
            ok = False
            break
    report("5 closed form vs rate ODE", ok)


def test_06_dynamic_matching_small_flux():
    t_m = 50.0
    p = make_params()

    def ratio(n_photons):
        a2 = n_photons * 2.0 * np.pi / (OMEGA * t_m)
        d = DriveSpec.continuous(a2, OMEGA)
        res = sweep.optimize_gamma_tl(d, p, t_m)
        return res.gamma_tl / p.gamma_1

    r_small = ratio(0.5)
    ok = 0.95 <= r_small <= 1.05
    ratios = [r_small] + [ratio(n) for n in (1.58, 5.0, 15.8, 50.0)]
    ok = ok and all(b < a for a, b in zip(ratios, ratios[1:]))
    report("6 dynamic matching at small flux", ok)


def test_07_exp_pulse_series_oracle():
    p = make_params()
    a2 = 0.15

    def deviation(kappa):
        traj = meanfield.integrate(p, DriveSpec.exponential(a2, OMEGA, kappa))
        series = analytic.exp_pulse_steady_state(p, a2, kappa, order=5)
        return abs(traj.pm[-1] - series)

    dev_fast = deviation(5.0)
    dev_slow = deviation(0.5)
    report("7 exponential-pulse series oracle",
           dev_fast < 1e-2 and dev_slow > dev_fast)


def test_08_laplace_pole_oracle():
    p = make_params(gamma_tl=0.8, gamma_1=1.2)
    a2 = 0.05
    ps = analytic.continuous_pm_poles(p, a2)
    t_end = 20.0 / p.gamma_tilde
    traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), t_end=t_end)
    sup = np.max(np.abs(ps.reconstruct(traj.times) - traj.pm))
    has_zero_pole = ps.poles[0] == 0.0
    # limit of s * pm(s) as s -> 0 by linear extrapolation from two points
    s1, s2 = 1e-6, 2e-6
    f1 = s1 * analytic.pm_laplace(p, a2, s1)
    f2 = s2 * analytic.pm_laplace(p, a2, s2)
    limit = np.real((s2 * f1 - s1 * f2) / (s2 - s1))
    report("8 Laplace pole oracle",
           sup < 1e-4 and has_zero_pole and abs(limit - 1.0) < 1e-9)


def test_09_invariant_suite():
    ok = True
    # exact conservation in the rate right-hand side
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = rng.uniform(0, 2, size=5)
        p = make_params(gamma_tl=g[0] + 0.01, gamma_0=g[1], gamma_1=g[2],
                        gamma_rel=g[3], gamma_res=g[4])
        occ = rng.dirichlet(np.ones(3))
        if abs(rate.rate_rhs(p, rng.uniform(0, 5), occ).sum()) > 1e-14:
            ok = False
    # mean-field simplex bounds, conservation, monotone pm
    for a2, gtl, g1 in ((0.02, 1.0, 1.0), (1.0, 0.5, 2.0), (5.0, 2.0, 0.5)):
        p = make_params(gamma_tl=gtl, gamma_1=g1)
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA))
        total = traj.p0 + traj.p1 + traj.pm
        if np.max(np.abs(total - 1.0)) > 1e-6:
            ok = False
        for arr in (traj.p0, traj.p1, traj.pm):
            if np.any(arr < -1e-6) or np.any(arr > 1.0 + 1e-6):
                ok = False
        if np.any(np.diff(traj.pm) < -1e-9):
            ok = False
    # pulse normalization across parameter grids
    for kappa in np.geomspace(0.05, 20.0, 6):
        if abs(pulses.squared_norm(pulses.exponential_envelope(kappa)) - 1.0) > 1e-6:
            ok = False
    for sigma in np.geomspace(0.05, 20.0, 6):
        if abs(pulses.squared_norm(pulses.gaussian_envelope(sigma)) - 1.0) > 1e-6:
            ok = False
    report("9 invariant suite", ok)


def test_10_regime_comparison():
    p = make_params()

    def gap_and_crossings(a2, t_end):
        traj = meanfield.integrate(p, DriveSpec.continuous(a2, OMEGA), t_end=t_end, n_samples=2000)
        _, pm_rate = rate.closed_form_p1_pm(p, a2, traj.times)
        gap = traj.pm - pm_rate
        crossings = int(np.sum(np.diff(np.sign(gap[1:])) != 0))
        return float(np.mean(np.abs(gap))), crossings

    # incoherent regime: closed form tracks the mean field closely
    a2_classical = 5.0
    gap_c, _ = gap_and_crossings(a2_classical, 30.0)
    # coherent regime: Rabi oscillations make the mean field cross the
    # monotone rate-equation curve repeatedly
    wr = 5.0
    a2_quantum = np.pi * wr**2 / (2.0 * p.gamma_tl * OMEGA)
    _, crossings_q = gap_and_crossings(a2_quantum, 30.0)
    report("10 regime comparison", gap_c < 0.05 and crossings_q >= 2)
