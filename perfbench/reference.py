"""Independent references the benchmark checks jpmsim's answers against.

Nothing here calls jpmsim's integrator, envelopes or rate formulas. The
mean-field equations are integrated with DOP853 at rtol 1e-12 using pulse
shapes normalized analytically, restarting the solver at every kink of the
pulse so each segment is smooth. Rate-model steady states come from a linear
solve of the 3x3 generator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

REF_RTOL = 1e-12
REF_ATOL = 1e-14


class Pulse:
    """A unit-norm pulse envelope f(t) plus the times where it has kinks."""

    def __init__(self, f, kinks=()):
        self.f = f
        self.kinks = tuple(kinks)


def gaussian_pulse(sigma: float) -> Pulse:
    """Unit-norm Gaussian centred six widths after t = 0 (jpmsim's default t0)."""
    t0 = 6.0 / (sigma * math.sqrt(2.0))
    amp = (2.0 * sigma**2 / math.pi) ** 0.25
    return Pulse(lambda t: amp * math.exp(-(sigma**2) * (t - t0) ** 2))


def exponential_pulse(kappa: float) -> Pulse:
    """f(t) = sqrt(kappa) exp(-kappa t / 2) for t >= 0."""
    root = math.sqrt(kappa)
    return Pulse(lambda t: root * math.exp(-0.5 * kappa * t) if t >= 0.0 else 0.0)


def trapezoid_pulse(t_rise: float, t_fall: float, t_total: float) -> Pulse:
    """Linear rise on [0, t_rise], flat top, linear fall on [t_fall, t_total].

    The norm is exact: each ramp contributes 1/3 of its length, the top its
    full length.
    """
    height = 1.0 / math.sqrt(t_rise / 3.0 + (t_fall - t_rise) + (t_total - t_fall) / 3.0)

    def f(t):
        if t <= 0.0 or t >= t_total:
            return 0.0
        if t < t_rise:
            return height * t / t_rise
        if t <= t_fall:
            return height
        return height * (t_total - t) / (t_total - t_fall)

    return Pulse(f, kinks=(t_rise, t_fall, t_total))


def trapezoid_samples(t_rise: float, t_fall: float, t_total: float, n: int):
    """(t, f) samples of the un-normalized trapezoid on n uniform points."""
    t = np.linspace(0.0, t_total, n)
    f = np.interp(t, [0.0, t_rise, t_fall, t_total], [0.0, 1.0, 1.0, 0.0])
    return t, f


def meanfield_pm(gamma_tl: float, gamma_1: float, alpha_sq: float, pulse: Pulse, t_end: float) -> float:
    """pm(t_end) of the lossless mean-field equations under a pulse drive.

        dv/dt  = -(gt/2) v + wr(t) (p0 - p1)
        dp0/dt =  gamma_tl p1 - wr(t) v / 2
        dp1/dt = -gt p1 + wr(t) v / 2
        dpm/dt =  gamma_1 p1

    with gt = gamma_tl + gamma_1 and wr(t) = sqrt(2 alpha_sq gamma_tl / pi) f(t).
    """
    gt = gamma_tl + gamma_1
    pref = math.sqrt(2.0 * alpha_sq * gamma_tl / math.pi)
    f = pulse.f

    def rhs(t, y):
        v, p0, p1, _ = y
        wr = pref * f(t)
        return [-0.5 * gt * v + wr * (p0 - p1), gamma_tl * p1 - 0.5 * wr * v,
                -gt * p1 + 0.5 * wr * v, gamma_1 * p1]

    y = np.array([0.0, 1.0, 0.0, 0.0])
    bounds = [0.0] + [k for k in pulse.kinks if 0.0 < k < t_end] + [t_end]
    for a, b in zip(bounds, bounds[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    return float(y[3])


def rate_generator(gamma_tl, gamma_0, gamma_1, gamma_rel, gamma_res, flux) -> np.ndarray:
    """Generator Q of the incoherent model, d(p0, p1, pm)/dt = Q p."""
    bn = (2.0 / math.pi) * gamma_tl / (gamma_tl + gamma_0 + gamma_1 + gamma_rel) * flux
    return np.array([
        [-(bn + gamma_0), bn + gamma_tl + gamma_rel, gamma_res],
        [bn, -(bn + gamma_tl + gamma_1 + gamma_rel), 0.0],
        [gamma_0, gamma_1, -gamma_res],
    ])


def rate_stationary(rates, flux: float) -> np.ndarray:
    """Normalized null vector of the generator: the stationary (p0, p1, pm).

    ``rates`` is (gamma_tl, gamma_0, gamma_1, gamma_rel, gamma_res). The rows
    of Q sum to zero column-wise, so one row is replaced by normalization.
    """
    a = rate_generator(*rates, flux)
    a[2, :] = 1.0
    return np.linalg.solve(a, [0.0, 0.0, 1.0])


def eta_finite_flux(rates, n_in: float) -> float:
    """(count rate - dark rate) / n_in at rate-model flux 2 pi n_in."""
    _, gamma_0, gamma_1, _, _ = rates
    p = rate_stationary(rates, 2.0 * math.pi * n_in)
    dark = rate_stationary(rates, 0.0)
    return (gamma_1 * p[1] + gamma_0 * p[0] - gamma_0 * dark[0]) / n_in
