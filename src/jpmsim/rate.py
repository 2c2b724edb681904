"""Incoherent rate-equation model: dynamics, steady states, efficiency, NEP.

The fully incoherent closure replaces sigma_z by its expectation value and
yields classical occupation dynamics

    dp0/dt = -(b N + gamma_0) p0 + (b N + gamma_tl + gamma_rel) p1 + gamma_res pm
    dp1/dt =  b N p0 - (b N + gamma_tl + gamma_1 + gamma_rel) p1
    dpm/dt =  gamma_0 p0 + gamma_1 p1 - gamma_res pm

with b = (2/pi) gamma_tl / gamma_tilde and incoming photon flux N, that is
d(p0, p1, pm)/dt = G p with the constant 3x3 matrix of :func:`generator`.
A trajectory is propagated exactly with the matrix exponential of G.
This model applies to continuous drive only.

The stationary closed forms broadcast over array-valued rates, so a sweep
evaluates its whole grid in one call. An element without a finite value is
NaN there; with scalar rates the call raises ValueError instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import TWO_PI, DetectorParams, _require_finite, strict_json
from .meanfield import propagate

HBAR_SI = 1.054571817e-34  # J s
PER_NS_TO_PER_S = 1e9


def _finite(x, message: str):
    """``x`` with NaN in every element that is not finite, i.e. has no value.
    A scalar that is not finite raises ValueError(message) instead."""
    if isinstance(x, np.ndarray):
        return np.where(np.isfinite(x), x, np.nan)
    if not math.isfinite(x):
        raise ValueError(message)
    return x


@np.errstate(all="ignore")
def beta_coupling(params: DetectorParams) -> float:
    """Excitation efficiency b = (2/pi) gamma_tl / gamma_tilde (< 1)."""
    b = np.divide((2.0 / np.pi) * params.gamma_tl, params.gamma_tilde)
    return _finite(b, "gamma_tilde = 0: no decay channels defined")


def generator(params: DetectorParams, n_in: float) -> np.ndarray:
    """Generator G of the rate equations, d(p0, p1, pm)/dt = G p, under flux
    n_in [photons/ns]. Each column sums to zero."""
    _require_finite("n_in", n_in, 0.0)
    p = params
    bn = beta_coupling(p) * n_in
    return np.array([[-(bn + p.gamma_0), bn + p.gamma_tl + p.gamma_rel, p.gamma_res],
                     [bn, -(bn + p.gamma_tl + p.gamma_1 + p.gamma_rel), 0.0],
                     [p.gamma_0, p.gamma_1, -p.gamma_res]])


def rate_rhs(params: DetectorParams, n_in: float, p) -> np.ndarray:
    """Time derivative G p of (p0, p1, pm) under flux n_in [photons/ns].

    The three components sum to zero identically.
    """
    return generator(params, n_in) @ p


def integrate_rate(params: DetectorParams, n_in: float, t_end: float):
    """Propagate the rate equations exactly from (1, 0, 0): one step matrix
    expm(G dt) applied over the sample grid (:func:`meanfield.propagate`).

    Returns (times, p) with p of shape (3, 400), sampled uniformly on [0, t_end].
    """
    t_eval = np.linspace(0.0, t_end, 400)
    return t_eval, propagate(generator(params, n_in), [1.0, 0.0, 0.0], t_eval)


def closed_form_drive_rate(params: DetectorParams, alpha_sq: float) -> float:
    """Ground-to-excited pumping rate implied by the closed-form solution:
    w = 4 gamma_tl * (alpha_sq omega_0 / 2 pi) / gamma_tilde.

    This equals beta_coupling * n_in with n_in = alpha_sq * omega_0 (the
    photon-number convention without the 2 pi); use that flux when comparing
    the closed form against :func:`rate_rhs`.
    """
    gt = params.gamma_tilde
    if gt == 0:
        raise ValueError("gamma_tilde = 0")
    omega_flux = alpha_sq * params.omega_0 / TWO_PI
    return 4.0 * params.gamma_tl * omega_flux / gt


def closed_form_p1_pm(params: DetectorParams, alpha_sq: float, t):
    """Closed-form (p1(t), pm(t)) for a single measurement event.

    Requires gamma_res = 0 and gamma_0 = 0 and the initial state (1, 0, 0):

        p1(t) = (w/G) e^(-b t) sinh(G t)
        pm(t) = [G - e^(-b t)(G cosh(G t) + b sinh(G t))] / G

    with w the pumping rate, b = w + gamma_tilde/2, G = sqrt(b^2 - w gamma_1).
    The pm prefactor gamma_1 (w/G) / (b^2 - G^2) is 1/G because
    b^2 - G^2 = w gamma_1; written so, gamma_1 = 0 gives pm = 0, not 0/0.
    """
    if params.gamma_res != 0.0:
        raise ValueError("closed form requires gamma_res = 0; use steady_state otherwise")
    if params.gamma_0 != 0.0:
        raise ValueError("closed form requires gamma_0 = 0")
    t = np.asarray(t, dtype=float)
    w = closed_form_drive_rate(params, alpha_sq)  # raises for gamma_tilde = 0
    b = w + 0.5 * params.gamma_tilde
    g = np.sqrt(b * b - w * params.gamma_1)
    if w == 0.0:
        zero = np.zeros_like(t)
        return zero, zero
    k = w / g
    # e^(-bt) sinh/cosh(gt) written with non-positive exponents (g < b)
    # so large t cannot overflow
    e_minus = np.exp((g - b) * t)
    e_plus = np.exp(-(g + b) * t)
    p1 = 0.5 * k * (e_minus - e_plus)
    pm = (g - 0.5 * (g + b) * e_minus - 0.5 * (g - b) * e_plus) / g
    return p1, pm


@np.errstate(all="ignore")
def steady_state(params: DetectorParams, n_in: float):
    """Stationary (p0, p1, pm) of the rate equations; needs gamma_res > 0.

    Exact fixed point of :func:`rate_rhs`: eliminating the derivatives gives
    p1 = c p0 with c = bN / (bN + gamma_tl + gamma_1 + gamma_rel) and
    pm = (gamma_0 + gamma_1 c) p0 / gamma_res, closed by normalization.
    """
    _require_finite("n_in", n_in, 0.0)
    p = params
    bn = beta_coupling(p) * n_in
    c = np.divide(bn, bn + p.gamma_tl + p.gamma_1 + p.gamma_rel)
    # without reset there is no stationary state: NaN, not the pm = 1 of 1/0
    reset = (p.gamma_0 + p.gamma_1 * c) / np.where(p.gamma_res > 0, p.gamma_res, np.nan)
    p0 = 1.0 / (1.0 + c + reset)
    p1 = c * p0
    return p0, p1, _finite(1.0 - p0 - p1, "stationary formulas require gamma_res > 0 and "
                           "gamma_tl + gamma_1 + gamma_rel > 0")


@np.errstate(all="ignore")
def efficiency(params: DetectorParams) -> float:
    """Low-excitation detection efficiency.

    eta = 4 g_tl g_res [g_1(g_0+g_res) + g_0(g_1+g_res)]
          / [(g_tl+g_1+g_rel)(g_tl+g_1+g_0+g_rel)(g_0+g_res)^2]

    May marginally exceed 1 when dark counts are present; the value is
    reported unclamped.
    """
    p = params
    s = p.gamma_0 + p.gamma_res
    num = 4.0 * p.gamma_tl * p.gamma_res * (p.gamma_1 * s + p.gamma_0 * (p.gamma_1 + p.gamma_res))
    denom = (p.gamma_tl + p.gamma_1 + p.gamma_rel) * (
        p.gamma_tl + p.gamma_1 + p.gamma_0 + p.gamma_rel) * (s * s)
    return _finite(np.divide(num, denom), "efficiency undefined: zero denominator or not finite")


def efficiency_finite_flux(params: DetectorParams, n_in: float) -> float:
    """Efficiency at finite photon flux from the stationary occupations,
    (Gamma_count - Gamma_dark) / n_in. Cross-check for :func:`efficiency`.

    ``n_in`` is the detected-photon flux [photons/ns]. The rate-equation
    flux variable counts field quanta per radian of carrier phase and is
    2 pi times larger (same convention gap as in
    :func:`closed_form_drive_rate`), so the occupations are evaluated at
    ``2 pi n_in``. With this scaling the n_in -> 0 limit reproduces
    :func:`efficiency`.
    """
    _require_finite("n_in", n_in, 0.0, strict=True,
                    message="finite-flux efficiency needs n_in > 0")
    _, dark, bright = count_rates(params, TWO_PI * n_in)
    return bright / n_in


def matching_gamma_tl(params: DetectorParams) -> float:
    """Coupling rate maximizing the efficiency (general matching condition):
    sqrt((gamma_1 + gamma_rel)(gamma_1 + gamma_rel + gamma_0))."""
    a = params.gamma_1 + params.gamma_rel
    return np.sqrt(a * (a + params.gamma_0))


@np.errstate(all="ignore")
def eta_max(params: DetectorParams) -> float:
    """Efficiency at the matching point in the fast-reset regime
    (gamma_res >= ~10 gamma_1):

    4(g_0+g_1) / [g_0 + 2(g_1+g_rel + sqrt((g_1+g_rel)(g_0+g_1+g_rel)))]
    """
    p = params
    a = p.gamma_1 + p.gamma_rel
    denom = p.gamma_0 + 2.0 * (a + np.sqrt(a * (p.gamma_0 + a)))
    eta = np.divide(4.0 * (p.gamma_0 + p.gamma_1), denom)
    return _finite(eta, "eta_max undefined: all rates zero")


@np.errstate(all="ignore")
def _efficiency_fast_reset(params: DetectorParams) -> float:
    # gamma_res -> infinity limit of efficiency(); removes the reset dependence
    p = params
    denom = (p.gamma_tl + p.gamma_1 + p.gamma_rel) * (
        p.gamma_tl + p.gamma_1 + p.gamma_0 + p.gamma_rel)
    eta = np.divide(4.0 * p.gamma_tl * (p.gamma_0 + p.gamma_1), denom)
    return _finite(eta, "efficiency undefined: zero denominator or not finite")


@np.errstate(all="ignore")
def eta_loss(params: DetectorParams) -> float:
    """Coupling-loss efficiency: the fast-reset efficiency divided by the
    detector efficiency eta_max. Equals 1 at the matching point when
    gamma_0 = gamma_rel = 0."""
    loss = np.divide(_efficiency_fast_reset(params), eta_max(params))
    return _finite(loss, "eta_loss undefined: eta_max = 0 (gamma_0 = gamma_1 = 0)")


def count_rates(params: DetectorParams, n_in: float):
    """(Gamma_count, Gamma_dark, Gamma_bright) at flux n_in [1/ns each]."""
    p0, p1, _ = steady_state(params, n_in)
    p0_dark, _, _ = steady_state(params, 0.0)
    count = params.gamma_1 * p1 + params.gamma_0 * p0
    dark = params.gamma_0 * p0_dark
    return count, dark, count - dark


def dark_count_rate(params: DetectorParams) -> float:
    """Gamma_dark = gamma_0 / (1 + gamma_0 tau_dead) with tau_dead = 1/gamma_res."""
    if params.gamma_res <= 0:
        raise ValueError("dark count formula requires gamma_res > 0")
    return params.gamma_0 / (1.0 + params.gamma_0 / params.gamma_res)


def nep(params: DetectorParams) -> float:
    """Noise-equivalent power (hbar omega_0 / eta) sqrt(2 gamma_0) in W/sqrt(Hz).

    Internal rad/ns and 1/ns are converted to SI. Returns 0 for gamma_0 = 0
    and +inf when the efficiency vanishes with gamma_0 > 0.
    """
    if params.gamma_0 == 0.0:
        return 0.0
    eta = efficiency(params)
    omega_si = params.omega_0 * PER_NS_TO_PER_S
    gamma0_si = params.gamma_0 * PER_NS_TO_PER_S
    if eta <= 0.0:
        return math.inf
    return HBAR_SI * omega_si / eta * math.sqrt(2.0 * gamma0_si)


@dataclass(frozen=True)
class EfficiencyReport:
    """Efficiency figures of merit for one parameter set.

    eta = eta_loss * eta_det holds by construction; eta_above_unity flags
    the known model artifact where dark counts push the printed efficiency
    marginally above one.
    """

    eta: float
    eta_loss: float
    eta_det: float
    gamma_tl_max: float  # 1/ns
    gamma_dark: float  # 1/ns
    gamma_bright: float  # 1/ns
    nep: float  # W/sqrt(Hz)
    eta_above_unity: bool

    def to_json(self) -> str:
        data = asdict(self)
        data["units"] = {
            "eta": "dimensionless",
            "eta_loss": "dimensionless",
            "eta_det": "dimensionless",
            "gamma_tl_max": "1/ns",
            "gamma_dark": "1/ns",
            "gamma_bright": "1/ns",
            "nep": "W/sqrt(Hz)",
        }
        return strict_json(data, 2)


def build_report(params: DetectorParams, n_in: float = 0.0) -> EfficiencyReport:
    """Assemble the efficiency report; count rates evaluated at flux n_in."""
    _require_finite("n_in", n_in, 0.0)
    det = eta_max(params)
    loss = eta_loss(params)
    eta = loss * det
    if params.gamma_res > 0:
        _, dark, bright = count_rates(params, n_in)
    else:
        dark, bright = 0.0, 0.0
    return EfficiencyReport(
        eta=eta,
        eta_loss=loss,
        eta_det=det,
        gamma_tl_max=matching_gamma_tl(params),
        gamma_dark=dark,
        gamma_bright=bright,
        nep=nep(params),
        eta_above_unity=bool(eta > 1.0),
    )
