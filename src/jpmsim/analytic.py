"""Laplace-domain oracles for the mean-field dynamics.

Two independent reconstructions that cross-check the ODE integrator:

* Continuous drive: the Laplace image of pm has a pole at s = 0 plus the
  three roots of a cubic; the time signal is recovered from residues.
* Exponentially damped pulse: the stationary measurement probability is a
  leading term minus a memory-kernel series built from the time derivatives
  of pm at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DetectorParams, _require_finite

#: Largest error of PoleSet.reconstruct that continuous_pm_poles accepts.
POLE_TOL = 1e-8
#: Near a double root of the cubic, residues of size R cancel: with the two
#: closest roots sep apart and scale the largest |root|, the reconstruction
#: misses the exact solution by up to ERROR_GAIN * eps * R * scale / sep.
#: Fitted against expm from 1e-8 to 1e-3 relative distance of alpha_sq from
#: the double roots of 150 detectors (gamma_tl, gamma_1 in 0.03-30): the
#: error was at most 103 and in the median 10 times eps * R * scale / sep.
ERROR_GAIN = 128.0


class DegeneratePoles(RuntimeError):
    """Cubic roots too close for the simple-pole residue formula."""


class SeriesDiverged(RuntimeError):
    """Memory-kernel series terms grow: outside the convergence region."""


@dataclass(frozen=True)
class PoleSet:
    """Poles and residues of the Laplace image of pm (continuous drive).

    Contains the pole at 0 (residue 1, the stationary value) and the three
    cubic roots. Complex poles come in conjugate pairs; all nonzero poles
    have negative real part.
    """

    poles: np.ndarray  # complex, length 4, poles[0] == 0
    residues: np.ndarray  # complex, length 4, residues[0] == 1

    def _residue_sum(self, t) -> np.ndarray:
        """Complex sum_i residue_i exp(pole_i t)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vals = np.zeros(t.shape, dtype=complex)
        for s, r in zip(self.poles, self.residues):
            vals += r * np.exp(s * t)
        return vals

    def reconstruct(self, t) -> np.ndarray:
        """Time-domain pm(t) = sum_i residue_i exp(pole_i t), real part."""
        return np.real(self._residue_sum(t))

    def reconstruct_imag_max(self, t) -> float:
        """Largest |imaginary part| of the reconstruction (conjugacy check)."""
        return float(np.max(np.abs(np.imag(self._residue_sum(t)))))


def _require_lossless(params: DetectorParams, what: str) -> None:
    if params.gamma_0 != 0 or params.gamma_rel != 0 or params.gamma_res != 0:
        raise ValueError(
            f"{what} assumes gamma_0 = gamma_rel = gamma_res = 0"
        )


def _cubic(params: DetectorParams, alpha_sq: float) -> np.ndarray:
    """Coefficients, highest power first, of the continuous-drive cubic

    C(s) = s (s + gt/2)(s + gt) + (wr^2/2)(2 s + gamma_1)
         = s^3 + (3 gt/2) s^2 + (gt^2/2 + wr^2) s + wr^2 gamma_1 / 2

    with wr^2 = 2 alpha_sq gamma_tl omega_0 / pi. The constant term is also
    the numerator of pm(s).
    """
    _require_finite("alpha_sq", alpha_sq, 0.0)
    gt = params.gamma_tilde
    wr2 = 2.0 * alpha_sq * params.gamma_tl * params.omega_0 / np.pi
    return np.array([1.0, 1.5 * gt, 0.5 * gt**2 + wr2, 0.5 * wr2 * params.gamma_1])


def pm_laplace(params: DetectorParams, alpha_sq: float, s) -> complex:
    """Laplace image of pm for the continuous drive:

    pm(s) = (gamma_1 wr^2 / 2) / (s [s(s+gt/2)(s+gt) + (wr^2/2)(2s+gamma_1)])
    """
    _require_lossless(params, "continuous-drive Laplace image")
    coeffs = _cubic(params, alpha_sq)
    s = complex(s)
    return coeffs[3] / (s * np.polyval(coeffs, s))


def continuous_pm_poles(params: DetectorParams, alpha_sq: float) -> PoleSet:
    """Pole/residue decomposition of pm(s) for the continuous drive.

    The cubic of :func:`_cubic` is solved via the companion matrix
    (numpy.roots); the printed radical expressions are deliberately not
    transcribed. Raises DegeneratePoles where two roots lie so close, or a
    residue is so large, that by the error law of ERROR_GAIN the
    reconstruction may miss pm by more than POLE_TOL. A root near the pole at
    0 comes out of numpy.roots to full relative accuracy and passes; one that
    comes out exactly 0 has an infinite residue and fails.
    """
    _require_lossless(params, "pole decomposition")
    coeffs = _cubic(params, alpha_sq)
    if coeffs[3] == 0:
        raise ValueError("pole decomposition needs alpha_sq > 0 and gamma_1 > 0")
    roots = np.roots(coeffs)
    scale = np.max(np.abs(roots))  # > 0: coeffs[3] != 0, so some root is nonzero

    # residue at a simple root s_i of the cubic C: (g1 wr^2/2) / (s_i C'(s_i))
    dC = np.polyder(np.poly1d(coeffs))
    with np.errstate(divide="ignore", invalid="ignore"):  # a double or zero root: rejected below
        residues = np.array([coeffs[3] / (si * dC(si)) for si in roots], dtype=complex)
    sep = min(abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2]))
    r_max = np.max(np.abs(residues))
    if not ERROR_GAIN * np.finfo(float).eps * r_max * scale <= POLE_TOL * sep:  # NaN fails too
        raise DegeneratePoles(
            f"roots {sep:.3g} apart with residues up to {r_max:.3g}: the reconstruction "
            f"may miss pm by more than {POLE_TOL:g}"
        )
    poles = np.concatenate(([0.0 + 0.0j], roots.astype(complex)))
    residues = np.concatenate(([1.0 + 0.0j], residues))
    return PoleSet(poles=poles, residues=residues)


def _pm_derivatives_at_zero(
    params: DetectorParams, alpha_sq: float, kappa: float, order: int
) -> list[float]:
    """Time derivatives pm^(l)(0), l = 0..order, for the exponential pulse.

    Forward recursion on the mean-field right-hand side from the ground
    state, with the Leibniz rule applied to the product of the envelope
    factor exp(-kappa t / 2) and the state variables. Exact up to float
    rounding; no finite differences.
    """
    gt = params.gamma_tilde
    gtl = params.gamma_tl
    g1 = params.gamma_1
    wr0 = np.sqrt(2.0 * alpha_sq * kappa * gtl / np.pi)
    n = order + 1
    v = [0.0] * n
    p0 = [0.0] * n
    p1 = [0.0] * n
    pm = [0.0] * n
    p0[0] = 1.0
    wder = [wr0 * (-0.5 * kappa) ** j for j in range(n)]

    def coupled(x, m):
        # m-th derivative of omega_R(t) * x(t) at t = 0
        return sum(comb(m, j) * wder[j] * x[m - j] for j in range(m + 1))

    diff = [p0[i] - p1[i] for i in range(n)]
    for m in range(order):
        v[m + 1] = -0.5 * gt * v[m] + coupled(diff, m)
        wv = coupled(v, m)
        p0[m + 1] = gtl * p1[m] - 0.5 * wv
        p1[m + 1] = -gt * p1[m] + 0.5 * wv
        pm[m + 1] = g1 * p1[m]
        diff[m + 1] = p0[m + 1] - p1[m + 1]
    return pm


def _exp_pulse_leading(params: DetectorParams, alpha_sq: float, kappa: float, what: str):
    """Checks shared by the exponential-pulse formulas, then wrt^2, the shape
    factor (kappa + gt/2)(1 + gamma_tl/gamma_1) and the leading term
    wrt^2 / (4 kappa shape), with wrt^2 = 2 alpha_sq kappa gamma_tl / pi."""
    _require_lossless(params, what)
    _require_finite("alpha_sq", alpha_sq, 0.0)
    _require_finite("kappa", kappa, 0.0, strict=True)
    if params.gamma_1 == 0:
        raise ValueError("exponential-pulse formulas need gamma_1 > 0")
    wrt2 = 2.0 * alpha_sq * kappa * params.gamma_tl / np.pi
    shape = (kappa + 0.5 * params.gamma_tilde) * (1.0 + params.gamma_tl / params.gamma_1)
    return wrt2, shape, wrt2 / (4.0 * kappa * shape)


@np.errstate(over="raise", divide="raise", invalid="raise")
def exp_pulse_steady_state(
    params: DetectorParams, alpha_sq: float, kappa: float, order: int = 5
) -> float:
    """Stationary pm for the exponentially damped pulse, series truncation.

    value = wrt^2 / [4 kappa (kappa + gt/2)(1 + gamma_tl/gamma_1)]
            - sum_{l=0}^{order} a1 pm^(l)(0) / (2 kappa)^(l+1)

    with wrt = sqrt(2 alpha_sq kappa gamma_tl / pi) and
    a1 = (wrt^2/2)(1 + 4 kappa/gamma_1) / [(kappa + gt/2)(1 + gamma_tl/gamma_1)].

    Raises SeriesDiverged when the term magnitudes grow (alpha too large
    relative to kappa), and an ArithmeticError when a term overflows or
    divides by zero in floating point rather than give inf or nan.
    """
    wrt2, shape, leading = _exp_pulse_leading(params, alpha_sq, kappa, "exponential-pulse series")
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or not 1 <= order <= 12:
        raise ValueError(f"order must be in 1..12, got {order}")
    if alpha_sq == 0.0:
        return 0.0
    a1 = 0.5 * wrt2 * (1.0 + 4.0 * kappa / params.gamma_1) / shape

    derivs = _pm_derivatives_at_zero(params, alpha_sq, kappa, order)
    terms = [a1 * derivs[l] / (2.0 * kappa) ** (l + 1) for l in range(order + 1)]

    # divergence heuristic: the correction terms keep growing AND the last
    # one already dominates the leading term, so successive partial sums
    # move further apart instead of settling
    mags = [abs(x) for x in terms if x != 0.0]
    growing = sum(1 for a, b in zip(mags, mags[1:]) if b > a)
    if len(mags) >= 3 and growing >= len(mags) - 1 and mags[-1] > abs(leading):
        raise SeriesDiverged(
            f"series correction exceeds the leading term and keeps growing "
            f"(alpha_sq={alpha_sq}, kappa={kappa})"
        )
    return leading - sum(terms)


def exp_pulse_fifth_order(params: DetectorParams, alpha_sq: float, kappa: float) -> float:
    """Closed-form fifth-order approximation:
    leading * (1 - wrt^2 / (16 kappa^2))."""
    wrt2, _, leading = _exp_pulse_leading(params, alpha_sq, kappa, "exponential-pulse closed form")
    return leading * (1.0 - wrt2 / (16.0 * kappa**2))
