"""Drive envelopes f(t): built-in shapes, normalization, and evaluation.

Every envelope is normalized so that the integral of |f(t)|^2 over its
effective support equals one; ``alpha_sq`` of the owning drive then equals
the mean photon number of the wave packet.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .core import TWO_PI, DriveKind, DriveSpec

#: Truncation thresholds chosen so the discarded |f|^2 mass is < 1e-8.
EXP_SUPPORT_FACTOR = 40.0  # support [0, 40/kappa]; e^(-40) ~ 4e-18
GAUSS_SUPPORT_SIGMAS = 6.0  # support t0 +/- 6/(sigma*sqrt(2))


@dataclass(frozen=True)
class Envelope:
    """A real, nonnegative pulse shape with unit L2 norm.

    Attributes
    ----------
    kind : DriveKind
        Mirrors the drive kind this envelope belongs to.
    c : float
        Normalization constant applied to the raw shape.
    t_start, t_end : float
        Effective support; evaluation outside is still defined (and tiny)
        for the analytic shapes, exactly zero for tabulated ones.
    """

    kind: DriveKind
    c: float
    t_start: float
    t_end: float
    _raw: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.c * self._raw(t)
        if out.ndim == 0:
            return float(out)
        return out


def exponential_envelope(kappa: float) -> Envelope:
    """f(t) = sqrt(kappa) * exp(-kappa t / 2) for t >= 0.

    Analytically unit-normalized, so c = 1 exactly.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")

    def raw(t):
        return np.where(t >= 0, np.sqrt(kappa) * np.exp(-0.5 * kappa * t), 0.0)

    return Envelope(DriveKind.EXPONENTIAL, 1.0, 0.0, EXP_SUPPORT_FACTOR / kappa, raw)


def gaussian_envelope(
    sigma: float, t0: float | None = None, paper_literal: bool = False
) -> Envelope:
    """Gaussian pulse centered at t0 with raw prefactor (8 pi sigma^2)^(1/4).

    With ``t0`` None the centre is placed where the support starts at t = 0.

    The raw shape integrates |f|^2 to 2*pi, so by default it is scaled to
    unit norm by c = 1/sqrt(2 pi) exactly; the mass the truncated support
    drops is far below float rounding. With ``paper_literal=True`` the raw
    prefactor is kept for comparison runs.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    half_width = GAUSS_SUPPORT_SIGMAS / (sigma * np.sqrt(2.0))
    if t0 is None:
        t0 = half_width
    if t0 - half_width < -1e-12:
        raise ValueError(
            f"t0 = {t0} too small: support would start at {t0 - half_width} < 0"
        )

    def raw(t):
        return (8.0 * np.pi * sigma**2) ** 0.25 * np.exp(-(sigma**2) * (t - t0) ** 2)

    c = 1.0 if paper_literal else 1.0 / np.sqrt(TWO_PI)
    return Envelope(DriveKind.GAUSSIAN, c, t0 - half_width, t0 + half_width, raw)


def tabulated_envelope(times, values) -> Envelope:
    """Linear interpolation through (t, f) samples, renormalized to unit norm.

    Evaluates to exactly zero outside the sampled interval.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size < 2:
        raise ValueError("need matching 1-d arrays with at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
        raise ValueError("samples must be finite numbers")
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")

    def raw(x):
        return np.interp(x, t, f, left=0.0, right=0.0)

    grid = np.linspace(t[0], t[-1], max(4096, 8 * t.size))
    mass = np.trapezoid(raw(grid) ** 2, grid)
    if mass <= 0:
        raise ValueError("tabulated envelope has zero norm")
    return Envelope(DriveKind.TABULATED, 1.0 / np.sqrt(mass), float(t[0]), float(t[-1]), raw)


def load_tabulated_csv(path) -> Envelope:
    """Read a two-column CSV of (t, f) samples and build a tabulated envelope."""
    times, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                t = float(row[0])
            except ValueError:
                continue  # header line
            if len(row) < 2:
                raise ValueError(f"{path} line {reader.line_num}: need two columns (t, f)")
            times.append(t)
            values.append(float(row[1]))
    return tabulated_envelope(times, values)


def envelope_for(drive: DriveSpec) -> Envelope:
    """Build the envelope matching a pulse DriveSpec."""
    if drive.kind is DriveKind.EXPONENTIAL:
        return exponential_envelope(drive.kappa)
    if drive.kind is DriveKind.GAUSSIAN:
        return gaussian_envelope(drive.sigma, drive.t0, drive.paper_literal)
    if drive.kind is DriveKind.TABULATED:
        return tabulated_envelope(drive.table_t, drive.table_f)
    raise ValueError(f"no envelope for drive kind {drive.kind}")


def squared_norm(env: Envelope) -> float:
    """Quadrature of |f|^2 over the effective support (should be 1)."""
    if env.kind is DriveKind.TABULATED:
        # piecewise-linear integrand: dense trapezoid instead of adaptive
        # quadrature, which stalls on the derivative kinks
        grid = np.linspace(env.t_start, env.t_end, 20001)
        return float(np.trapezoid(env(grid) ** 2, grid))
    val, _ = quad(lambda t: env(np.asarray(t)) ** 2, env.t_start, env.t_end, limit=200)
    return val
