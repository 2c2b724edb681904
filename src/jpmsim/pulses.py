"""Drive envelopes f(t): built-in shapes, normalization, and evaluation.

Every envelope is normalized so that the integral of |f(t)|^2 over its
effective support equals one; ``alpha_sq`` of the owning drive then equals
the mean photon number of the wave packet.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .core import TWO_PI, DriveKind, DriveSpec, _require_finite

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

    Each shape is one formula ``_raw`` of a Python float, which is what
    ``odeint`` passes. An array is evaluated element by element, each element
    as a Python float, so ``env(array)`` equals ``[env(float(x)) for x in
    array]`` bit for bit. That costs 0.2-1.3 us per element; only tests,
    demos and :func:`squared_norm` evaluate arrays.
    """

    kind: DriveKind
    c: float
    t_start: float
    t_end: float
    _raw: Callable[[float], float]

    def __call__(self, t):
        if t.__class__ is float:  # not np.float64, a subclass
            return self.c * self._raw(t)
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self.c * self._raw(float(t))
        # tolist gives Python floats: numpy scalars would warn where d * d overflows
        raw = np.fromiter(map(self._raw, t.ravel().tolist()), float, t.size)
        return (self.c * raw).reshape(t.shape)


@np.errstate(over="ignore")  # a support that overflows raises below
def exponential_envelope(kappa: float) -> Envelope:
    """f(t) = sqrt(kappa) * exp(-kappa t / 2) for t >= 0.

    Analytically unit-normalized, so c = 1 exactly.
    """
    _require_finite("kappa", kappa, 0.0, strict=True)
    t_end = EXP_SUPPORT_FACTOR / kappa
    if not np.isfinite(t_end):
        raise ValueError(f"kappa = {float(kappa)!r} too small: the support "
                         f"{EXP_SUPPORT_FACTOR:g}/kappa overflows")

    sqrt_kappa = math.sqrt(kappa)

    def raw(t):
        return sqrt_kappa * math.exp(-0.5 * kappa * t) if t >= 0 else 0.0

    return Envelope(DriveKind.EXPONENTIAL, 1.0, 0.0, t_end, raw)


@np.errstate(over="ignore")  # a support that overflows raises below
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
    _require_finite("sigma", sigma, 0.0, strict=True)
    half_width = GAUSS_SUPPORT_SIGMAS / (sigma * np.sqrt(2.0))
    if not np.isfinite(half_width):
        raise ValueError(f"sigma = {float(sigma)!r} too small: the support half-width "
                         f"{GAUSS_SUPPORT_SIGMAS:g}/(sigma sqrt 2) overflows")
    if t0 is None:
        t0 = half_width
    if t0 - half_width < -1e-12:
        raise ValueError(
            f"t0 = {t0} too small: support would start at {t0 - half_width} < 0"
        )

    s2 = float(sigma) * float(sigma)  # a product: sigma ** 2 raises OverflowError
    if not math.isfinite(s2):
        raise ValueError(f"sigma = {float(sigma)!r} too large: sigma^2 overflows")
    pref, t0 = (8.0 * math.pi * s2) ** 0.25, float(t0)

    def raw(t):
        d = t - t0  # d * d: a product gives inf where d ** 2 raises OverflowError
        return pref * math.exp(-s2 * (d * d))

    c = 1.0 if paper_literal else 1.0 / math.sqrt(TWO_PI)
    return Envelope(DriveKind.GAUSSIAN, c, t0 - half_width, t0 + half_width, raw)


def tabulated_envelope(times, values) -> Envelope:
    """Linear interpolation through (t, f) samples, exactly zero outside them,
    scaled to unit norm by the exact knot sum: on an interval of width h from
    f_i to f_j the interpolant's square integrates to h (f_i^2 + f_i f_j + f_j^2) / 3.
    The sum runs over f / max|f|, whose squares cannot overflow, and c takes
    the 1 / max|f|: a table and any finite multiple of it give one envelope.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != f.shape or t.size < 2:
        raise ValueError("need matching 1-d arrays with at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
        raise ValueError("samples must be finite numbers")
    scale = float(np.abs(f).max())
    g = f / scale if scale > 0 else f
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows raises below
        h = np.diff(t)
        mass = float(h @ (g[:-1] ** 2 + g[:-1] * g[1:] + g[1:] ** 2)) / 3.0
    if np.any(h <= 0):
        raise ValueError("sample times must be strictly increasing")
    if not math.isfinite(mass):  # an infinite spacing makes it inf or NaN too
        raise ValueError(f"sample times {float(t[0])!r} to {float(t[-1])!r}: "
                         "the span overflows")
    if mass <= 0:
        raise ValueError("tabulated envelope has zero norm")

    def raw(x):
        return float(np.interp(x, t, f, left=0.0, right=0.0))

    return Envelope(DriveKind.TABULATED, 1.0 / math.sqrt(mass) / scale, float(t[0]),
                    float(t[-1]), raw)


def load_tabulated_csv(path) -> tuple[list[float], list[float]]:
    """The (t, f) samples of a two-column CSV as written, checked as
    :func:`tabulated_envelope` checks them. Blank rows and ``#`` comments are
    skipped, and so are rows before the first sample whose time is not a
    number (a header); any later row that is not two numbers is an error."""
    times, values = [], []
    with open(path, newline="") as fh:
        reader, bad = csv.reader(fh), "{} line {}: need two numbers (t, f), got {}"
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                t = float(row[0])
            except ValueError:
                if times:
                    raise ValueError(bad.format(path, reader.line_num, row)) from None
                continue  # a header, before the first sample
            try:
                values.append(float(row[1]))
            except (IndexError, ValueError):
                raise ValueError(bad.format(path, reader.line_num, row)) from None
            times.append(t)
    tabulated_envelope(times, values)  # raises on samples that make no envelope
    return times, values


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
    """Quadrature of |f|^2 over the effective support (should be 1), with
    ``quad`` on the float formula for the analytic shapes. For a table it is an
    approximation, independent of the exact knot sum that normalizes it: a
    trapezoid on 20,001 uniform points that misses the knots."""
    if env.kind is DriveKind.TABULATED:
        # piecewise-linear integrand: dense trapezoid instead of adaptive
        # quadrature, which stalls on the derivative kinks
        grid = np.linspace(env.t_start, env.t_end, 20001)
        return float(np.trapezoid(env(grid) ** 2, grid))
    val, _ = quad(lambda t: env(t) ** 2, env.t_start, env.t_end, limit=200)
    return val
