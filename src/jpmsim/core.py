"""Shared types, unit conventions, and flux/photon-number conversions.

Internal units throughout the package: rates in 1/ns, angular frequencies
in rad/ns, times in ns. A rate quoted as "1 GHz" corresponds to 1/ns; a
transition frequency quoted as "5 GHz" corresponds to omega_0 = 2*pi*5 rad/ns.
Keeping everything O(1)-O(10) in these units avoids artificial stiffness.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

#: Tolerance for the probability-simplex invariants of a trajectory.
SIMPLEX_EPS = 1e-6


def _require_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real number."""
    try:
        if math.isfinite(value):
            return
    except TypeError:  # None, a string or another non-number
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer (not a
    bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def omega_from_ghz(freq_ghz: float) -> float:
    """Convert an ordinary frequency in GHz to an angular frequency in rad/ns."""
    _require_finite("freq", freq_ghz)
    return TWO_PI * float(freq_ghz)


@dataclass(frozen=True)
class DetectorParams:
    """Rates and transition frequency of the two-level counter.

    Attributes
    ----------
    gamma_tl : float
        Coupling rate to the transmission line [1/ns].
    gamma_0 : float
        Ground-state tunneling (dark count) rate [1/ns].
    gamma_1 : float
        Excited-state tunneling (measurement) rate [1/ns].
    gamma_rel : float
        Intrinsic relaxation rate from excited to ground state [1/ns].
    gamma_res : float
        Reset rate from the measurement state back to the ground state [1/ns].
    omega_0 : float
        Transition angular frequency [rad/ns].
    """

    gamma_tl: float
    gamma_0: float
    gamma_1: float
    gamma_rel: float
    gamma_res: float
    omega_0: float

    def __post_init__(self):
        # checked inline rather than by a _require_finite call per rate:
        # this runs for every cell of a rate sweep
        for name in ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res"):
            value = getattr(self, name)
            try:
                ok = 0.0 <= value < math.inf  # False for NaN
            except TypeError:  # None, a string or another non-number
                ok = False
            if not ok:
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        _require_finite("omega_0", self.omega_0)
        if self.omega_0 <= 0:
            raise ValueError(f"omega_0 must be > 0, got {self.omega_0}")

    @property
    def gamma_tilde(self) -> float:
        """Total linewidth: gamma_tl + gamma_0 + gamma_1 + gamma_rel [1/ns]."""
        return self.gamma_tl + self.gamma_0 + self.gamma_1 + self.gamma_rel


class DriveKind(enum.Enum):
    CONTINUOUS = "continuous"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class DriveSpec:
    """Input field description: kind, amplitude, carrier, shape parameters.

    For the continuous drive ``alpha_sq`` is a (dimensionless) photon flux
    amplitude; the physical flux is ``alpha_sq * omega_s / (2 pi)`` photons/ns.
    For pulse kinds ``alpha_sq`` is the mean photon number carried by the
    normalized pulse. A Gaussian with ``t0`` None is centred where its support
    starts at t = 0, which moves with ``sigma``; passing ``t0`` pins it.

    Only resonant drive (omega_s == detector omega_0) is supported.
    """

    kind: DriveKind
    alpha_sq: float
    omega_s: float
    kappa: float | None = None
    sigma: float | None = None
    t0: float | None = None
    #: Gaussian only: keep the literal (8 pi sigma^2)^(1/4) prefactor, whose
    #: squared envelope integrates to 2 pi instead of 1 (comparison runs).
    paper_literal: bool = False
    table_t: tuple[float, ...] | None = field(default=None, repr=False)
    table_f: tuple[float, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        _require_finite("alpha_sq", self.alpha_sq)
        _require_finite("omega_s", self.omega_s)
        for name in ("kappa", "sigma", "t0"):
            if getattr(self, name) is not None:
                _require_finite(name, getattr(self, name))
        if self.alpha_sq < 0:
            raise ValueError(f"alpha_sq must be >= 0, got {self.alpha_sq}")
        if self.omega_s <= 0:
            raise ValueError(f"omega_s must be > 0, got {self.omega_s}")
        if self.kind is DriveKind.EXPONENTIAL:
            if self.kappa is None or self.kappa <= 0:
                raise ValueError("exponential drive requires kappa > 0")
        elif self.kind is DriveKind.GAUSSIAN:
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("gaussian drive requires sigma > 0")
        elif self.kind is DriveKind.TABULATED:
            if self.table_t is None or self.table_f is None:
                raise ValueError("tabulated drive requires sample arrays")

    @classmethod
    def continuous(cls, alpha_sq: float, omega_s: float) -> "DriveSpec":
        return cls(DriveKind.CONTINUOUS, alpha_sq, omega_s)

    @classmethod
    def exponential(cls, alpha_sq: float, omega_s: float, kappa: float) -> "DriveSpec":
        return cls(DriveKind.EXPONENTIAL, alpha_sq, omega_s, kappa=kappa)

    @classmethod
    def gaussian(
        cls,
        alpha_sq: float,
        omega_s: float,
        sigma: float,
        t0: float | None = None,
        paper_literal: bool = False,
    ) -> "DriveSpec":
        return cls(
            DriveKind.GAUSSIAN, alpha_sq, omega_s,
            sigma=sigma, t0=t0, paper_literal=paper_literal,
        )

    @classmethod
    def tabulated(cls, alpha_sq: float, omega_s: float, times, values) -> "DriveSpec":
        return cls(
            DriveKind.TABULATED,
            alpha_sq,
            omega_s,
            table_t=tuple(float(t) for t in times),
            table_f=tuple(float(f) for f in values),
        )


def photon_flux(alpha_sq: float, omega_0: float) -> float:
    """Photon flux [photons/ns] of a continuous drive of amplitude alpha_sq.

    flux = alpha_sq * omega_0 / (2 pi). The 2 pi stems from the Fourier
    prefactor in the definition of the input field operator.
    """
    return alpha_sq * omega_0 / TWO_PI


def photon_number(drive: DriveSpec, t_m: float) -> float:
    """Mean photon number arriving at the detector within measurement time t_m.

    Continuous drive: flux * t_m. Pulse kinds: alpha_sq, the photon content
    of the normalized wave packet, independent of t_m.
    """
    if t_m < 0:
        raise ValueError(f"t_m must be >= 0, got {t_m}")
    if drive.kind is DriveKind.CONTINUOUS:
        return photon_flux(drive.alpha_sq, drive.omega_s) * t_m
    return drive.alpha_sq
