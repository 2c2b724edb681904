"""Shared types, unit conventions, and flux/photon-number conversions.

Internal units throughout the package: rates in 1/ns, angular frequencies
in rad/ns, times in ns. A rate quoted as "1 GHz" corresponds to 1/ns; a
transition frequency quoted as "5 GHz" corresponds to omega_0 = 2*pi*5 rad/ns.
Keeping everything O(1)-O(10) in these units avoids artificial stiffness.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

#: Tolerance for the probability-simplex invariants of a trajectory.
SIMPLEX_EPS = 1e-6

_INF = math.inf


def _require_finite(name: str, value, minimum: float = -sys.float_info.max,
                    strict: bool = False, message: str | None = None, mask: bool = False):
    """Whether ``value`` of the field ``name`` is a finite number >= ``minimum``
    (> if ``strict``); a bool or an array is not a number. With ``mask`` an
    array, such as a sweep axis, gives the mask of its elements that are. A
    value that is not raises ValueError naming ``name``: "must be a finite
    number", or ``message``, by default "must be >= minimum"."""
    # a float, the common case, passes here without the branches below
    if value.__class__ is float and ((minimum < value < _INF) if strict
                                     else (minimum <= value < _INF)):
        return True
    if mask and isinstance(value, np.ndarray):
        return ((value > minimum) if strict else (value >= minimum)) & (value < _INF)
    try:
        finite = not isinstance(value, (bool, np.ndarray)) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if (value > minimum) if strict else (value >= minimum):
        return True
    raise ValueError(message
                     or f"{name} must be {'>' if strict else '>='} {minimum:g}, got {value}")


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer (not a
    bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def strict_json(data, indent: int | None = None) -> str:
    """JSON text of ``data`` with every non-finite float written as null.

    json.dumps would write NaN and Infinity, which strict JSON parsers
    reject; allow_nan=False makes sure no such token is left.
    """

    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(data), indent=indent, allow_nan=False)


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
        for name in ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res"):
            _require_finite(name, getattr(self, name), 0.0)
        _require_finite("omega_0", self.omega_0, 0.0, strict=True)

    @staticmethod
    def check(name: str, value):
        """The rule of the rate ``name`` (see __post_init__): for an array, the
        mask of the values it may take; a scalar it may not take raises."""
        return _require_finite(name, value, 0.0, mask=True)

    @property
    def gamma_tilde(self) -> float:
        """Total linewidth: gamma_tl + gamma_0 + gamma_1 + gamma_rel [1/ns]."""
        return self.gamma_tl + self.gamma_0 + self.gamma_1 + self.gamma_rel


class DriveKind(enum.Enum):
    CONTINUOUS = "continuous"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    TABULATED = "tabulated"


#: The pulse kind whose envelope each DriveSpec field shapes, on which it must
#: be > 0, and the error when it is not.
_SHAPE_KINDS = {"kappa": DriveKind.EXPONENTIAL, "sigma": DriveKind.GAUSSIAN}
_SHAPE_NEEDS = {name: f"{kind.value} drive requires {name} > 0"
                for name, kind in _SHAPE_KINDS.items()}


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
        for name in ("alpha_sq", "omega_s", "kappa", "sigma", "t0"):
            value = getattr(self, name)
            if value is not None or self.kind is _SHAPE_KINDS.get(name):
                self.check(name, value, mask=False)
        if self.kind is DriveKind.TABULATED and (self.table_t is None or self.table_f is None):
            raise ValueError("tabulated drive requires sample arrays")

    def check(self, name: str, value, mask: bool = True):
        """The rule of the field ``name``: for an array, the mask of the values
        it may take (an array raises without ``mask``); a scalar it may not
        take raises. kappa and sigma must be > 0 on the kind they shape;
        elsewhere, like t0, only finite if given."""
        if name in ("alpha_sq", "omega_s"):
            return _require_finite(name, value, 0.0, name == "omega_s", mask=mask)
        if self.kind is _SHAPE_KINDS.get(name):
            if value is None:
                raise ValueError(_SHAPE_NEEDS[name])
            return _require_finite(name, value, 0.0, True, _SHAPE_NEEDS[name], mask)
        return _require_finite(name, value, mask=mask)

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
    _require_finite("t_m", t_m, 0.0)
    if drive.kind is DriveKind.CONTINUOUS:
        return photon_flux(drive.alpha_sq, drive.omega_s) * t_m
    return drive.alpha_sq
