"""Simulation and design-optimization toolkit for a two-level microwave
photon counter terminating a semi-infinite transmission line."""

from .core import (
    DetectorParams,
    DriveKind,
    DriveSpec,
    photon_flux,
    photon_number,
)
from .meanfield import IntegratorConfig, Trajectory, integrate, rabi_frequency
from .rate import (
    EfficiencyReport,
    build_report,
    efficiency,
    eta_loss,
    eta_max,
    matching_gamma_tl,
    nep,
)

__all__ = [
    "DetectorParams",
    "DriveKind",
    "DriveSpec",
    "photon_flux",
    "photon_number",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "rabi_frequency",
    "EfficiencyReport",
    "build_report",
    "efficiency",
    "eta_loss",
    "eta_max",
    "matching_gamma_tl",
    "nep",
]

__version__ = "0.1.0"
