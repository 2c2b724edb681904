"""Time integration of the mean-field equations of motion.

The resonant mean-field closure reduces to a real 4-vector
(v, p0, p1, pm) with

    dv/dt  = -(gamma_tilde/2) v + omega_R(t) (p0 - p1)
    dp0/dt =  gamma_tl p1 - omega_R(t) v / 2
    dp1/dt = -gamma_tilde p1 + omega_R(t) v / 2
    dpm/dt =  gamma_1 p1

where omega_R is constant for a continuous drive and carries the pulse
envelope f(t) otherwise. This module assumes a single measurement event
and no dark counts: gamma_res and gamma_0 must be zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import SIMPLEX_EPS, DetectorParams, DriveKind, DriveSpec, _require_finite
from .pulses import envelope_for

#: Post-pulse integration tail, in units of 1/gamma_1, to capture tunneling
#: that continues after the envelope has passed.
PULSE_TAIL_FACTOR = 10.0

#: Relative and absolute tolerances of the adaptive RK45 step.
REL_TOL = 1e-8
ABS_TOL = 1e-10


class IntegrationError(RuntimeError):
    """Integration failed; ``t_fail`` holds the time of failure."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} (t = {t_fail:.6g} ns)")
        self.t_fail = t_fail


class InvariantViolation(RuntimeError):
    """A state invariant was breached beyond tolerance at an accepted sample."""


@dataclass(frozen=True)
class IntegratorConfig:
    """End time and sampling of the adaptive RK45 integration.

    With ``t_end`` None a continuous drive runs to 20/gamma_tilde and a pulse
    to the end of its envelope's support plus a tunneling tail.
    """

    t_end: float | None = None
    n_samples: int = 400

    def __post_init__(self):
        if self.t_end is not None:
            _require_finite("t_end", self.t_end)
            if self.t_end <= 0:
                raise ValueError("t_end must be > 0")


@dataclass(frozen=True)
class Trajectory:
    """Sampled mean-field trajectory plus the inputs that produced it."""

    times: np.ndarray
    v: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    pm: np.ndarray
    drive: DriveSpec
    params: DetectorParams

    def reflection(self) -> np.ndarray:
        return reflection_series(self)

    def to_csv(self, path) -> None:
        """Write t,v,p0,p1,pm,R columns (ns and dimensionless)."""
        refl = self.reflection()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "v", "p0", "p1", "pm", "R"])
            for i in range(len(self.times)):
                w.writerow(
                    [
                        f"{self.times[i]:.9g}",
                        f"{self.v[i]:.12g}",
                        f"{self.p0[i]:.12g}",
                        f"{self.p1[i]:.12g}",
                        f"{self.pm[i]:.12g}",
                        f"{refl[i]:.12g}",
                    ]
                )


def rabi_frequency(params: DetectorParams, drive: DriveSpec) -> float:
    """Constant Rabi rate of a continuous drive:
    omega_R = sqrt(2 alpha_sq gamma_tl omega_0 / pi).

    For pulse drives this returns the prefactor sqrt(2 alpha_sq gamma_tl / pi)
    that multiplies the envelope f(t).
    """
    if drive.kind is DriveKind.CONTINUOUS:
        return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl * drive.omega_s / np.pi)
    return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl / np.pi)


def _check_preconditions(params: DetectorParams, drive: DriveSpec) -> None:
    if params.gamma_0 != 0.0:
        raise ValueError(
            "mean-field closure assumes gamma_0 = 0 (no dark counts); "
            f"got gamma_0 = {params.gamma_0}"
        )
    if params.gamma_res != 0.0:
        raise ValueError(
            "mean-field closure assumes gamma_res = 0 (single measurement); "
            f"got gamma_res = {params.gamma_res}"
        )
    if not np.isclose(drive.omega_s, params.omega_0, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"only resonant drive supported: omega_s = {drive.omega_s} "
            f"!= omega_0 = {params.omega_0}"
        )


def integrate(
    params: DetectorParams, drive: DriveSpec, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate the mean-field system from the ground state with adaptive
    RK45 and sample it on a uniform grid.

    Occupation bounds and (for the lossless configuration) probability
    conservation are asserted at every sample; a breach raises
    InvariantViolation rather than being clipped.
    """
    _check_preconditions(params, drive)
    if cfg is None:
        cfg = IntegratorConfig()

    gt = params.gamma_tilde
    gtl = params.gamma_tl
    g1 = params.gamma_1

    if drive.kind is DriveKind.CONTINUOUS:
        default_end = 20.0 / gt
        wr_const = rabi_frequency(params, drive)

        def omega_r(t):
            return wr_const

    else:
        env = envelope_for(drive)
        default_end = env.t_end + (PULSE_TAIL_FACTOR / g1 if g1 > 0 else 0.0)
        pref = rabi_frequency(params, drive)

        def omega_r(t):
            return pref * env(t)

    t_end = cfg.t_end if cfg.t_end is not None else default_end

    def rhs(t, y):
        v, p0, p1, pm = y
        wr = omega_r(t)
        return [
            -0.5 * gt * v + wr * (p0 - p1),
            gtl * p1 - 0.5 * wr * v,
            -gt * p1 + 0.5 * wr * v,
            g1 * p1,
        ]

    t_eval = np.linspace(0.0, t_end, cfg.n_samples)
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [0.0, 1.0, 0.0, 0.0],  # ground state (v, p0, p1, pm)
        method="RK45",
        rtol=REL_TOL,
        atol=ABS_TOL,
        t_eval=t_eval,
    )
    if not sol.success:
        t_fail = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(f"adaptive step failed: {sol.message}", t_fail)

    traj = Trajectory(
        times=t_eval,
        v=sol.y[0],
        p0=sol.y[1],
        p1=sol.y[2],
        pm=sol.y[3],
        drive=drive,
        params=params,
    )
    _check_invariants(traj)
    return traj


def _check_invariants(traj: Trajectory, eps: float = SIMPLEX_EPS) -> None:
    for arr, name in ((traj.p0, "p0"), (traj.p1, "p1"), (traj.pm, "pm")):
        if np.any(arr < -eps) or np.any(arr > 1.0 + eps):
            i = int(np.argmax((arr < -eps) | (arr > 1.0 + eps)))
            raise InvariantViolation(
                f"{name} = {arr[i]} outside [-{eps}, 1+{eps}] at t = {traj.times[i]}"
            )
    p = traj.params
    if p.gamma_0 == 0 and p.gamma_rel == 0 and p.gamma_res == 0:
        total = traj.p0 + traj.p1 + traj.pm
        if np.any(np.abs(total - 1.0) > eps):
            i = int(np.argmax(np.abs(total - 1.0)))
            raise InvariantViolation(
                f"probability sum {total[i]} deviates from 1 at t = {traj.times[i]}"
            )


def reflection_series(traj: Trajectory) -> np.ndarray:
    """Pointwise reflection coefficient
    R(t) = -1 + (2 gamma_tl / gamma_tilde) (p0 - p1).

    |R| > 1 is possible when p1 > p0 (amplification by emission).
    """
    return reflection_coefficient(traj.params, traj.p0, traj.p1)


def reflection_coefficient(params: DetectorParams, p0, p1):
    """Reflection coefficient for given occupations (scalar or array)."""
    return -1.0 + (2.0 * params.gamma_tl / params.gamma_tilde) * (
        np.asarray(p0) - np.asarray(p1)
    )
