"""Time integration of the mean-field equations of motion.

The resonant mean-field closure reduces to a real 4-vector
y = (v, p0, p1, pm) with

    dv/dt  = -(gamma_tilde/2) v + omega_R(t) (p0 - p1)
    dp0/dt =  (gamma_tl + gamma_rel) p1 - omega_R(t) v / 2
    dp1/dt = -gamma_tilde p1 + omega_R(t) v / 2
    dpm/dt =  gamma_1 p1

that is dy/dt = (A0 + omega_R(t) B) y with the matrices of :func:`generator`.
omega_R is constant for a continuous drive and carries the pulse envelope
f(t) otherwise. A continuous drive makes the system linear and
time-invariant, and it is propagated exactly with the matrix exponential
(:func:`propagate`); a pulse drive is integrated with adaptive RK45. This
module assumes a single measurement event and no dark counts: gamma_res and
gamma_0 must be zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import SIMPLEX_EPS, DetectorParams, DriveKind, DriveSpec, _require_finite, _require_int
from .pulses import envelope_for

#: Post-pulse integration tail, in units of 1/gamma_1, to capture tunneling
#: that continues after the envelope has passed.
PULSE_TAIL_FACTOR = 10.0

#: Relative and absolute tolerances of the adaptive RK45 step (pulse drives).
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
    """End time and number of uniform samples of a trajectory.

    A continuous drive is propagated exactly from sample to sample with
    expm, a pulse is integrated with adaptive RK45 and sampled. With
    ``t_end`` None a continuous drive runs to 20/gamma_tilde and a pulse to
    the end of its envelope's support plus a tunneling tail.
    """

    t_end: float | None = None
    n_samples: int = 400

    def __post_init__(self):
        if self.t_end is not None:
            _require_finite("t_end", self.t_end)
            if self.t_end <= 0:
                raise ValueError("t_end must be > 0")
        _require_int("n_samples", self.n_samples, 2)


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
            cols = (self.v, self.p0, self.p1, self.pm, refl)
            for i, t in enumerate(self.times):
                w.writerow([f"{t:.9g}"] + [f"{c[i]:.12g}" for c in cols])


def rabi_frequency(params: DetectorParams, drive: DriveSpec) -> float:
    """Constant Rabi rate of a continuous drive:
    omega_R = sqrt(2 alpha_sq gamma_tl omega_0 / pi).

    For pulse drives this returns the prefactor sqrt(2 alpha_sq gamma_tl / pi)
    that multiplies the envelope f(t).
    """
    if drive.kind is DriveKind.CONTINUOUS:
        return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl * drive.omega_s / np.pi)
    return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl / np.pi)


def generator(params: DetectorParams) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 matrices (A0, B) of dy/dt = (A0 + omega_R(t) B) y for
    y = (v, p0, p1, pm): A0 holds the decay and tunneling rates, B the drive."""
    gt = params.gamma_tilde
    a0 = np.array([[-0.5 * gt, 0.0, 0.0, 0.0],
                   [0.0, 0.0, params.gamma_tl + params.gamma_rel, 0.0],
                   [0.0, 0.0, -gt, 0.0],
                   [0.0, 0.0, params.gamma_1, 0.0]])
    b = np.array([[0.0, 1.0, -1.0, 0.0],
                  [-0.5, 0.0, 0.0, 0.0],
                  [0.5, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0]])
    return a0, b


def propagate(gen: np.ndarray, y0, t_eval: np.ndarray) -> np.ndarray:
    """Exact solution of dy/dt = gen y from y(0) = y0, sampled on the uniform
    grid ``t_eval`` (starting at 0), shape (len(y0), len(t_eval)).

    One step matrix expm(gen dt) (scipy's scaling-and-squaring expm) is
    applied sample by sample. A non-finite sample raises IntegrationError.
    """
    y = np.empty((len(y0), len(t_eval)))
    y[:, 0] = y0
    # overflow shows up as a non-finite sample, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(gen * (t_eval[1] - t_eval[0]))
        for k in range(1, len(t_eval)):
            y[:, k] = step @ y[:, k - 1]
    bad = ~np.isfinite(y).all(axis=0)
    if bad.any():
        raise IntegrationError("propagator is not finite", t_eval[np.argmax(bad)])
    return y


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
    """Integrate the mean-field system from the ground state and sample it on
    a uniform grid.

    A continuous drive is propagated exactly with the constant generator
    A0 + omega_R B (:func:`propagate`). A pulse drive is integrated with
    adaptive RK45 on the right-hand side (A0 + omega_R f(t) B) y.

    A non-finite sample raises IntegrationError. Occupation bounds and
    probability conservation are asserted at every sample; a breach raises
    InvariantViolation rather than being clipped.
    """
    _check_preconditions(params, drive)
    if cfg is None:
        cfg = IntegratorConfig()

    if drive.kind is DriveKind.CONTINUOUS:
        default_end = 20.0 / params.gamma_tilde
    else:
        env = envelope_for(drive)
        g1 = params.gamma_1
        default_end = env.t_end + (PULSE_TAIL_FACTOR / g1 if g1 > 0 else 0.0)

    t_end = cfg.t_end if cfg.t_end is not None else default_end
    t_eval = np.linspace(0.0, t_end, cfg.n_samples)
    ground = [0.0, 1.0, 0.0, 0.0]  # (v, p0, p1, pm)
    a0, b = generator(params)
    wr = rabi_frequency(params, drive)  # the prefactor of f(t) for a pulse

    if drive.kind is DriveKind.CONTINUOUS:
        with np.errstate(invalid="ignore"):  # wr = inf gives NaN, which propagate reports
            gen = a0 + wr * b
        y = propagate(gen, ground, t_eval)
    else:
        def rhs(t, y):
            # A0 y + omega_R (B y) rounds each component like the equations
            # in the module docstring, and needs no 4x4 temporary
            return a0.dot(y) + (wr * env(t)) * b.dot(y)

        sol = solve_ivp(rhs, (0.0, t_end), ground, method="RK45",
                        rtol=REL_TOL, atol=ABS_TOL, t_eval=t_eval)
        if not sol.success:
            t_fail = sol.t[-1] if sol.t.size else 0.0
            raise IntegrationError(f"adaptive step failed: {sol.message}", t_fail)
        y = sol.y

    traj = Trajectory(times=t_eval, v=y[0], p0=y[1], p1=y[2], pm=y[3],
                      drive=drive, params=params)
    _check_invariants(traj)
    return traj


def _check_invariants(traj: Trajectory, eps: float = SIMPLEX_EPS) -> None:
    for arr, name in ((traj.p0, "p0"), (traj.p1, "p1"), (traj.pm, "pm")):
        outside = ~((arr >= -eps) & (arr <= 1.0 + eps))  # NaN is outside too
        if outside.any():
            i = int(np.argmax(outside))
            raise InvariantViolation(
                f"{name} = {arr[i]} outside [-{eps}, 1+{eps}] at t = {traj.times[i]}"
            )
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
