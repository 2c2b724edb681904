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
(:func:`propagate`). Pulse drives are integrated by :func:`integrate_pulses`:
LSODA, which switches to a stiff method when the rates call for it, with the
exact Jacobian A0 + omega_R f(t) B. :func:`pm_at` gives pm of N cells in one
call, as one expm of a stack of generators or one LSODA call of a 4N-state
system, where a sweep would make N. This module assumes a single measurement
event and no dark counts: gamma_res and gamma_0 must be zero.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Pulses go through odeint: in scipy 1.17.1 solve_ivp(method="LSODA") leaks
# its LSODA work arrays on every step (about 150 bytes per state component).
# solve_ivp stays importable for the benchmark's tracer (perfbench/spans.py).
from scipy.integrate import ODEintWarning, odeint, solve_ivp  # noqa: F401
from scipy.linalg import expm

from .core import SIMPLEX_EPS, DetectorParams, DriveKind, DriveSpec, _require_finite, _require_int
from .pulses import envelope_for

#: Post-pulse integration tail, in units of 1/gamma_1, to capture tunneling
#: that continues after the envelope has passed.
PULSE_TAIL_FACTOR = 10.0

#: Relative and absolute tolerances of the LSODA step (pulse drives). LSODA
#: tests its local error in a weighted max norm, so every component of a
#: stacked state meets them and no cell can hide its error behind the others.
REL_TOL = 1e-9
ABS_TOL = 1e-11

#: Most LSODA steps between two samples before a pulse integration fails.
MAX_STEPS = 100_000

GROUND = (0.0, 1.0, 0.0, 0.0)  # (v, p0, p1, pm)

# Entry (i, j) of a 4x4 diagonal block sits at row 3 + i - j of LSODA's packed
# band (lband = uband = 3), in the column of j.
_BAND_ROW = 3 + np.subtract.outer(np.arange(4), np.arange(4))


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
    expm, a pulse is integrated with LSODA (:func:`integrate_pulses`) and
    sampled. With ``t_end`` None a continuous drive runs to 20/gamma_tilde
    and a pulse to the end of its envelope's support plus a tunneling tail.
    """

    t_end: float | None = None
    n_samples: int = 400

    def __post_init__(self):
        if self.t_end is not None:
            _require_finite("t_end", self.t_end, 0.0, strict=True, message="t_end must be > 0")
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
        """Reflection coefficient R(t) at every sample."""
        return reflection_coefficient(self.params, self.p0, self.p1)

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
    for name, assumes in (("gamma_0", "no dark counts"), ("gamma_res", "single measurement")):
        if getattr(params, name) != 0.0:
            raise ValueError(f"mean-field closure assumes {name} = 0 ({assumes}); "
                             f"got {name} = {getattr(params, name)}")
    if not abs(drive.omega_s - params.omega_0) <= 1e-12 * params.omega_0:
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
    A0 + omega_R B (:func:`propagate`). A pulse drive is the one-cell call of
    :func:`integrate_pulses`.

    A non-finite sample raises IntegrationError. Occupation bounds and
    probability conservation are asserted at every sample; a breach raises
    InvariantViolation rather than being clipped.
    """
    _check_preconditions(params, drive)
    cfg = cfg or IntegratorConfig()
    t_end = cfg.t_end
    if t_end is None and drive.kind is DriveKind.CONTINUOUS:
        if params.gamma_tilde == 0:
            raise ValueError("gamma_tilde = 0: no default t_end (20 / gamma_tilde); pass t_end")
        t_end = 20.0 / params.gamma_tilde
    elif t_end is None:
        g1 = params.gamma_1
        t_end = envelope_for(drive).t_end + (PULSE_TAIL_FACTOR / g1 if g1 > 0 else 0.0)
    t_eval = np.linspace(0.0, t_end, cfg.n_samples)

    if drive.kind is DriveKind.CONTINUOUS:
        a0, b = generator(params)
        with np.errstate(over="ignore", invalid="ignore"):  # wr = inf gives NaN, reported below
            gen = a0 + rabi_frequency(params, drive) * b
        y = propagate(gen, GROUND, t_eval)
    else:
        y = integrate_pulses([(params, drive)], t_eval)[0]

    _check_invariants(t_eval, y)
    return Trajectory(times=t_eval, v=y[0], p0=y[1], p1=y[2], pm=y[3],
                      drive=drive, params=params)


def integrate_pulses(
    cells: Sequence[tuple[DetectorParams, DriveSpec]], t_eval: np.ndarray
) -> np.ndarray:
    """Integrate N pulse-driven cells from the ground state as one 4N-state
    system, y = (y_1, ..., y_N), with LSODA and the exact Jacobian.

    ``cells`` holds (params, drive) pairs whose drives share one envelope;
    they may differ in alpha_sq and in every detector rate, and each must
    pass :func:`_check_preconditions` (the callers check). ``t_eval`` is the
    increasing sample grid from 0. Returns y of shape (N, 4, len(t_eval)).
    The Jacobian is block diagonal, one block A0_k + omega_R,k f(t) B per
    cell, and LSODA gets it as a band. A failed step raises
    IntegrationError; the invariants are left to the caller.
    """
    key = envelope_key(cells[0][1])
    if any(envelope_key(drive) != key for _, drive in cells):
        raise ValueError("stacked pulse cells must share one envelope")
    if len(t_eval) < 2 or t_eval[0] != 0.0 or not np.all(np.diff(t_eval) > 0):
        raise ValueError("t_eval must increase from 0 and hold at least two times")
    env = envelope_for(cells[0][1])

    n = len(cells)
    a0, wb = _stacked_generators(cells)  # wb[k] = omega_R,k B; f(t) is shared
    band_col = 4 * np.arange(n)[:, None, None] + np.arange(4)
    band_a0, band_wb = np.zeros((7, 4 * n)), np.zeros((7, 4 * n))
    band_a0[_BAND_ROW, band_col] = a0
    band_wb[_BAND_ROW, band_col] = wb

    def rhs(t, y):
        return ((a0 + env(t) * wb) @ y.reshape(n, 4, 1)).ravel()

    def jac(t, y):
        return band_a0 + env(t) * band_wb

    def solve(samples, y0, max_step):
        # samples[0] is the start time; an LSODA failure warns and is checked,
        # and overflow shows up as a failure or a non-finite sample
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", ODEintWarning)
            y, info = odeint(rhs, y0, samples, Dfun=jac, ml=3, mu=3, rtol=REL_TOL,
                             atol=ABS_TOL, hmax=max_step, mxstep=MAX_STEPS,
                             full_output=True, tfirst=True)
        if info["message"] != "Integration successful.":
            raise IntegrationError(f"LSODA failed: {info['message']}", float(info["tcur"].max()))
        return y.T

    # Where the envelope is still ~0 at both ends of a step, LSODA sees no
    # error and can step over a pulse that starts late (a late t0, a table
    # that starts late). Until the envelope ends the step is held to 1/16 of
    # its support; from there it is free (hmax 0).
    t_cut = min(env.t_end, t_eval[-1])
    k = int(np.searchsorted(t_eval, t_cut, side="right"))  # samples up to t_cut
    head = solve(np.union1d(t_eval[:k], [t_cut]), np.tile(GROUND, n),
                 (env.t_end - env.t_start) / 16.0)
    y = head[:, :k]
    if k < len(t_eval):
        y = np.hstack([y, solve(np.append(t_cut, t_eval[k:]), head[:, -1], 0.0)[:, 1:]])
    return y.reshape(n, 4, -1)


def _stacked_generators(cells: Sequence[tuple[DetectorParams, DriveSpec]]):
    """The stacks (A0_k) and (omega_R,k B) of N cells, each of shape (N, 4, 4)."""
    gens = [generator(params) for params, _ in cells]
    with np.errstate(over="ignore", invalid="ignore"):  # wr = inf gives NaN, the callers report
        wb = np.array([rabi_frequency(p, d) * b for (p, d), (_, b) in zip(cells, gens)])
    return np.array([a for a, _ in gens]), wb


def pm_at(cells: Sequence[tuple[DetectorParams, DriveSpec]], t_m) -> np.ndarray:
    """pm of N cells (params, drive) with one :func:`envelope_key`, cell k at
    its own time t_m[k] > 0; each cell must pass :func:`_check_preconditions`.
    Continuous cells are one expm of the stack of A0 + omega_R B scaled by t_m,
    slice by slice, so each gets the floats :func:`integrate` gives it. Pulse
    cells are one :func:`integrate_pulses` call on the grid of 0 and every t_m.
    A non-finite sample or a breached invariant raises, for the whole call."""
    key, t_m = envelope_key(cells[0][1]), np.asarray(t_m, dtype=float)
    if any(envelope_key(drive) != key for _, drive in cells) or not np.all(t_m > 0):
        raise ValueError("cells must share one envelope, each with t_m > 0")
    if key[0] is not DriveKind.CONTINUOUS:
        t_eval = np.concatenate(([0.0], np.unique(t_m)))
        y = integrate_pulses(cells, t_eval)
        _check_invariants(t_eval, y)
        return y[np.arange(len(cells)), 3, np.searchsorted(t_eval, t_m)]
    a0, wb = _stacked_generators(cells)
    with np.errstate(over="ignore", invalid="ignore"):  # as in propagate
        y = expm((a0 + wb) * t_m[:, None, None]) @ GROUND
    bad = ~np.isfinite(y).all(axis=1)
    if bad.any():
        raise IntegrationError("propagator is not finite", t_m[np.argmax(bad)])
    _check_invariants(t_m, y.T)  # one sample per cell, at its own t_m
    return y[:, 3]


def envelope_key(drive: DriveSpec) -> tuple:
    """The fields of a drive that shape its envelope: drives with equal keys,
    such as all continuous drives, can share one :func:`pm_at` call."""
    if drive.kind is DriveKind.CONTINUOUS:
        return (drive.kind,)
    return (drive.kind, drive.kappa, drive.sigma, drive.t0, drive.paper_literal,
            drive.table_t, drive.table_f)


def _check_invariants(times: np.ndarray, y: np.ndarray) -> None:
    """Assert the simplex bounds and probability conservation at every sample
    y = (v, p0, p1, pm) of shape (..., 4, len(times)), leading axes being cells."""
    p0, p1, pm = y[..., 1, :], y[..., 2, :], y[..., 3, :]
    for arr, name in ((p0, "p0"), (p1, "p1"), (pm, "pm")):
        outside = ~((arr >= -SIMPLEX_EPS) & (arr <= 1.0 + SIMPLEX_EPS))  # NaN is outside too
        if outside.any():
            i = np.unravel_index(np.argmax(outside), arr.shape)
            raise InvariantViolation(
                f"{name} = {arr[i]} outside [0, 1] by > {SIMPLEX_EPS} at t = {times[i[-1]]}"
            )
    total = p0 + p1 + pm
    if np.any(np.abs(total - 1.0) > SIMPLEX_EPS):
        i = np.unravel_index(np.argmax(np.abs(total - 1.0)), total.shape)
        raise InvariantViolation(
            f"probability sum {total[i]} deviates from 1 at t = {times[i[-1]]}"
        )


def reflection_coefficient(params: DetectorParams, p0, p1):
    """Reflection coefficient for given occupations (scalar or array):
    R = -1 + (2 gamma_tl / gamma_tilde) (p0 - p1).

    |R| > 1 is possible when p1 > p0 (amplification by emission).
    """
    if params.gamma_tilde == 0:
        raise ValueError("gamma_tilde = 0: reflection coefficient undefined")
    return -1.0 + (2.0 * params.gamma_tl / params.gamma_tilde) * (
        np.asarray(p0) - np.asarray(p1)
    )
