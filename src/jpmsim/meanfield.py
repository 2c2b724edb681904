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
LSODA, which switches to a stiff method when the rates call for it, until the
envelope ends. After that the drive is dropped and dy/dt = A0 y is solved in
closed form: v and p1 decay, and what leaves p1 goes to p0 and pm.
:func:`pm_at` gives pm of N cells in one call, where a sweep would make N: one
:func:`propagate` call over the stack of their generators, or one LSODA call
of a 4N-state system, for one detector and one drive whose rates and alpha_sq
are scalars or (N,) arrays. This module assumes a single measurement event and
no dark counts: gamma_res and gamma_0 must be zero.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

# Pulses go through odeint: in scipy 1.17.1 solve_ivp(method="LSODA") leaks
# its LSODA work arrays on every step (about 150 bytes per state component).
# solve_ivp stays importable for the benchmark's tracer (perfbench/spans.py).
from scipy.integrate import ODEintWarning, odeint, solve_ivp  # noqa: F401
from scipy.linalg import expm

from .core import (RATES, SIMPLEX_EPS, DetectorParams, DriveKind, DriveSpec, _require_finite,
                   _require_int)
from .pulses import envelope_for

#: Default sampling past the pulse's end, in units of 1/gamma_1, to capture
#: tunneling that continues after the envelope has passed. These samples come
#: from the closed-form decay of :func:`integrate_pulses`, not from LSODA.
PULSE_TAIL_FACTOR = 10.0

#: Relative and absolute tolerances of the LSODA step (pulse drives). LSODA
#: tests its local error in a weighted max norm, so every component of a
#: stacked state meets them and no cell can hide its error behind the others.
REL_TOL = 1e-9
ABS_TOL = 1e-11

#: Most LSODA steps between two samples before a pulse integration fails.
MAX_STEPS = 100_000

GROUND = (0.0, 1.0, 0.0, 0.0)  # (v, p0, p1, pm)

# B of generator(): omega_R drives v by p0 - p1, and p0 and p1 by -v/2 and +v/2
_DRIVE = np.array([[0.0, 1.0, -1.0, 0.0], [-0.5, 0.0, 0.0, 0.0],
                   [0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


class IntegrationError(RuntimeError):
    """Integration failed; ``t_fail`` holds the time of failure."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} (t = {t_fail:.6g} ns)")
        self.t_fail = t_fail


class InvariantViolation(RuntimeError):
    """A state invariant was breached beyond tolerance at an accepted sample."""


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


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN where it overflows; callers report
def rabi_frequency(params: DetectorParams, drive: DriveSpec) -> float:
    """Constant Rabi rate of a continuous drive:
    omega_R = sqrt(2 alpha_sq gamma_tl omega_0 / pi).

    For pulse drives this returns the prefactor sqrt(2 alpha_sq gamma_tl / pi)
    that multiplies the envelope f(t). Arrays give one rate per cell.
    """
    if drive.kind is DriveKind.CONTINUOUS:
        return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl * drive.omega_s / np.pi)
    return np.sqrt(2.0 * drive.alpha_sq * params.gamma_tl / np.pi)


# A0 has one nonzero per row: entry (i, _A0_COLS[i]), so A0 y = (y @ _A0_PICK) * (those
# entries). v decays, and p1 decays and feeds p0 and pm.
_A0_ROWS, _A0_COLS = np.arange(4), np.array([0, 2, 2, 2])
_A0_PICK = (np.arange(4)[:, None] == _A0_COLS).astype(float)


def _cell_count(params: DetectorParams, drive: DriveSpec, *t_m) -> int:
    """The number N of cells: the one length of ``t_m``, which must be an
    array, and of each rate and alpha_sq that is one; 1 where none is."""
    shapes = {np.shape(v) for v in [getattr(params, n) for n in RATES] + [drive.alpha_sq]
              if np.ndim(v)} | {np.shape(t) for t in t_m}
    if len(shapes) > 1 or any(len(shape) != 1 or not shape[0] for shape in shapes):
        raise ValueError("there must be at least one cell, and t_m and each array among the rates "
                         f"and alpha_sq must be 1-d with one entry per cell; got {sorted(shapes)}")
    return shapes.pop()[0] if shapes else 1


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN where they overflow; callers report
def _a0_rates(params: DetectorParams, n: int = 1) -> np.ndarray:
    """The (n, 4) nonzeros of the A0 of n cells, row i of A0 holding only
    entry (i, _A0_COLS[i]); each rate is a scalar or has one entry per cell."""
    gt, rates = params.gamma_tilde, np.empty((n, 4))
    for j, rate in enumerate((-0.5 * gt, params.gamma_tl + params.gamma_rel, -gt, params.gamma_1)):
        rates[:, j] = rate
    return rates


@np.errstate(invalid="ignore")  # omega_R = inf gives NaN, the callers report
def _generators(params: DetectorParams, drive: DriveSpec, n: int = 1) -> np.ndarray:
    """The (n, 4, 4) stack of A0 + omega_R B of n continuous-drive cells."""
    a0 = np.zeros((n, 4, 4))
    a0[:, _A0_ROWS, _A0_COLS] = _a0_rates(params, n)
    return a0 + np.multiply.outer(rabi_frequency(params, drive), _DRIVE)


def generator(params: DetectorParams) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 matrices (A0, B) of dy/dt = (A0 + omega_R(t) B) y for
    y = (v, p0, p1, pm): A0 holds the decay and tunneling rates, B the drive."""
    a0 = np.zeros((4, 4))
    a0[_A0_ROWS, _A0_COLS] = _a0_rates(params)[0]
    return a0, _DRIVE.copy()


def propagate(gens: np.ndarray, y0, t_eval: np.ndarray) -> np.ndarray:
    """Exact solution of dy/dt = gen_k y from y(0) = y0 for each generator of
    the stack ``gens`` (N, n, n), sampled on its own uniform grid t_eval[k]
    from 0; ``t_eval`` is (N, T) and the result (N, n, T). One step matrix
    expm(gen_k dt_k) is applied sample by sample; scipy's expm scales and
    squares slice by slice, so a slice gets the floats it gets alone. A
    non-finite sample raises IntegrationError at the first such time of the
    first slice that has one."""
    y = np.empty(t_eval.shape[::-1] + (len(y0), 1))  # (T, N, n, 1): contiguous steps
    y[0, ..., 0] = y0
    # overflow shows up as a non-finite sample, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(gens * (t_eval[:, 1, None, None] - t_eval[:, 0, None, None]))
        for k in range(1, len(y)):
            y[k] = step @ y[k - 1]
    if not np.isfinite(y).all():
        bad = ~np.isfinite(y[..., 0].transpose(1, 0, 2)).all(axis=2)  # (N, T)
        raise IntegrationError("propagator is not finite", t_eval.flat[np.argmax(bad)])
    return y[..., 0].transpose(1, 2, 0)


def _check_preconditions(params: DetectorParams, drive: DriveSpec):
    """Whether the mean-field closure applies: the mask of the cells it
    applies to; a scalar field that breaks it raises ValueError saying why."""
    ok = True
    for name, assumes in (("gamma_0", "no dark counts"), ("gamma_res", "single measurement")):
        value = getattr(params, name)
        if isinstance(value, np.ndarray):
            ok = ok & (value == 0.0)
        elif value != 0.0:
            raise ValueError(f"mean-field closure assumes {name} = 0 ({assumes}); "
                             f"got {name} = {value}")
    if not abs(drive.omega_s - params.omega_0) <= 1e-12 * params.omega_0:
        raise ValueError(f"only resonant drive supported: omega_s = {drive.omega_s} "
                         f"!= omega_0 = {params.omega_0}")
    return ok


@np.errstate(over="ignore")  # a default that overflows raises below
def _default_t_end(params: DetectorParams, drive: DriveSpec) -> float:
    if drive.kind is DriveKind.CONTINUOUS:
        if params.gamma_tilde == 0:
            raise ValueError("gamma_tilde = 0: no default t_end (20 / gamma_tilde); pass t_end")
        t_end, rule = 20.0 / params.gamma_tilde, "20 / gamma_tilde"
    else:
        g1 = params.gamma_1
        t_end = envelope_for(drive).t_end + (PULSE_TAIL_FACTOR / g1 if g1 > 0 else 0.0)
        rule = f"the pulse's end + {PULSE_TAIL_FACTOR:g} / gamma_1"
    if not np.isfinite(t_end):
        raise ValueError(f"default t_end = {rule} overflows; pass t_end")
    return t_end


def integrate(
    params: DetectorParams, drive: DriveSpec, t_end: float | None = None, n_samples: int = 400
) -> Trajectory:
    """Integrate the mean-field system from the ground state and sample it at
    ``n_samples`` uniform times from 0 to ``t_end``.

    A continuous drive is propagated exactly with the constant generator
    A0 + omega_R B (:func:`propagate`) and runs by default to 20/gamma_tilde.
    A pulse drive is the one-cell call of :func:`integrate_pulses` and runs by
    default to the end of its envelope's support plus a tunneling tail of
    PULSE_TAIL_FACTOR/gamma_1.

    A non-finite sample raises IntegrationError. Occupation bounds and
    probability conservation are asserted at every sample; a breach raises
    InvariantViolation rather than being clipped.
    """
    if t_end is not None:
        _require_finite("t_end", t_end, 0.0, strict=True, message="t_end must be > 0")
    _require_int("n_samples", n_samples, 2)
    _check_preconditions(params, drive)
    if t_end is None:
        t_end = _default_t_end(params, drive)
    t_eval = np.linspace(0.0, t_end, n_samples)

    if drive.kind is DriveKind.CONTINUOUS:
        y = propagate(_generators(params, drive), GROUND, t_eval[None])[0]
    else:
        y = integrate_pulses(params, drive, t_eval)[0]

    _check_invariants(t_eval, y)
    return Trajectory(times=t_eval, v=y[0], p0=y[1], p1=y[2], pm=y[3],
                      drive=drive, params=params)


def integrate_pulses(params: DetectorParams, drive: DriveSpec, t_eval: np.ndarray) -> np.ndarray:
    """Integrate N pulse-driven cells from the ground state as one 4N-state
    system, y = (y_1, ..., y_N), with LSODA until the envelope ends, and in
    closed form after it.

    The cells share the envelope of ``drive``; each rate and alpha_sq is a
    scalar or an (N,) array, and N is 1 where none is an array. Every cell
    must pass :func:`_check_preconditions` (the callers check). ``t_eval`` is
    the finite, increasing sample grid from 0. Returns y of shape
    (N, 4, len(t_eval)). The Jacobian is block diagonal, one 4x4 block per
    cell, so LSODA forms it, when its stiff method needs one, by differences
    over a band of half-width 3: 7 right-hand-side calls whatever N is. The
    right-hand side takes two small products of the states Y = y.reshape(N, 4),
    with no (N, 4, 4) stack: A0_k y_k is the column of Y that each row of A0
    multiplies (Y @ _A0_PICK) times that row's one nonzero, and the drive part
    is f(t) omega_R,k (Y @ B.T). A failed step raises IntegrationError; the
    invariants are left to the caller.

    LSODA runs once, to t_cut = min(env.t_end, t_eval[-1]). Later samples drop
    the drive (at most e^-18 of its peak for a Gaussian, e^-20 for an
    exponential, 0 for a table) and solve dy/dt = A0 y exactly from t_cut: with
    dt = t - t_cut and g = gamma_tilde, v decays as e^(-g dt/2) and p1 as
    e^(-g dt), and what leaves p1 goes to p0 and pm in the ratio
    gamma_tl + gamma_rel : gamma_1 (gamma_0 = 0).
    """
    n = _cell_count(params, drive)
    env = envelope_for(drive)  # before t_eval: a bad table is the error to report
    if (len(t_eval) < 2 or t_eval[0] != 0.0 or not np.isfinite(t_eval).all()
            or not np.all(np.diff(t_eval) > 0)):
        raise ValueError("t_eval must be finite, increase from 0 and hold at least two times")

    # C-contiguous operands: strided ones made the right-hand side about 20 % slower
    rates = _a0_rates(params, n)
    rabi = np.broadcast_to(rabi_frequency(params, drive), n)[:, None].copy()  # f(t) is shared
    # A cell whose omega_R overflows gets an all-NaN derivative, as
    # (A0 + f omega_R B) y gives it, and ends in a NaN state; inf beside NaN
    # makes LSODA stop with "illegal input" at a garbage time.
    rates[~np.isfinite(rabi[:, 0])] = np.nan
    drive_t = _DRIVE.T.copy()

    def rhs(t, y):
        y = y.reshape(n, 4)
        dy = y.dot(_A0_PICK)
        dy *= rates
        dy += env(t) * rabi * y.dot(drive_t)
        return dy.ravel()

    # Where the envelope is still ~0 at both ends of a step, LSODA sees no
    # error and can step over a pulse that starts late (a late t0, a table
    # that starts late), so the step is held to 1/16 of the support. An LSODA
    # failure warns and is checked; overflow shows up as a failure or a
    # non-finite sample.
    t_cut = min(env.t_end, t_eval[-1])
    k = int(np.searchsorted(t_eval, t_cut, side="right"))  # samples up to t_cut
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ODEintWarning)
        head, info = odeint(rhs, np.tile(GROUND, n), np.union1d(t_eval[:k], [t_cut]),
                            ml=3, mu=3, rtol=REL_TOL, atol=ABS_TOL,
                            hmax=(env.t_end - env.t_start) / 16.0, mxstep=MAX_STEPS,
                            full_output=True, tfirst=True)
    if info["message"] != "Integration successful.":
        raise IntegrationError(f"LSODA failed: {info['message']}", float(info["tcur"].max()))

    # the closed-form tail, empty where t_eval ends by t_cut; a cell with g = 0
    # passes nothing on, so its share of pm is 0 rather than 0/0, and a NaN
    # cell's NaN rates keep it NaN
    v, p0, p1, pm = head[-1].reshape(n, 4).T[:, :, None]
    dt = t_eval[k:] - t_cut
    to_p0_pm = rates[:, 1] + rates[:, 3]
    to_pm = np.divide(rates[:, 3], to_p0_pm, out=np.zeros(n), where=to_p0_pm > 0)[:, None]
    with np.errstate(over="ignore"):  # a rate * dt of -inf decays to exactly 0
        v_rate_dt, p1_rate_dt = rates[:, 0:1] * dt, rates[:, 2:3] * dt
        lost = -p1 * np.expm1(p1_rate_dt)
        tail = [v * np.exp(v_rate_dt), p0 + (lost - lost * to_pm), p1 * np.exp(p1_rate_dt),
                pm + lost * to_pm]
    return np.concatenate([head[:k].T.reshape(n, 4, -1), np.stack(tail, axis=1)], axis=2)


def pm_at(params: DetectorParams, drive: DriveSpec, t_m) -> np.ndarray:
    """pm of N >= 1 cells, cell k at its own finite time t_m[k] > 0: ``t_m``
    is an (N,) array, each rate and alpha_sq a scalar or an (N,) array, and
    every cell must pass :func:`_check_preconditions`. Continuous cells are
    one :func:`propagate` call, cell k on the grid (0, t_m[k]), so each gets
    the floats :func:`integrate` gives it. Pulse cells are one
    :func:`integrate_pulses` call on the grid of 0 and every t_m, one cell
    serving all where nothing is an array. A non-finite sample or a breached
    invariant raises, for the whole call."""
    t_m = np.asarray(t_m, dtype=float)
    n = _cell_count(params, drive, t_m)
    if not np.all(np.isfinite(t_m) & (t_m > 0)):
        raise ValueError("every cell needs t_m > 0 and finite")
    if drive.kind is not DriveKind.CONTINUOUS:
        t_eval = np.concatenate(([0.0], np.unique(t_m)))
        y = integrate_pulses(params, drive, t_eval)
        _check_invariants(t_eval, y)
        return y[np.arange(n) % len(y), 3, np.searchsorted(t_eval, t_m)]
    y = propagate(_generators(params, drive, n), GROUND, np.outer(t_m, [0.0, 1.0]))[..., -1]
    _check_invariants(t_m, y.T)  # one sample per cell, at its own t_m
    return y[:, 3]


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
