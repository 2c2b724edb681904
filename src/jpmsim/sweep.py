"""Parameter sweeps (1D/2D) and 1D maximization of the figure-of-merit.

The pm_at_tm cells of a pulse drive are integrated together: all cells that
share one envelope go into one stacked :func:`meanfield.integrate_pulses`
call. Rate objectives and continuous-drive cells run serially in row-major
order, one cell after another; a thread pool does not help there, because
each cell holds the interpreter lock, and threads measured slower than the
serial loop. Failures are isolated per cell so a stiff corner cannot kill a
whole run: a stacked call that fails, or a cell of it that breaks an
invariant, falls back to integrating each of its cells alone. Rate-like axes
default to log scale since the interesting structure spans decades.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import meanfield, rate
from .core import DetectorParams, DriveKind, DriveSpec, _require_finite, _require_int, strict_json

#: Each sweepable name and the object a cell sets it on: the detector
#: parameters, the drive or the measurement time.
PARAM_TARGETS = {
    **dict.fromkeys(("gamma_tl", "gamma_1", "gamma_0", "gamma_rel", "gamma_res"), "params"),
    **dict.fromkeys(("alpha_sq", "kappa", "sigma"), "drive"),
    "t_m": "t_m",
}
PARAM_NAMES = frozenset(PARAM_TARGETS)

OBJECTIVES = frozenset({"pm_at_tm", "eta", "eta_finite_n", "steady_pm"})

#: optimize_gamma_tl: points of the coarse log grid that brackets the maximum,
#: and the relative tolerance on gamma_tl of the refinement.
COARSE_POINTS = 25
GAMMA_TL_REL_TOL = 1e-3


@dataclass(frozen=True)
class SweepAxis:
    name: str
    min: float
    max: float
    points: int
    scale: str = "log"

    def __post_init__(self):
        if self.name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {self.name!r}; allowed: {sorted(PARAM_NAMES)}")
        _require_finite("min", self.min)
        _require_finite("max", self.max)
        _require_int("points", self.points, 1)
        if self.points >= 2 and not self.min < self.max:
            raise ValueError("need min < max")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.min <= 0:
            raise ValueError("log axis needs min > 0")

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.min])
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.points)
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: axes, objective, and the fixed baseline."""

    axis1: SweepAxis
    params: DetectorParams
    drive: DriveSpec
    objective: str = "pm_at_tm"
    axis2: SweepAxis | None = None
    t_m: float | None = None  # pm_at_tm only
    n_in: float | None = None  # eta_finite_n / steady_pm only

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.objective == "pm_at_tm" and self.t_m is None:
            raise ValueError("pm_at_tm needs t_m")
        if self.objective in ("eta_finite_n", "steady_pm") and self.n_in is None:
            raise ValueError(f"{self.objective} needs n_in")
        if self.t_m is not None:
            _require_finite("t_m", self.t_m)
            if self.t_m <= 0:
                raise ValueError(f"t_m must be > 0, got {self.t_m}")
        if self.n_in is not None:
            _require_finite("n_in", self.n_in)
            if self.n_in < 0:
                raise ValueError(f"n_in must be >= 0, got {self.n_in}")
            if self.objective == "eta_finite_n" and self.n_in == 0:
                raise ValueError("eta_finite_n needs n_in > 0")


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray | None
    values: np.ndarray  # shape (n1,) or (n1, n2); failed cells are NaN
    errors: tuple[tuple[int, ...], ...]  # cell indices that failed

    def to_csv(self, path) -> None:
        """Long format: axis1[,axis2],objective."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if self.axis2_values is None:
                w.writerow([self.spec.axis1.name, self.spec.objective])
                for x, val in zip(self.axis1_values, self.values):
                    w.writerow([f"{x:.9g}", f"{val:.12g}"])
            else:
                w.writerow(
                    [self.spec.axis1.name, self.spec.axis2.name, self.spec.objective]
                )
                for i, x in enumerate(self.axis1_values):
                    for j, y in enumerate(self.axis2_values):
                        w.writerow([f"{x:.9g}", f"{y:.9g}", f"{self.values[i, j]:.12g}"])

    def to_json(self, indent: int = 2) -> str:
        data = {
            "objective": self.spec.objective,
            "axis1": {"name": self.spec.axis1.name, "values": self.axis1_values.tolist()},
            "values": self.values.tolist(),
            "failed_cells": [list(c) for c in self.errors],
        }
        if self.axis2_values is not None:
            data["axis2"] = {
                "name": self.spec.axis2.name,
                "values": self.axis2_values.tolist(),
            }
        return strict_json(data, indent)


def _evaluate_cell(spec: SweepSpec, params: DetectorParams, drive: DriveSpec, t_m) -> float:
    if spec.objective == "pm_at_tm":
        return _pm_at(params, drive, t_m)
    if spec.objective == "steady_pm":
        _, _, pm = rate.steady_state(params, spec.n_in)
        return float(pm)
    if spec.objective == "eta":
        return rate.efficiency(params)
    if spec.objective == "eta_finite_n":
        return rate.efficiency_finite_flux(params, spec.n_in)
    raise AssertionError(spec.objective)


def _pm_at_pulses(group: list, values: np.ndarray, errors: list) -> None:
    """pm_at_tm of pulse cells (idx, params, drive, t_m) that share one
    envelope, in one stacked integration up to the largest t_m. A cell is
    integrated alone instead if the stacked call fails or its stacked
    trajectory breaks an invariant; a cell that fails alone too is left NaN
    and its index goes to ``errors``."""
    t_eval = np.concatenate(([0.0], np.unique([t_m for *_, t_m in group])))
    try:
        y = meanfield.integrate_pulses([(p, d) for _, p, d, _ in group], t_eval)
    except Exception:  # per-cell isolation below
        y = None
    for k, (idx, params, drive, t_m) in enumerate(group):
        if y is not None:
            traj = meanfield.Trajectory(t_eval, *y[k], drive=drive, params=params)
            try:
                meanfield._check_invariants(traj)
                values[idx] = traj.pm[np.searchsorted(t_eval, t_m)]
                continue
            except meanfield.InvariantViolation:
                pass
        try:
            values[idx] = _pm_at(params, drive, t_m)
        except Exception:  # per-cell isolation
            errors.append(idx)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the objective on the dense grid.

    The pm_at_tm cells of a pulse drive are integrated in one stacked call
    per envelope (one in all unless ``sigma`` or ``kappa`` is swept); every
    other cell is evaluated on its own. Deterministic for a given spec;
    per-cell failures become NaN and are listed in the result.
    """
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    grids = [ax.grid() for ax in axes]
    values = np.full([g.size for g in grids], np.nan)
    errors = []
    stacked = spec.objective == "pm_at_tm" and spec.drive.kind is not DriveKind.CONTINUOUS
    groups = {}  # envelope key -> pulse cells that share it
    for idx in np.ndindex(values.shape):
        cell = {"params": {}, "drive": {}, "t_m": {}}  # the swept fields by target
        for ax, g, i in zip(axes, grids, idx):
            cell[PARAM_TARGETS[ax.name]][ax.name] = g[i]
        try:
            params = replace(spec.params, **cell["params"]) if cell["params"] else spec.params
            drive = replace(spec.drive, **cell["drive"]) if cell["drive"] else spec.drive
            t_m = cell["t_m"].get("t_m", spec.t_m)
            if stacked:
                # a cell that fails alone is kept out of its group
                if not t_m > 0:
                    raise ValueError(f"t_m must be > 0, got {t_m}")
                meanfield._check_preconditions(params, drive)
                groups.setdefault(meanfield.envelope_key(drive), []).append(
                    (idx, params, drive, t_m))
            else:
                values[idx] = _evaluate_cell(spec, params, drive, t_m)
        except Exception:  # per-cell isolation
            errors.append(idx)
    for group in groups.values():
        _pm_at_pulses(group, values, errors)

    return SweepResult(
        spec=spec,
        axis1_values=grids[0],
        axis2_values=grids[1] if spec.axis2 is not None else None,
        values=values,
        errors=tuple(sorted(errors)),
    )


@dataclass(frozen=True)
class OptimizeResult:
    gamma_tl: float
    pm: float
    at_boundary: bool


def _pm_at(params: DetectorParams, drive: DriveSpec, t_m: float) -> float:
    cfg = meanfield.IntegratorConfig(t_end=t_m, n_samples=2)
    return float(meanfield.integrate(params, drive, cfg).pm[-1])


def optimize_gamma_tl(
    drive: DriveSpec,
    params: DetectorParams,
    t_m: float,
    bracket: tuple[float, float] = (1e-2, 1e2),
) -> OptimizeResult:
    """Maximize pm(t_m) over gamma_tl by bounded Brent search on log scale.

    A coarse log grid first brackets the maximum; if the best coarse point
    sits on the range boundary the boundary value is returned with
    ``at_boundary=True`` instead of pretending convergence.
    """
    coarse = np.linspace(math.log10(bracket[0]), math.log10(bracket[1]), COARSE_POINTS)
    vals = [_pm_at(replace(params, gamma_tl=10.0**x), drive, t_m) for x in coarse]
    k = int(np.argmax(vals))
    if k == 0 or k == COARSE_POINTS - 1:
        return OptimizeResult(gamma_tl=10.0 ** coarse[k], pm=vals[k], at_boundary=True)

    res = minimize_scalar(
        lambda x: -_pm_at(replace(params, gamma_tl=10.0**x), drive, t_m),
        bounds=(coarse[k - 1], coarse[k + 1]),
        method="bounded",
        options={"xatol": math.log10(1.0 + GAMMA_TL_REL_TOL)},
    )
    return OptimizeResult(gamma_tl=10.0**res.x, pm=-res.fun, at_boundary=False)


def grid_argmax_gamma_tl(
    drive: DriveSpec,
    params: DetectorParams,
    t_m: float,
    bracket: tuple[float, float] = (1e-2, 1e2),
    points: int = 400,
) -> float:
    """Brute-force log-grid maximizer; independent oracle for the optimizer."""
    grid = np.geomspace(bracket[0], bracket[1], points)
    vals = [_pm_at(replace(params, gamma_tl=g), drive, t_m) for g in grid]
    return float(grid[int(np.argmax(vals))])


def saturation_curve(
    params: DetectorParams,
    drive: DriveSpec,
    t_m: float,
    alpha_grid,
) -> np.ndarray:
    """pm(t_m) versus drive amplitude at the baseline gamma_tl."""
    out = np.empty(len(alpha_grid))
    for i, a2 in enumerate(alpha_grid):
        d = replace(drive, alpha_sq=float(a2))
        out[i] = 0.0 if a2 == 0.0 else _pm_at(params, d, t_m)
    return out
