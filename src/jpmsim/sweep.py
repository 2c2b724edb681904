"""Parameter sweeps (1D/2D) and 1D maximization of the figure-of-merit.

Every objective shares one grid model: each axis is checked by one array
call of the rule its field has for scalars (``DetectorParams.check``,
``DriveSpec.check``), which gives a mask of the cells that can be built
beside the mesh of swept values. A rate objective is evaluated on the whole
mesh in one call of the rate closed forms, which broadcast over array-valued
rates. The pm_at_tm cells that share one envelope, all continuous-drive
cells among them, go into one :func:`meanfield.pm_at` call. Failures are
isolated per cell so a stiff corner cannot kill a whole run: a call that
fails is retried in halves down to single cells, and a cell without a finite
value is reported failed. Rate-like axes default to log scale since the
interesting structure spans decades.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import meanfield, rate
from .core import DetectorParams, DriveSpec, _require_finite, _require_int, strict_json

#: Each sweepable name and the SweepSpec field a cell sets it on: the
#: detector parameters, the drive or the measurement time.
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
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError(f"axis1 and axis2 both sweep {self.axis1.name!r}; "
                             "they must name different parameters")
        if self.objective == "pm_at_tm" and self.t_m is None:
            raise ValueError("pm_at_tm needs t_m")
        if self.objective in ("eta_finite_n", "steady_pm") and self.n_in is None:
            raise ValueError(f"{self.objective} needs n_in")
        if self.t_m is not None:
            _require_finite("t_m", self.t_m, 0.0, strict=True)
        if self.n_in is not None:
            _require_finite("n_in", self.n_in, 0.0)
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
        """Long format: axis1[,axis2],objective, one row per cell."""
        axes = [(self.spec.axis1.name, self.axis1_values)]
        if self.axis2_values is not None:
            axes.append((self.spec.axis2.name, self.axis2_values))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([name for name, _ in axes] + [self.spec.objective])
            for idx in np.ndindex(self.values.shape):
                w.writerow([f"{grid[i]:.9g}" for (_, grid), i in zip(axes, idx)]
                           + [f"{self.values[idx]:.12g}"])

    def to_json(self) -> str:
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
        return strict_json(data, 2)


def _axis_ok(spec: SweepSpec, name: str, grid: np.ndarray) -> np.ndarray:
    """The mask of the values of an axis that a cell can take, from one array
    call of the field's rule; t_m must be > 0 only where pm_at_tm integrates to it."""
    if name == "t_m":
        return _require_finite(name, grid, 0.0, True, mask=True) | (spec.objective != "pm_at_tm")
    return getattr(spec, PARAM_TARGETS[name]).check(name, grid)


def _rate_values(spec: SweepSpec, mesh: dict, built: np.ndarray) -> np.ndarray:
    """The rate objective on the whole grid in one broadcast call."""
    rates = {name: np.full(built.shape, mesh.get(name, getattr(spec.params, name)))
             for name, target in PARAM_TARGETS.items() if target == "params"}
    # run_sweep has checked each axis, so the array-valued copy skips
    # DetectorParams.__post_init__
    params = copy.copy(spec.params)
    params.__dict__.update(rates)
    if spec.objective == "steady_pm":
        values = rate.steady_state(params, spec.n_in)[2]
    elif spec.objective == "eta":
        values = rate.efficiency(params)
    else:
        values = rate.efficiency_finite_flux(params, spec.n_in)
    return np.where(built, values, np.nan)


def _pm_at_cells(group: list, values: np.ndarray) -> None:
    """pm_at_tm of cells (idx, params, drive, t_m) that share one envelope, in
    one :func:`meanfield.pm_at` call. If it fails, each half of the group is
    tried again the same way, so one failing cell costs about 2 log2(N) calls,
    not N. A single cell that fails is left NaN."""
    try:
        pm = meanfield.pm_at([(p, d) for _, p, d, _ in group], [t_m for *_, t_m in group])
    except Exception:  # isolated by halving
        if len(group) > 1:
            _pm_at_cells(group[:len(group) // 2], values)
            _pm_at_cells(group[len(group) // 2:], values)
        return
    for (idx, *_), pm_k in zip(group, pm):
        values[idx] = pm_k


def _pm_values(spec: SweepSpec, mesh: dict, built: np.ndarray) -> np.ndarray:
    """pm_at_tm of each cell that can be built; the cells are gathered by
    envelope, all continuous-drive cells into one group, and each group is
    one :func:`meanfield.pm_at` call. A cell that fails is NaN."""
    values = np.full(built.shape, np.nan)
    swept = {t: {name: m for name, m in mesh.items() if PARAM_TARGETS[name] == t}
             for t in ("params", "drive")}
    groups = {}  # envelope key -> cells that share it
    for idx in zip(*np.nonzero(built)):
        # the spec's own detector or drive where none of its fields is swept
        params, drive = (replace(getattr(spec, t), **{name: m[idx] for name, m in fields.items()})
                         if fields else getattr(spec, t) for t, fields in swept.items())
        t_m = mesh["t_m"][idx] if "t_m" in mesh else spec.t_m
        # checked per cell, as it takes two fields at once; a failing cell stays out
        with contextlib.suppress(ValueError):
            meanfield._check_preconditions(params, drive)
            groups.setdefault(meanfield.envelope_key(drive), []).append(
                (idx, params, drive, t_m))
    for group in groups.values():
        _pm_at_cells(group, values)
    return values


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the objective on the dense grid.

    Each axis is checked by one array call of its field's rule, for every
    objective: a cell is built only when all of its values pass, and is NaN
    otherwise. A rate objective is evaluated on the whole grid in one
    broadcast call. The pm_at_tm cells are one :func:`meanfield.pm_at` call
    per envelope: one in all for a continuous drive, and for a pulse drive
    unless ``sigma`` or ``kappa`` is swept. Deterministic for a given spec;
    every cell without a finite value is NaN and listed in the result.
    """
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    grids = [ax.grid() for ax in axes]
    mesh = dict(zip([ax.name for ax in axes], np.meshgrid(*grids, indexing="ij")))
    # validity factors by axis: the detector and the drive check each field alone
    ok = [_axis_ok(spec, ax.name, grid) for ax, grid in zip(axes, grids)]
    built = functools.reduce(np.logical_and, np.meshgrid(*ok, indexing="ij", sparse=True))
    values = (_pm_values if spec.objective == "pm_at_tm" else _rate_values)(spec, mesh, built)
    failed = ~np.isfinite(values)
    values[failed] = np.nan
    return SweepResult(spec=spec, axis1_values=grids[0],
                       axis2_values=grids[1] if spec.axis2 is not None else None,
                       values=values, errors=tuple(map(tuple, np.argwhere(failed).tolist())))


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
    return np.array([0.0 if a2 == 0.0 else _pm_at(params, replace(drive, alpha_sq=float(a2)), t_m)
                     for a2 in alpha_grid])
