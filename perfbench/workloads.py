"""The four workloads: seeded inputs, the timed op, and the oracle per op.

Each workload builds a small pool of distinct inputs from the seed, and op i
runs pool[i % len(pool)], so every input repeats several times in a run (the
end-to-end rate takes the mean repeat of each input, see run.py). The
inputs form a Latin hypercube over the stated ranges (see latin_hypercube), so
even a pool of four covers the ranges evenly and the cost of a run depends
little on the seed. jpmsim only sees the
generated argv, sweep-spec JSON files and pulse CSV (``rate_map`` calls the
library with a generated SweepSpec).

Every check is a function returning a list of problems; an empty list is a
pass. The self-tests in ``test_perfbench.py`` feed each one a perturbed result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from jpmsim import analytic, cli, rate, sweep
from jpmsim.core import DetectorParams, DriveSpec

import reference

TWO_PI = 2.0 * math.pi
PM_TOL = 1e-6  # jpmsim pm against an oracle
NEIGHBOR_TOL = 1e-8  # RK45 pm is within ~3e-10 of the pole oracle
CONSERVATION_TOL = 1e-6  # |p0 + p1 + pm - 1| per CSV row
RESIDUAL_TOL = 1e-12  # rate_rhs at a reported steady state
FLUX_REL_TOL = 1e-9  # eta_finite_n against the generator's null vector
REPORT_REL_TOL = 1e-12  # eta == eta_loss * eta_det

STRATUM_JITTER = 0.5  # share of its stratum a point may move off the centre


def latin_hypercube(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """n points in [0, 1)^dims: each axis is cut into n strata, each stratum is
    used once, near its centre; the seed pairs the strata across axes and
    jitters each point. The pool's total cost then hardly depends on the seed.
    """
    centre = (np.arange(n)[:, None] + 0.5 + STRATUM_JITTER * (rng.random((n, dims)) - 0.5))
    return np.column_stack([rng.permutation(centre[:, d]) for d in range(dims)]) / n


def log_range(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def lin_range(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def run_cli(argv):
    """jpmsim.cli.main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def lossless(gamma_tl: float, gamma_1: float, freq: float) -> DetectorParams:
    return DetectorParams(gamma_tl=gamma_tl, gamma_0=0.0, gamma_1=gamma_1,
                          gamma_rel=0.0, gamma_res=0.0, omega_0=TWO_PI * freq)


def pole_pm(gamma_tl, gamma_1, freq, alpha_sq, t) -> np.ndarray:
    """Continuous-drive pm(t) from jpmsim's Laplace pole oracle."""
    ps = analytic.continuous_pm_poles(lossless(gamma_tl, gamma_1, freq), alpha_sq)
    return ps.reconstruct(t)


def cli_failure(code: int, stderr: str) -> list[str]:
    return [f"exit code {code}: {stderr.strip()[:200]}"]


# ---------------------------------------------------------------- optimize

def optimize_pm_misses(inp: dict, res: dict) -> list[str]:
    """Reported pm against the pole oracle at the reported gamma_tl."""
    want = float(pole_pm(res["gamma_tl_max"], inp["gamma_1"], inp["freq"], inp["alpha_sq"],
                         inp["t_m"])[0])
    if abs(res["pm"] - want) > PM_TOL:
        return [f"optimize pm {res['pm']!r} vs pole oracle {want!r}"]
    return []


def optimize_neighbor_misses(inp: dict, res: dict) -> list[str]:
    """Unless at the bracket boundary, gamma_tl*(1 +- 2%) must not do better."""
    if res["at_boundary"]:
        return []
    out = []
    for factor in (0.98, 1.02):
        g = res["gamma_tl_max"] * factor
        pm = float(pole_pm(g, inp["gamma_1"], inp["freq"], inp["alpha_sq"], inp["t_m"])[0])
        if pm > res["pm"] + NEIGHBOR_TOL:
            out.append(f"optimize pm {res['pm']!r} beaten by {pm!r} at gamma_tl {g!r}")
    return out


class Optimize:
    """Continuous-drive `jpmsim optimize`: about 39 serial endpoint integrations."""

    name = "optimize"
    count_ops = 2
    pool_size = 8

    def __init__(self, rng: np.random.Generator, workdir):
        self.pool = []
        for u in latin_hypercube(self.pool_size, 4, rng):
            photons = log_range(u[0], 0.3, 30.0)
            t_m = lin_range(u[1], 20.0, 60.0)
            gamma_1 = lin_range(u[2], 0.5, 2.0)
            freq = lin_range(u[3], 4.0, 8.0)
            alpha_sq = photons / (freq * t_m)  # flux alpha_sq * freq photons/ns
            argv = ["optimize", "--alpha-sq", repr(alpha_sq), "--t-m", repr(t_m),
                    "--gamma-1", repr(gamma_1), "--freq", repr(freq)]
            self.pool.append(dict(argv=argv, alpha_sq=alpha_sq, t_m=t_m,
                                  gamma_1=gamma_1, freq=freq))

    def op(self, inp):
        return run_cli(inp["argv"])

    def check(self, inp, out) -> list[str]:
        code, stdout, stderr = out
        if code:
            return cli_failure(code, stderr)
        res = json.loads(stdout)
        return optimize_pm_misses(inp, res) + optimize_neighbor_misses(inp, res)


# ------------------------------------------------------------- pulse_sweep

def grid_nan_misses(values, failed_cells) -> list[str]:
    """No failed cell and no NaN anywhere in the grid."""
    out = [f"failed cells {failed_cells}"] if failed_cells else []
    if not np.all(np.isfinite(values)):
        out.append(f"{int(np.sum(~np.isfinite(values)))} non-finite cells")
    return out


def cell_misses(values, expected: dict, tol: float) -> list[str]:
    """values[i, j] against expected {(i, j): value} within an absolute tol."""
    return [f"cell {cell}: {float(values[cell])!r} vs reference {want!r}"
            for cell, want in expected.items() if not abs(values[cell] - want) <= tol]


class PulseSweep:
    """`jpmsim sweep` of pm_at_tm on an 8x8 gamma_tl x alpha_sq grid, Gaussian drive."""

    name = "pulse_sweep"
    count_ops = 2
    pool_size = 4
    grid = 8
    checked_cells = 3
    workers = 2

    def __init__(self, rng: np.random.Generator, workdir):
        self.pool = []
        self._refs = {}
        for k, u in enumerate(latin_hypercube(self.pool_size, 3, rng)):
            sigma = log_range(u[0], 0.5, 3.0)
            gamma_1 = lin_range(u[1], 0.5, 2.0)
            freq = lin_range(u[2], 4.0, 8.0)
            t_m = 12.0 / (sigma * math.sqrt(2.0)) + 5.0 / gamma_1  # support + 5/gamma_1
            spec = {
                "axis1": {"name": "gamma_tl", "min": 0.1 * gamma_1, "max": 10.0 * gamma_1,
                          "points": self.grid},
                "axis2": {"name": "alpha_sq", "min": 0.05, "max": 5.0, "points": self.grid},
                "objective": "pm_at_tm",
                "params": {"gamma_1": gamma_1, "freq": freq},
                "drive": {"kind": "gauss", "alpha_sq": 1.0, "sigma": sigma},
                "t_m": t_m,
            }
            path = workdir / f"sweep{k}.json"
            path.write_text(json.dumps(spec))
            flat = rng.choice(self.grid * self.grid, self.checked_cells, replace=False)
            cells = [divmod(int(c), self.grid) for c in flat]
            argv = ["sweep", "--spec", str(path), "--format", "json",
                    "--workers", str(self.workers)]
            self.pool.append(dict(key=k, argv=argv, spec=spec, sigma=sigma,
                                  gamma_1=gamma_1, t_m=t_m, cells=cells))

    def references(self, inp) -> dict:
        if inp["key"] not in self._refs:
            a1, a2 = inp["spec"]["axis1"], inp["spec"]["axis2"]
            g_tl = np.geomspace(a1["min"], a1["max"], a1["points"])
            a_sq = np.geomspace(a2["min"], a2["max"], a2["points"])
            pulse = reference.gaussian_pulse(inp["sigma"])
            self._refs[inp["key"]] = {
                (i, j): reference.meanfield_pm(g_tl[i], inp["gamma_1"], a_sq[j], pulse, inp["t_m"])
                for i, j in inp["cells"]
            }
        return self._refs[inp["key"]]

    def op(self, inp):
        return run_cli(inp["argv"])

    def check(self, inp, out) -> list[str]:
        code, stdout, stderr = out
        if code:
            return cli_failure(code, stderr)
        res = json.loads(stdout)
        values = np.array(res["values"], dtype=float)
        if values.shape != (self.grid, self.grid):
            return [f"grid shape {values.shape}"]
        return grid_nan_misses(values, res["failed_cells"]) + cell_misses(
            values, self.references(inp), PM_TOL)


# ------------------------------------------------------------ trace_export

def csv_shape_misses(rows: np.ndarray, samples: int) -> list[str]:
    """The trajectory CSV has `samples` rows of t,v,p0,p1,pm,R."""
    if rows.ndim != 2 or rows.shape != (samples, 6):
        return [f"trajectory CSV shape {rows.shape}, want ({samples}, 6)"]
    return []


def conservation_misses(rows: np.ndarray) -> list[str]:
    """Lossless runs keep p0 + p1 + pm = 1 at every sample."""
    dev = np.abs(rows[:, 2] + rows[:, 3] + rows[:, 4] - 1.0)
    if not np.all(dev <= CONSERVATION_TOL):
        return [f"probability sum off by {float(np.max(dev))!r}"]
    return []


def trace_pole_misses(rows: np.ndarray, inp: dict) -> list[str]:
    """Continuous drive: pm at every sample against the pole oracle."""
    want = pole_pm(inp["gamma_tl"], inp["gamma_1"], inp["freq"], inp["alpha_sq"], rows[:, 0])
    err = np.abs(rows[:, 4] - want)
    if not np.all(err <= PM_TOL):
        return [f"pm off the pole oracle by {float(np.max(err))!r}"]
    return []


def trace_end_misses(rows: np.ndarray, t_end: float, pm_ref: float) -> list[str]:
    """Pulse drive: the last sample is at t_end and matches the reference pm."""
    out = []
    if not abs(rows[-1, 0] - t_end) <= 1e-6 * t_end:
        out.append(f"t_end {float(rows[-1, 0])!r}, want {t_end!r}")
    if not abs(rows[-1, 4] - pm_ref) <= PM_TOL:
        out.append(f"pm(t_end) {float(rows[-1, 4])!r} vs reference {pm_ref!r}")
    return out


class TraceExport:
    """`jpmsim simulate` with a 400-sample CSV, cycling exp, gauss, tab and continuous."""

    name = "trace_export"
    count_ops = 8
    pool_size = 16
    samples = 400
    kinds = ("exp", "gauss", "tab", "continuous")
    # The tabulated pulse is a trapezoid whose kinks sit on multiples of
    # T/31. 1023 = 33 * 31, so they fall on the 1024-point grid the CLI
    # resamples to, and on the CSV's 31 * 64 + 1 points: interpolation then
    # reproduces the shape exactly and the reference can use it analytically.
    tab_parts = 31
    tab_rows = 31 * 64 + 1

    def __init__(self, rng: np.random.Generator, workdir):
        t_total = lin_range(rng.random(), 4.0, 16.0)
        k_rise = int(rng.integers(2, 10))
        k_fall = int(rng.integers(k_rise + 3, self.tab_parts - 1))
        t_rise = k_rise * t_total / self.tab_parts
        t_fall = k_fall * t_total / self.tab_parts
        pulse_csv = workdir / "pulse.csv"
        t, f = reference.trapezoid_samples(t_rise, t_fall, t_total, self.tab_rows)
        pulse_csv.write_text("t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), f.tolist())))
        self.csv_path = workdir / "trajectory.csv"
        self.pool = []
        self._refs = {}
        for k, u in enumerate(latin_hypercube(self.pool_size, 5, rng)):
            kind = self.kinds[k % len(self.kinds)]
            gamma_tl = log_range(u[0], 0.2, 5.0)
            gamma_1 = lin_range(u[1], 0.5, 2.0)
            freq = lin_range(u[2], 4.0, 8.0)
            argv = ["simulate", "--drive", kind, "--gamma-tl", repr(gamma_tl),
                    "--gamma-1", repr(gamma_1), "--freq", repr(freq),
                    "--samples", str(self.samples), "--output", str(self.csv_path)]
            pulse = None
            if kind == "continuous":
                t_end = 20.0 / (gamma_tl + gamma_1)
                alpha_sq = log_range(u[3], 0.3, 30.0) / (freq * t_end)  # photons in window
            else:
                alpha_sq = log_range(u[3], 0.05, 5.0)  # photons in the packet
                if kind == "exp":
                    kappa = log_range(u[4], 0.5, 5.0)
                    argv += ["--kappa", repr(kappa)]
                    pulse, support = reference.exponential_pulse(kappa), 40.0 / kappa
                elif kind == "gauss":
                    sigma = log_range(u[4], 0.5, 3.0)
                    argv += ["--sigma", repr(sigma)]
                    pulse = reference.gaussian_pulse(sigma)
                    support = 12.0 / (sigma * math.sqrt(2.0))
                else:
                    argv += ["--pulse-file", str(pulse_csv)]
                    pulse = reference.trapezoid_pulse(t_rise, t_fall, t_total)
                    support = t_total
                t_end = support + 10.0 / gamma_1  # jpmsim's default tunnelling tail
            argv += ["--alpha-sq", repr(alpha_sq)]
            self.pool.append(dict(key=k, kind=kind, argv=argv, gamma_tl=gamma_tl,
                                  gamma_1=gamma_1, freq=freq, alpha_sq=alpha_sq,
                                  t_end=t_end, pulse=pulse))

    def reference_pm(self, inp) -> float:
        if inp["key"] not in self._refs:
            self._refs[inp["key"]] = reference.meanfield_pm(
                inp["gamma_tl"], inp["gamma_1"], inp["alpha_sq"], inp["pulse"], inp["t_end"])
        return self._refs[inp["key"]]

    def op(self, inp):
        return run_cli(inp["argv"])

    def check(self, inp, out) -> list[str]:
        code, _, stderr = out
        if code:
            return cli_failure(code, stderr)
        rows = np.loadtxt(self.csv_path, delimiter=",", skiprows=1, ndmin=2)
        problems = csv_shape_misses(rows, self.samples)
        if problems:
            return problems
        problems = conservation_misses(rows)
        if inp["kind"] == "continuous":
            return problems + trace_pole_misses(rows, inp)
        return problems + trace_end_misses(rows, inp["t_end"], self.reference_pm(inp))


# ---------------------------------------------------------------- rate_map

def eta_argmax_misses(values, g_tl, g_0, base: DetectorParams) -> list[str]:
    """Per gamma_0 column, the eta argmax is within one grid step of matching."""
    step = math.log(g_tl[1] / g_tl[0])
    out = []
    for j, g0 in enumerate(g_0):
        best = float(g_tl[int(np.argmax(values[:, j]))])
        match = rate.matching_gamma_tl(DetectorParams(
            gamma_tl=1.0, gamma_0=g0, gamma_1=base.gamma_1, gamma_rel=base.gamma_rel,
            gamma_res=base.gamma_res, omega_0=base.omega_0))
        if abs(math.log(best / match)) > step * (1.0 + 1e-9):
            out.append(f"eta argmax {best!r} vs matching {match!r} at gamma_0 {float(g0)!r}")
    return out


def cell_params(base: DetectorParams, gamma_tl: float, gamma_0: float) -> DetectorParams:
    return DetectorParams(gamma_tl=gamma_tl, gamma_0=gamma_0, gamma_1=base.gamma_1,
                          gamma_rel=base.gamma_rel, gamma_res=base.gamma_res,
                          omega_0=base.omega_0)


def steady_residual_misses(values, cells, g_tl, g_0, base, n_in) -> list[str]:
    """A reported stationary pm, with p0 and p1 rebuilt from dp1/dt = 0 and
    normalization, leaves a zero rate_rhs residual."""
    out = []
    for i, j in cells:
        p = cell_params(base, g_tl[i], g_0[j])
        bn = (2.0 / math.pi) * p.gamma_tl / p.gamma_tilde * n_in
        c = bn / (bn + p.gamma_tl + p.gamma_1 + p.gamma_rel)
        pm = values[i, j]
        p0 = (1.0 - pm) / (1.0 + c)
        res = float(np.max(np.abs(rate.rate_rhs(p, n_in, (p0, c * p0, pm)))))
        if not res <= RESIDUAL_TOL:
            out.append(f"steady_pm cell {(i, j)}: rate_rhs residual {res!r}")
    return out


def finite_flux_misses(values, cells, g_tl, g_0, base, n_in) -> list[str]:
    """eta_finite_n cells against the generator's null vector."""
    out = []
    for i, j in cells:
        rates = (g_tl[i], g_0[j], base.gamma_1, base.gamma_rel, base.gamma_res)
        want = reference.eta_finite_flux(rates, n_in)
        if not abs(values[i, j] - want) <= FLUX_REL_TOL * abs(want):
            out.append(f"eta_finite_n cell {(i, j)}: {float(values[i, j])!r} vs {float(want)!r}")
    return out


def report_misses(report: dict) -> list[str]:
    """The efficiency report satisfies eta == eta_loss * eta_det."""
    prod = report["eta_loss"] * report["eta_det"]
    if not abs(report["eta"] - prod) <= REPORT_REL_TOL * max(1.0, abs(prod)):
        return [f"report eta {report['eta']!r} != eta_loss * eta_det {prod!r}"]
    return []


class RateMap:
    """Library `sweep.run_sweep` on a 32x32 gamma_tl x gamma_0 grid, then a report."""

    name = "rate_map"
    count_ops = 6
    pool_size = 12
    grid = 32
    checked_cells = 8
    objectives = ("eta", "steady_pm", "eta_finite_n")

    def __init__(self, rng: np.random.Generator, workdir):
        self.pool = []
        axis1 = sweep.SweepAxis("gamma_tl", 0.01, 100.0, self.grid)
        axis2 = sweep.SweepAxis("gamma_0", 1e-4, 1e-1, self.grid)
        self.g_tl = np.geomspace(0.01, 100.0, self.grid)
        self.g_0 = np.geomspace(1e-4, 1e-1, self.grid)
        for k, u in enumerate(latin_hypercube(self.pool_size, 6, rng)):
            params = DetectorParams(
                gamma_tl=1.0,
                gamma_0=log_range(u[0], 1e-4, 1e-1),
                gamma_1=lin_range(u[1], 0.5, 2.0),
                gamma_rel=lin_range(u[2], 0.0, 0.2),
                gamma_res=log_range(u[3], 1.0, 100.0),
                omega_0=TWO_PI * lin_range(u[4], 4.0, 8.0),
            )
            n_in = log_range(u[5], 1e-3, 1.0)
            spec = sweep.SweepSpec(
                axis1=axis1, axis2=axis2, params=params,
                drive=DriveSpec.continuous(0.0, params.omega_0),
                objective=self.objectives[k % len(self.objectives)], n_in=n_in)
            flat = rng.choice(self.grid * self.grid, self.checked_cells, replace=False)
            cells = [divmod(int(c), self.grid) for c in flat]
            self.pool.append(dict(spec=spec, params=params, n_in=n_in, cells=cells))

    def op(self, inp):
        result = sweep.run_sweep(inp["spec"])
        return result, rate.build_report(inp["params"], n_in=inp["n_in"]).to_json()

    def check(self, inp, out) -> list[str]:
        result, report_json = out
        values = result.values
        problems = grid_nan_misses(values, list(result.errors))
        if problems:
            return problems
        objective = inp["spec"].objective
        args = (values, inp["cells"], self.g_tl, self.g_0, inp["params"], inp["n_in"])
        if objective == "eta":
            problems = eta_argmax_misses(values, self.g_tl, self.g_0, inp["params"])
        elif objective == "steady_pm":
            problems = steady_residual_misses(*args)
        else:
            problems = finite_flux_misses(*args)
        return problems + report_misses(json.loads(report_json))


WORKLOADS = {w.name: w for w in (Optimize, PulseSweep, TraceExport, RateMap)}
