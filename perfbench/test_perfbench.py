"""Self-tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q

Each oracle check must pass jpmsim's real output and reject the same output
perturbed by 1e-5; the traced run's exact counts must repeat for one seed;
different seeds must give different inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads as wl  # noqa: E402

EPS = 1e-5


@pytest.fixture()
def workdir():
    path = ROOT / ".perfbench_work" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def make(cls, workdir, seed=7):
    return cls(np.random.default_rng([seed, 0]), workdir)


# ------------------------------------------------------------------ oracles

def test_optimize_checks_reject_perturbed_pm(workdir):
    w = make(wl.Optimize, workdir)
    inp = w.pool[0]
    out = w.op(inp)
    assert w.check(inp, out) == []
    res = json.loads(out[1])
    assert wl.optimize_pm_misses(inp, dict(res, pm=res["pm"] + EPS))


def test_optimize_neighbor_check_rejects_lowered_pm():
    # A weak drive keeps pm(gamma_tl) flat to better than 1e-5 over +-2 %,
    # so lowering the reported maximum by 1e-5 lets a neighbour beat it.
    inp = dict(alpha_sq=2e-5, t_m=40.0, gamma_1=1.0, freq=5.0)
    code, stdout, _ = wl.run_cli(["optimize", "--alpha-sq", "2e-05", "--t-m", "40",
                                  "--gamma-1", "1", "--freq", "5"])
    assert code == 0
    res = json.loads(stdout)
    assert not res["at_boundary"]
    assert wl.optimize_neighbor_misses(inp, res) == []
    assert wl.optimize_neighbor_misses(inp, dict(res, pm=res["pm"] - EPS))


def test_pulse_sweep_checks_reject_perturbed_cell(workdir):
    w = make(wl.PulseSweep, workdir)
    inp = w.pool[0]
    out = w.op(inp)
    assert w.check(inp, out) == []
    res = json.loads(out[1])
    values = np.array(res["values"])
    refs = w.references(inp)
    cell = next(iter(refs))
    values[cell] += EPS
    assert wl.cell_misses(values, refs, wl.PM_TOL)
    values[cell] = np.nan
    assert wl.grid_nan_misses(values, [])
    assert wl.grid_nan_misses(np.zeros((8, 8)), [[0, 1]])


def test_trace_export_checks_reject_perturbed_csv(workdir):
    w = make(wl.TraceExport, workdir)
    for inp in w.pool[:4]:  # one of each drive kind
        out = w.op(inp)
        assert w.check(inp, out) == [], inp["kind"]
        rows = np.loadtxt(w.csv_path, delimiter=",", skiprows=1)
        assert wl.csv_shape_misses(rows[:-1], w.samples)
        bumped = rows.copy()
        bumped[200, 2] += EPS  # p0 of one sample
        assert wl.conservation_misses(bumped)
        bumped = rows.copy()
        bumped[-1, 4] += EPS  # pm(t_end)
        if inp["kind"] == "continuous":
            assert wl.trace_pole_misses(bumped, inp)
        else:
            assert wl.trace_end_misses(bumped, inp["t_end"], w.reference_pm(inp))


def test_rate_map_checks_reject_perturbed_results(workdir):
    w = make(wl.RateMap, workdir)
    for inp in w.pool[:3]:  # one of each objective
        result, report_json = w.op(inp)
        assert w.check(inp, (result, report_json)) == [], inp["spec"].objective
        values = result.values.copy()
        args = (inp["cells"], w.g_tl, w.g_0, inp["params"], inp["n_in"])
        objective = inp["spec"].objective
        if objective == "eta":
            # a cell two grid steps from the peak, raised 1e-5 above it
            j = 5
            i = int(np.argmax(values[:, j]))
            far = i + 2 if i + 2 < w.grid else i - 2
            values[far, j] = values[i, j] + EPS
            assert wl.eta_argmax_misses(values, w.g_tl, w.g_0, inp["params"])
        else:
            cell = inp["cells"][0]
            values[cell] += EPS
            check = (wl.steady_residual_misses if objective == "steady_pm"
                     else wl.finite_flux_misses)
            assert check(values, *args)
        report = json.loads(report_json)
        assert wl.report_misses(dict(report, eta=report["eta"] + EPS))


# ------------------------------------------------------- counts and inputs

def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    return {k: result["metrics"][k]["value"] for k in spans.EXACT_COUNTS}


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    first = traced_counts(workload, 3)
    assert first == traced_counts(workload, 3)
    assert any(v > 0 for v in first.values())


@pytest.mark.parametrize("cls", list(wl.WORKLOADS.values()))
def test_seed_changes_inputs(cls, workdir):
    def inputs(seed):
        w = make(cls, workdir, seed)
        return [repr((inp.get("argv"), inp.get("spec"))) for inp in w.pool]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace_export runs by name but is left out of BENCHMARK.json (README.md)
    listed = [n for n in wl.WORKLOADS if n != "trace_export"]
    assert [w["name"] for w in spec["workloads"]] == listed
    assert {m["name"] for m in spec["per_layer"]} == set(spans.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
