"""Check that two jpmsim checkouts give byte-identical outputs.

    python tools/same_outputs.py --parent ../jpmsim-parent --change .

Runs a fixed list of ``jpmsim`` command lines in one child process per
checkout, with PYTHONPATH=<checkout>/src, each in a fresh working directory
and with the warning registry reset, as a process of its own would see it.
The list holds ``sweep`` specs (the grids of the change's
``tests/test_sweep.py``, each as JSON and as CSV, and seeded 8x8
continuous-drive grids, some of which overflow) and ``optimize`` runs,
including three that must fail. Compares the exit code, stdout, stderr and
the bytes of every file each command writes, prints every difference and
exits 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

CHILD_TIMEOUT_S = 900.0
SEEDED_GRIDS = 48
OPTIMIZE_SEEDS = 8
#: Axis pairs of the seeded continuous grids; t_m runs linear, rates log.
GRID_AXES = [("gamma_tl", "alpha_sq"), ("gamma_1", "gamma_rel"), ("t_m", "gamma_tl"),
             ("alpha_sq", "t_m"), ("gamma_rel", "alpha_sq"), ("gamma_tl", "gamma_1")]
#: The spec's name of each drive kind, by DriveKind value.
SPEC_KINDS = {"continuous": "continuous", "exponential": "exp", "gaussian": "gauss"}
RATES = ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    return ap.parse_args(argv)


def sweep_cases(name: str, spec: dict) -> list[dict]:
    """A sweep spec run twice: JSON on stdout, and CSV into a file."""
    argv = ["sweep", "--spec", "spec.json"]
    return [{"name": f"{name} json", "argv": argv + ["--format", "json"], "spec": spec},
            {"name": f"{name} csv", "argv": argv + ["--output", "out.csv"], "spec": spec}]


def spec_json(spec) -> dict | None:
    """The CLI sweep spec of a SweepSpec, or None for a drive a spec cannot
    hold inline (a tabulated one is read from a file)."""
    drive, params = spec.drive, spec.params
    freq = params.omega_0 / (2.0 * math.pi)
    if drive.kind.value not in SPEC_KINDS or 2.0 * math.pi * freq != params.omega_0 \
            or drive.omega_s != params.omega_0:
        return None
    raw = {"axis1": vars(spec.axis1), "objective": spec.objective,
           "params": {**{name: getattr(params, name) for name in RATES}, "freq": freq},
           "drive": {"kind": SPEC_KINDS[drive.kind.value], "alpha_sq": drive.alpha_sq,
                     "paper_literal": drive.paper_literal,
                     **{k: getattr(drive, k) for k in ("kappa", "sigma", "t0")
                        if getattr(drive, k) is not None}}}
    if spec.axis2 is not None:
        raw["axis2"] = vars(spec.axis2)
    raw.update({k: getattr(spec, k) for k in ("t_m", "n_in") if getattr(spec, k) is not None})
    return json.loads(json.dumps(raw))  # plain floats, exactly as the file holds them


def test_grid_cases(checkout: Path) -> list[dict]:
    """Every pm_at_tm and rate grid of the checkout's tests/test_sweep.py."""
    sys.path.insert(0, str(checkout / "src"))
    try:
        loader = importlib.util.spec_from_file_location(
            "same_outputs_grids", checkout / "tests" / "test_sweep.py")
        grids = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(grids)
    finally:
        sys.path.remove(str(checkout / "src"))
    specs = {f"stacked {name}": grids.stacked_spec(name) for name in grids.STACKED_GRIDS}
    for seed in (1, 2, 3):
        specs.update({f"pm {name} seed {seed}": grids.pm_spec(name, seed)
                      for name in grids.PM_GRIDS})
        specs.update({f"rate {name} {objective} seed {seed}": grids.rate_spec(name, objective, seed)
                      for name in grids.RATE_GRIDS
                      for objective in ("eta", "steady_pm", "eta_finite_n")})
    return [case for name, spec in specs.items() if (raw := spec_json(spec)) is not None
            for case in sweep_cases(name, raw)]


def seeded_grid(seed: int) -> dict:
    """A seeded 8x8 pm_at_tm spec of a continuous drive; every fourth one
    spans up to 1e200, where cells overflow and fail."""
    rng = np.random.default_rng(seed)
    names = GRID_AXES[seed % len(GRID_AXES)]
    top = 200 if seed % 4 == 3 else 2

    def axis(name):
        if name == "t_m":
            return {"name": name, "min": rng.uniform(0.2, 2.0), "max": rng.uniform(10.0, 60.0),
                    "points": 8, "scale": "linear"}
        lo = 10.0 ** rng.uniform(-3.0, 0.0)
        return {"name": name, "min": lo, "max": lo * 10.0 ** rng.uniform(1.0, top), "points": 8}

    g = rng.uniform(0.05, 3.0, size=4)
    return {"axis1": axis(names[0]), "axis2": axis(names[1]),
            "params": {"gamma_tl": g[0], "gamma_1": g[1], "gamma_rel": 0.2 * g[2],
                       "freq": rng.uniform(1.0, 10.0)},
            "drive": {"kind": "continuous", "alpha_sq": g[3]}, "t_m": rng.uniform(1.0, 40.0)}


def optimize_cases() -> list[dict]:
    cases = []
    for seed in range(OPTIMIZE_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        flags = {"--gamma-1": rng.uniform(0.2, 3.0), "--gamma-rel": rng.uniform(0.0, 0.3),
                 "--alpha-sq": 10.0 ** rng.uniform(-3.0, 0.5), "--t-m": rng.uniform(2.0, 60.0)}
        cases.append({"name": f"optimize seed {seed}",
                      "argv": ["optimize"] + [s for k, v in flags.items() for s in (k, repr(v))]})
    for flag, value in (("--t-m", "0"), ("--gamma-0", "0.1"), ("--alpha-sq", "1e300")):
        argv = ["optimize", "--alpha-sq", "0.1", "--t-m", "20", flag, value]
        cases.append({"name": f"optimize {flag} {value}", "argv": argv})
    return cases


def all_cases(checkout: Path) -> list[dict]:
    seeded = [case for seed in range(SEEDED_GRIDS)
              for case in sweep_cases(f"continuous 8x8 seed {seed}", seeded_grid(seed))]
    return test_grid_cases(checkout) + seeded + optimize_cases()


def run_cases(cases: list[dict], workdir: Path) -> list[dict]:
    """Run each case through jpmsim.cli.main in its own directory under
    ``workdir``; its exit code (or the exception that escaped), stdout,
    stderr and the sha256 of every file it wrote."""
    from jpmsim import cli

    results, home = [], os.getcwd()
    try:
        for i, case in enumerate(cases):
            case_dir = workdir / f"case{i}"
            case_dir.mkdir()
            os.chdir(case_dir)
            if "spec" in case:
                Path("spec.json").write_text(json.dumps(case["spec"]))
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(case["argv"])
                except Exception as exc:  # noqa: BLE001 - a traceback is an output too
                    code = f"uncaught {type(exc).__name__}: {exc}"
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(Path().iterdir()) if p.name != "spec.json"}
            results.append({"name": case["name"], "exit": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue(), "files": files})
    finally:
        os.chdir(home)
    return results


def run_checkout(checkout: Path, cases: list[dict]) -> list[dict]:
    """run_cases in a child process that imports jpmsim from checkout/src."""
    src = (checkout / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                              input=json.dumps(cases), capture_output=True, text=True,
                              cwd=work, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: child exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["jpmsim"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{checkout}: the child imported jpmsim from {out['jpmsim']}")
    # paths in warnings and tracebacks name the checkout
    return json.loads(json.dumps(out["results"]).replace(json.dumps(str(src))[1:-1], "<src>"))


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per case and output that differ between the two sides."""
    if [r["name"] for r in parent] != [r["name"] for r in change]:
        return ["the two sides ran different cases"]
    return [f"{p['name']}: {key} differs: parent {p[key]!r:.300} change {c[key]!r:.300}"
            for p, c in zip(parent, change) for key in ("exit", "stdout", "stderr", "files")
            if p[key] != c[key]]


def failed_cells(results: list[dict]) -> tuple[int, int]:
    """Sweeps with JSON output, and the failed cells they list."""
    sweeps = [json.loads(r["stdout"]) for r in results
              if r["name"].endswith(" json") and r["exit"] == 0]
    return len(sweeps), sum(len(s["failed_cells"]) for s in sweeps)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--child"]:
        import jpmsim

        results = run_cases(json.load(sys.stdin), Path.cwd())
        print(json.dumps({"jpmsim": jpmsim.__file__, "results": results}))
        return 0
    args = parse_args(argv)
    cases = all_cases(args.change)
    sides = {side: run_checkout(getattr(args, side), cases) for side in ("parent", "change")}
    diffs = compare(sides["parent"], sides["change"])
    sweeps, failed = failed_cells(sides["change"])
    print(f"{len(cases)} cases ({sweeps} JSON sweeps with {failed} failed cells): "
          f"{len(diffs)} differences")
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
