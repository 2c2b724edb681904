"""Check that two jpmsim checkouts give byte-identical outputs.

    python tools/same_outputs.py --parent ../jpmsim-parent --change .

Runs a fixed list of ``jpmsim`` command lines in one child process per
checkout, with PYTHONPATH=<checkout>/src, each in a fresh working directory
and with the warning registry reset, as a process of its own would see it.
The list holds ``sweep`` specs (the grids of the change's
``tests/test_sweep.py``, each as JSON and as CSV, and seeded 8x8
continuous-drive grids, some of which overflow), ``optimize`` runs,
including one that ends on the range boundary and five that must fail,
seeded ``simulate`` runs of every drive kind (a tabulated pulse from a CSV
the tool writes) and ``compare`` runs, with the errors of their sampling
flags, ``analytic`` runs, some of which overflow or sit on a double pole,
the parser's own outputs (help, usage errors and ``--config`` runs, each
followed by the same command without ``--config``, so that a default that
outlives its call shows), inputs whose results overflow, ``--config`` beside
another problem of the argv, and a spiked 4,001-row pulse file through
``simulate`` and ``sweep``. Compares the
exit code, stdout, stderr and the bytes of every file each command writes,
prints every difference and exits 1 if there is one, else 0.
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
OPTIMIZE_SEEDS = 32
SIMULATE_SEEDS = 24
COMPARE_SEEDS = 8
ANALYTIC_SEEDS = 8
#: Axis pairs of the seeded continuous grids; t_m runs linear, rates log.
GRID_AXES = [("gamma_tl", "alpha_sq"), ("gamma_1", "gamma_rel"), ("t_m", "gamma_tl"),
             ("alpha_sq", "t_m"), ("gamma_rel", "alpha_sq"), ("gamma_tl", "gamma_1")]
#: The spec's name of each drive kind, by DriveKind value.
SPEC_KINDS = {"continuous": "continuous", "exponential": "exp", "gaussian": "gauss"}
RATES = ("gamma_tl", "gamma_0", "gamma_1", "gamma_rel", "gamma_res")
#: Each subcommand with the flags of one quick run; the required flags come
#: first, and a subcommand without any has none to leave out.
COMMANDS = {
    "simulate": (["--drive", "continuous"],
                 ["--alpha-sq", "0.1", "--t-end", "5", "--samples", "3"]),
    "compare": (["--alpha-sq", "0.1"], ["--t-end", "5", "--samples", "3"]),
    "efficiency": ([], ["--gamma-res", "1"]),
    "nep": ([], ["--gamma-0", "0.01", "--gamma-res", "1"]),
    "match": ([], []),
    "analytic": (["--mode", "poles", "--alpha-sq", "0.1"], []),
    "optimize": (["--alpha-sq", "0.1", "--t-m", "20"], []),
    "sweep": (["--spec", "spec.json"], ["--format", "json"]),
}
#: A --config file of keys each subcommand has, run before the plain command.
COMMAND_CONFIGS = {"analytic": {"gamma_1": 2.0, "order": 3}, "sweep": {"output": "out.csv"}}
SWEEP_SPEC = {"axis1": {"name": "gamma_tl", "min": 0.5, "max": 2.0, "points": 3},
              "objective": "eta", "params": {"gamma_res": 10.0}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    return ap.parse_args(argv)


def sweep_cases(name: str, spec: dict) -> list[dict]:
    """A sweep spec run twice: JSON on stdout, and CSV into a file."""
    argv, inputs = ["sweep", "--spec", "spec.json"], {"spec.json": json.dumps(spec)}
    return [{"name": f"{name} json", "argv": argv + ["--format", "json"], "inputs": inputs},
            {"name": f"{name} csv", "argv": argv + ["--output", "out.csv"], "inputs": inputs}]


def command_line(command: str, flags: dict) -> list[str]:
    """argv of ``command`` with each flag's value, a float written with repr."""
    return [command] + [s for k, v in flags.items()
                        for s in (k, v if isinstance(v, str) else repr(v))]


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
    """Seeded ``optimize`` runs, the second half of them over the ranges of
    the benchmark's ``optimize`` workload (photons 0.3-30 in t_m 20-60 ns,
    gamma_1 0.5-2, freq 4-8), then one run that ends on the range boundary
    and five that must fail."""
    cases = []
    for seed in range(OPTIMIZE_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        if seed < OPTIMIZE_SEEDS // 2:
            flags = {"--gamma-1": rng.uniform(0.2, 3.0), "--gamma-rel": rng.uniform(0.0, 0.3),
                     "--alpha-sq": 10.0 ** rng.uniform(-3.0, 0.5),
                     "--t-m": rng.uniform(2.0, 60.0)}
        else:
            photons = 10.0 ** rng.uniform(math.log10(0.3), math.log10(30.0))
            t_m, freq = rng.uniform(20.0, 60.0), rng.uniform(4.0, 8.0)
            flags = {"--gamma-1": rng.uniform(0.5, 2.0), "--freq": freq,
                     "--alpha-sq": photons / (freq * t_m), "--t-m": t_m}
        cases.append({"name": f"optimize seed {seed}", "argv": command_line("optimize", flags)})
    for flag, value in (("--alpha-sq", "0"), ("--t-m", "0"), ("--t-m", "nan"),
                        ("--gamma-0", "0.1"), ("--gamma-1", "0"), ("--alpha-sq", "1e300")):
        argv = ["optimize", "--alpha-sq", "0.1", "--t-m", "20", flag, value]
        cases.append({"name": f"optimize {flag} {value}", "argv": argv})
    return cases


def pulse_table(rng: np.random.Generator) -> str:
    """A two-column (t, f) CSV of a seeded sine-squared pulse."""
    t = np.linspace(0.0, rng.uniform(2.0, 10.0), 33)
    f = rng.uniform(0.2, 2.0) * np.sin(np.pi * t / t[-1]) ** 2
    return "t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), f.tolist()))


def detector_flags(rng: np.random.Generator) -> dict:
    return {"--gamma-tl": rng.uniform(0.2, 3.0), "--gamma-1": rng.uniform(0.2, 3.0),
            "--gamma-rel": rng.uniform(0.0, 0.3), "--freq": rng.uniform(4.0, 8.0),
            "--alpha-sq": 10.0 ** rng.uniform(-3.0, 0.0)}


def simulate_cases() -> list[dict]:
    """Seeded ``simulate`` runs of each drive kind, writing the trajectory
    with --output, every other one with --t-end and --samples; seeded
    ``compare`` runs, half of them into a file; and runs that must fail:
    bad --samples and --t-end (with a second fault, where t_end must stay
    the error reported) and a Gaussian width whose square overflows."""
    cases = []
    for seed in range(SIMULATE_SEEDS):
        rng = np.random.default_rng(2000 + seed)
        kind = ("continuous", "exp", "gauss", "tab")[seed % 4]
        flags, inputs = {"--drive": kind, **detector_flags(rng)}, {}
        if kind == "exp":
            flags["--kappa"] = rng.uniform(0.3, 3.0)
        elif kind == "gauss":
            flags.update({"--sigma": rng.uniform(0.5, 2.0), "--t0": rng.uniform(9.0, 15.0)})
        elif kind == "tab":
            flags["--pulse-file"], inputs = "pulse.csv", {"pulse.csv": pulse_table(rng)}
        if seed % 8 >= 4:
            flags.update({"--t-end": rng.uniform(5.0, 40.0),
                          "--samples": int(rng.integers(2, 300))})
        cases.append({"name": f"simulate {kind} seed {seed}", "inputs": inputs,
                      "argv": command_line("simulate", flags) + ["--output", "traj.csv"]})
    for seed in range(COMPARE_SEEDS):
        rng = np.random.default_rng(3000 + seed)
        flags = detector_flags(rng)
        if seed % 2:
            flags.update({"--t-end": rng.uniform(5.0, 40.0),
                          "--samples": int(rng.integers(2, 300)), "--output": "gap.csv"})
        cases.append({"name": f"compare seed {seed}", "argv": command_line("compare", flags)})
    for command in (["simulate", "--drive", "continuous"], ["compare"]):
        for bad in (["--samples", "1"], ["--t-end", "0"], ["--t-end", "nan"],
                    ["--gamma-0", "0.1", "--t-end", "0"]):
            cases.append({"name": f"{command[0]} {' '.join(bad)}",
                          "argv": command + ["--alpha-sq", "0.1"] + bad})
    cases.append({"name": "simulate --sigma 1e300", "argv": [
        "simulate", "--drive", "gauss", "--sigma", "1e300", "--alpha-sq", "0.1"]})
    return cases


def analytic_cases() -> list[dict]:
    """Seeded ``analytic`` runs of both modes, then runs that must fail: an
    exponential pulse whose series overflows or divides by zero, and the
    poles of gamma_tl = gamma_1 = 1 at 5 GHz on the cubic's double root."""
    cases = []
    for seed in range(ANALYTIC_SEEDS):
        rng = np.random.default_rng(4000 + seed)
        flags = {k: v for k, v in detector_flags(rng).items() if k != "--gamma-rel"}
        cases.append({"name": f"analytic poles seed {seed}",
                      "argv": command_line("analytic", {"--mode": "poles", **flags})})
        flags.update({"--mode": "exp-steady", "--kappa": 10.0 ** rng.uniform(0.0, 1.0)})
        cases.append({"name": f"analytic exp-steady seed {seed}",
                      "argv": command_line("analytic", flags)})
    for kappa in ("1e-300", "1e300"):
        cases.append({"name": f"analytic exp-steady --kappa {kappa}", "argv": [
            "analytic", "--mode", "exp-steady", "--alpha-sq", "0.1", "--kappa", kappa]})
    cases.append({"name": "analytic poles double root", "argv": [
        "analytic", "--mode", "poles", "--alpha-sq", "0.018890254169653932"]})
    return cases


def parser_cases() -> list[dict]:
    """The parser's outputs: help, no command and an unknown one; for each
    subcommand its help, an unrecognized flag (the top-level usage), a
    missing required flag (or a flag without its value), a bad value and a
    run. Then ``--config`` runs: keys that every command or one command has,
    an unknown key and a file that is not a JSON object, each followed by the
    same command without ``--config``."""
    inputs = {"spec.json": json.dumps(SWEEP_SPEC)}
    cases = [{"name": "--help", "argv": ["--help"]}, {"name": "no command", "argv": []},
             {"name": "unknown command", "argv": ["bogus", "--gamma-1", "1"]}]
    for command, (required, extra) in COMMANDS.items():
        run = [command, *required, *extra]
        missing = [command, *required[2:], *extra] if required else [command, "--gamma-1"]
        bad = ([command, *required, "--format", "xml"] if command == "sweep"
               else [*run, "--gamma-1", "one"])
        for name, argv in (("--help", [command, "--help"]),
                           ("unrecognized flag", run + ["--bogus"]),
                           ("missing flag", missing), ("bad value", bad), ("run", run)):
            cases.append({"name": f"{command} {name}", "argv": argv, "inputs": inputs})
    configs = [(command, COMMAND_CONFIGS.get(command, {"gamma_1": 2.0}))
               for command in COMMANDS]
    configs += [("match", {"gamma_1": 3.0, "gamma_rel": 0.5, "freq": 6.0}),
                ("match", {"gama_1": 2.0}), ("efficiency", [1.0]), ("nep", "gamma_1")]
    for i, (command, config) in enumerate(configs):
        required, extra = COMMANDS[command]
        run = [command, *required, *extra]
        with_config = {**inputs, "config.json": json.dumps(config)}
        cases.append({"name": f"--config {json.dumps(config)} {command}",
                      "argv": ["--config", "config.json", *run], "inputs": with_config})
        cases.append({"name": f"{command} after --config {i}", "argv": run, "inputs": inputs})
    return cases


def overflow_cases() -> list[dict]:
    """Finite inputs whose result, pulse support or default t_end overflows,
    and a sweep of Gaussian cells whose width is the smallest float."""
    argvs = [
        ["optimize", "--gamma-1", "5e-324", "--gamma-rel", "1e20", "--freq", "5e-324",
         "--alpha-sq", "0.1", "--t-m", "30"],
        ["match", "--gamma-tl", "1e8", "--gamma-rel", "1e300", "--freq", "0.5"],
        ["nep", "--matched", "--gamma-rel", "1e300"],
        ["compare", "--samples", "3", "--gamma-tl", "0.5", "--gamma-1", "0.5",
         "--gamma-rel", "1e300", "--alpha-sq", "0.1"],
        ["efficiency", "--gamma-res", "1", "--gamma-rel", "1e300"],
        ["simulate", "--drive", "exp", "--samples", "3", "--gamma-tl", "1e-9", "--gamma-1", "0.5",
         "--freq", "0.5", "--kappa", "5e-324", "--t0", "0"],
        ["simulate", "--drive", "gauss", "--sigma", "5e-324", "--alpha-sq", "0.1"],
        ["simulate", "--drive", "continuous", "--gamma-tl", "5e-324", "--gamma-1", "0",
         "--alpha-sq", "0.1"],
        ["simulate", "--drive", "exp", "--kappa", "1", "--gamma-1", "5e-324", "--alpha-sq", "0.1"],
    ]
    spec = {"axis1": {"name": "gamma_tl", "min": 0.5, "max": 1.0, "points": 2},
            "drive": {"kind": "gauss", "sigma": 5e-324, "alpha_sq": 0.1}, "t_m": 5.0}
    return ([{"name": " ".join(argv), "argv": argv} for argv in argvs]
            + sweep_cases("gauss sigma 5e-324", spec))


def spike_table() -> str:
    """A (t, f) CSV of 4,001 rows: a sine-squared hump over 20 ns with one
    sample raised 40-fold, a spike one sample wide."""
    t = np.linspace(0.0, 20.0, 4001)
    f = np.sin(np.pi * t / 20.0) ** 2
    f[1000] *= 40.0
    return "t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), f.tolist()))


def config_order_cases() -> list[dict]:
    """``--config`` meeting another problem of the argv (``--help``, an
    unrecognized flag, no value, a place after the subcommand), each followed
    by the same command without ``--config``; then the spiked pulse file of
    :func:`spike_table` through ``simulate`` and a sweep."""
    pairs = [(["--config", "missing.json", "match", "--help"], ["match", "--help"]),
             (["--config", "bad.json", "match", "--bogus"], ["match", "--bogus"]),
             (["--config"], []),
             (["match", "--config", "missing.json"], ["match"])]
    inputs = {"bad.json": json.dumps({"not_a_flag": 1})}
    cases = [{"name": f"config order: {' '.join(argv)}", "argv": argv, "inputs": inputs}
             for pair in pairs for argv in pair]
    table = {"spike.csv": spike_table()}
    cases.append({"name": "simulate spike table", "inputs": table, "argv": [
        "simulate", "--drive", "tab", "--pulse-file", "spike.csv", "--alpha-sq", "0.4",
        "--t-end", "25", "--output", "traj.csv"]})
    spec = {"axis1": {"name": "gamma_tl", "min": 0.3, "max": 3.0, "points": 4},
            "drive": {"kind": "tab", "pulse_file": "spike.csv", "alpha_sq": 0.4}, "t_m": 20.0}
    return cases + [{**case, "inputs": {**case["inputs"], **table}}
                    for case in sweep_cases("tab spike table", spec)]


def all_cases(checkout: Path) -> list[dict]:
    seeded = [case for seed in range(SEEDED_GRIDS)
              for case in sweep_cases(f"continuous 8x8 seed {seed}", seeded_grid(seed))]
    return (test_grid_cases(checkout) + seeded + optimize_cases() + simulate_cases()
            + analytic_cases() + parser_cases() + overflow_cases() + config_order_cases())


def run_cases(cases: list[dict], workdir: Path) -> list[dict]:
    """Run each case through jpmsim.cli.main in its own directory under
    ``workdir``, after writing its input files there; its exit code (or the
    exception that escaped), stdout, stderr and the sha256 of every other
    file it wrote."""
    from jpmsim import cli

    results, home = [], os.getcwd()
    try:
        for i, case in enumerate(cases):
            case_dir = workdir / f"case{i}"
            case_dir.mkdir()
            os.chdir(case_dir)
            inputs = case.get("inputs", {})
            for name, text in inputs.items():
                Path(name).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(case["argv"])
                except Exception as exc:  # noqa: BLE001 - a traceback is an output too
                    code = f"uncaught {type(exc).__name__}: {exc}"
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(Path().iterdir()) if p.name not in inputs}
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
