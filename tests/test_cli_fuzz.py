"""Seeded fuzz test of the command line, run in process through cli.main.

Every subcommand and every sweep objective gets flags, or spec fields, drawn
from values at the edges of the float range. Whatever the input, main must
return 0, 2 or 3 without raising or warning, and a command that exits 0
must print only finite numbers.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from jpmsim import sweep
from jpmsim.cli import PARAM_DEFAULTS, main

#: Values at the edges of the float range, and ordinary ones that let an
#: argv get past the checks of its other flags.
EDGES = ["0", "-1", "1e-300", "5e-324", "1e300", "nan", "inf", "-inf"]
ORDINARY = ["0.5", "1", "2"]
RATES = ["--gamma-tl", "--gamma-0", "--gamma-1", "--gamma-rel", "--freq"]
#: Each subcommand: its fixed flags and the float flags drawn for it.
COMMANDS = {
    "simulate": (["--samples", "3"],
                 RATES + ["--alpha-sq", "--kappa", "--sigma", "--t0", "--t-end"]),
    "compare": (["--samples", "3"], RATES + ["--alpha-sq", "--t-end"]),
    "efficiency": ([], RATES + ["--gamma-res", "--n-in"]),
    "nep": ([], RATES + ["--gamma-res"]),
    "match": ([], RATES),
    "analytic": ([], RATES + ["--alpha-sq", "--kappa"]),
    "optimize": ([], RATES + ["--alpha-sq", "--t-m"]),
}
CHOICES = {"simulate": [["--drive", kind] for kind in ("continuous", "exp", "gauss")],
           "efficiency": [[], ["--ideal"]], "nep": [[], ["--matched"]],
           "analytic": [["--mode", "poles"], ["--mode", "exp-steady", "--order", "3"]]}
#: Flags a subcommand must have: drawn every time.
REQUIRED = {"compare": ["--alpha-sq"], "analytic": ["--alpha-sq"],
            "optimize": ["--alpha-sq", "--t-m"]}
SPEC_PARAMS = list(PARAM_DEFAULTS)
AXES = sorted(sweep.PARAM_NAMES)
OBJECTIVES = sorted(sweep.OBJECTIVES)
#: The width field each drive kind needs.
SHAPES = {"continuous": [], "exp": ["kappa"], "gauss": ["sigma"]}
#: A printed number that is not finite, as Python or numpy writes it.
NOT_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf(?:inity)?)(?![\w.])", re.IGNORECASE)
ARGVS = 560
SPECS = 120


def draw(rng):
    """An edge value three times in ten, else an ordinary one."""
    pool = EDGES if rng.random() < 0.3 else ORDINARY
    return pool[rng.integers(len(pool))]


def command_argvs(seed: int, n: int) -> list[list[str]]:
    """``n`` seeded argvs, every subcommand in turn; each argv sets some of
    its subcommand's float flags, each to an edge value or an ordinary one."""
    rng = np.random.default_rng(seed)
    names = list(COMMANDS)
    argvs = []
    for i in range(n):
        command = names[i % len(names)]
        fixed, flags = COMMANDS[command]
        choices = CHOICES.get(command, [[]])
        argv = [command, *fixed, *choices[rng.integers(len(choices))]]
        for flag in flags:
            if flag in REQUIRED.get(command, []) or rng.random() < 0.4:
                argv += [flag, draw(rng)]
        argvs.append(argv)
    return argvs


def sweep_specs(seed: int, n: int) -> list[dict]:
    """``n`` seeded 2-point sweep specs, every objective in turn, with edge
    values at the axis ends, in the params and drive blocks and in t_m/n_in."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(n):
        objective = OBJECTIVES[i % len(OBJECTIVES)]
        kind = list(SHAPES)[rng.integers(len(SHAPES))]
        lo = float(draw(rng))
        # mostly an axis that holds, so that its cells run
        hi = 2.0 * max(lo, 0.0) + 1.0 if rng.random() < 0.7 else float(draw(rng))
        spec = {"axis1": {"name": AXES[rng.integers(len(AXES))], "min": lo, "max": hi,
                          "points": 2, "scale": "linear"},
                "objective": objective,
                "params": {k: float(draw(rng)) for k in SPEC_PARAMS if rng.random() < 0.3},
                "drive": {"kind": kind, "alpha_sq": float(draw(rng)),
                          **{k: float(draw(rng)) for k in SHAPES[kind]}}}
        if kind == "gauss" and rng.random() < 0.3:
            spec["drive"]["t0"] = float(draw(rng))
        if objective == "pm_at_tm":
            spec["t_m"] = float(draw(rng))
        elif objective != "eta":
            spec["n_in"] = float(draw(rng))
        specs.append(spec)
    return specs


def not_finite(value, allowed=()) -> list:
    """The numbers in parsed JSON that are not finite, or null outside a key
    of ``allowed``."""
    if isinstance(value, dict):
        return [x for k, v in value.items() if k not in allowed for x in not_finite(v, allowed)]
    if isinstance(value, list):
        return [x for v in value for x in not_finite(v, allowed)]
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return [value]
    return []


def check_output(argv, out: str) -> None:
    """Every number printed on exit 0 is finite. JSON null is allowed where
    the output documents it: an infinite NEP, and a sweep's failed cells."""
    try:
        data = json.loads(out)
    except ValueError:
        assert not NOT_FINITE.findall(out), (argv, out)
        return
    if isinstance(data, dict) and "failed_cells" in data:
        failed = {tuple(cell) for cell in data["failed_cells"]}
        values = np.asarray(data["values"], dtype=object)
        assert all(values[i] is not None and math.isfinite(values[i])
                   for i in np.ndindex(values.shape) if i not in failed), (argv, out)
        data = {k: v for k, v in data.items() if k != "values"}
    assert not not_finite(data, allowed={"nep"}), (argv, out)


def run_fuzzed(capsys, argv) -> None:
    # recorded, a warning shows even where a sweep cell's fallback would
    # have caught it as an error
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert not seen, (argv, [str(w.message) for w in seen])
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        check_output(argv, out)


def test_fuzzed_commands(capsys):
    for argv in command_argvs(seed=20261019, n=ARGVS):
        run_fuzzed(capsys, argv)


def test_fuzzed_sweep_specs(capsys, tmp_path):
    path = tmp_path / "spec.json"
    for spec in sweep_specs(seed=20261020, n=SPECS):
        path.write_text(json.dumps(spec))
        run_fuzzed(capsys, ["sweep", "--spec", str(path), "--format", "json"])


@pytest.mark.parametrize("out", ['{"nep": null}', "pm(t_end) = 0.5 at t_end = 10 ns",
                                 '{"values": [1.0, null], "failed_cells": [[1]]}'])
def test_finite_output_passes(out):
    check_output([], out)


@pytest.mark.parametrize("out", ['{"eta": null}', "pm(t_end) = nan at t_end = 10 ns",
                                 "t,pm\n0,-inf", '{"values": [1.0, null], "failed_cells": []}',
                                 '{"pm": NaN}'])
def test_output_that_is_not_finite_fails(out):
    with pytest.raises(AssertionError):
        check_output([], out)
