"""Command-line surface.

Units at this boundary follow lab conventions: rates are given in GHz
(numerically equal to 1/ns internally) and the transition/signal frequency
is the ordinary frequency in GHz, multiplied by 2*pi internally. All
subcommands are deterministic.

Exit codes: 0 success, 2 argument errors, 3 numerical failure (integration,
invariant violation, diverging series or degenerate poles).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import analytic, meanfield, pulses, rate, sweep
from .core import DetectorParams, DriveSpec, omega_from_ghz, strict_json


#: Defaults of the detector parameters and the drive, shared by the flags and
#: the sweep spec's ``params`` and ``drive`` blocks, which use the same names
#: (except that the spec calls the drive kind ``kind``).
PARAM_DEFAULTS = {
    "gamma_tl": 1.0,
    "gamma_0": 0.0,
    "gamma_1": 1.0,
    "gamma_rel": 0.0,
    "gamma_res": 0.0,
    "freq": 5.0,
}
DRIVE_DEFAULTS = {
    "drive": "continuous",
    "alpha_sq": 0.0,
    "kappa": None,
    "sigma": None,
    "t0": None,
    "paper_literal": False,
    "pulse_file": None,
}


def _add_rate_args(p: argparse.ArgumentParser, with_res: bool = True) -> None:
    d = PARAM_DEFAULTS
    p.add_argument("--gamma-tl", type=float, default=d["gamma_tl"], help="coupling rate [GHz]")
    p.add_argument("--gamma-0", type=float, default=d["gamma_0"], help="dark count rate [GHz]")
    p.add_argument("--gamma-1", type=float, default=d["gamma_1"], help="measurement rate [GHz]")
    p.add_argument("--gamma-rel", type=float, default=d["gamma_rel"], help="relaxation rate [GHz]")
    if with_res:
        p.add_argument("--gamma-res", type=float, default=d["gamma_res"], help="reset rate [GHz]")
    p.add_argument("--freq", type=float, default=d["freq"], help="omega_0 / 2 pi [GHz]")


def _params(values: dict) -> DetectorParams:
    """Detector parameters from flag values or a sweep spec's ``params`` block."""
    v = {**PARAM_DEFAULTS, **values}
    return DetectorParams(
        gamma_tl=v["gamma_tl"],
        gamma_0=v["gamma_0"],
        gamma_1=v["gamma_1"],
        gamma_rel=v["gamma_rel"],
        gamma_res=v["gamma_res"],
        omega_0=omega_from_ghz(v["freq"]),
    )


def _drive(values: dict, omega_s: float) -> DriveSpec:
    """Drive from flag values or a sweep spec's ``drive`` block."""
    v = {**DRIVE_DEFAULTS, **values}
    kind, alpha_sq = v["drive"], v["alpha_sq"]

    def required(name):
        if v[name] is None:
            raise ValueError(f"{kind} drive requires {name} (--{name.replace('_', '-')})")
        return v[name]

    if kind == "continuous":
        return DriveSpec.continuous(alpha_sq, omega_s)
    if kind == "exp":
        return DriveSpec.exponential(alpha_sq, omega_s, required("kappa"))
    if kind == "gauss":
        return DriveSpec.gaussian(
            alpha_sq, omega_s, required("sigma"), v["t0"],
            paper_literal=v["paper_literal"],
        )
    if kind == "tab":
        env = pulses.load_tabulated_csv(required("pulse_file"))
        grid = np.linspace(env.t_start, env.t_end, 1024)
        return DriveSpec.tabulated(alpha_sq, omega_s, grid, env(grid))
    raise ValueError(f"unknown drive kind {kind!r}")


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_simulate(args) -> int:
    params = _params(vars(args))
    drive = _drive(vars(args), params.omega_0)
    cfg = meanfield.IntegratorConfig(t_end=args.t_end, n_samples=args.samples)
    traj = meanfield.integrate(params, drive, cfg)
    if args.output:
        traj.to_csv(args.output)
    print(f"pm(t_end) = {traj.pm[-1]:.6f} at t_end = {traj.times[-1]:.6g} ns")
    return 0


def cmd_compare(args) -> int:
    params = _params(vars(args))
    drive = DriveSpec.continuous(args.alpha_sq, params.omega_0)
    cfg = meanfield.IntegratorConfig(t_end=args.t_end, n_samples=args.samples)
    traj = meanfield.integrate(params, drive, cfg)
    _, pm_rate = rate.closed_form_p1_pm(params, args.alpha_sq, traj.times)
    gap = traj.pm - pm_rate
    lines = ["t,pm_meanfield,pm_rate"]
    for t, a, b in zip(traj.times, traj.pm, pm_rate):
        lines.append(f"{t:.9g},{a:.12g},{b:.12g}")
    _emit("\n".join(lines), args.output)
    print(
        f"max abs gap = {np.max(np.abs(gap)):.6g}, "
        f"mean abs gap = {np.mean(np.abs(gap)):.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_efficiency(args) -> int:
    params = _params(vars(args))
    if args.ideal:
        # with gamma_0 = gamma_rel = 0, eta_max is 1 and eta_loss is the efficiency
        p = replace(params, gamma_0=0.0, gamma_rel=0.0)
        _emit(f"{rate.eta_loss(p) * rate.eta_max(p):.9f}", args.output)
        return 0
    report = rate.build_report(params, n_in=args.n_in)
    _emit(report.to_json(), args.output)
    return 0


def cmd_nep(args) -> int:
    params = _params(vars(args))
    if args.matched:
        params = replace(params, gamma_tl=rate.matching_gamma_tl(params))
    value = rate.nep(params)
    _emit(strict_json({"nep": value, "units": "W/sqrt(Hz)"}), args.output)
    return 0


def cmd_match(args) -> int:
    params = _params(vars(args))
    _emit(f"{rate.matching_gamma_tl(params):.9g}", args.output)
    return 0


def cmd_analytic(args) -> int:
    params = _params(vars(args))
    if args.mode == "poles":
        ps = analytic.continuous_pm_poles(params, args.alpha_sq)
        data = {
            "poles": [[s.real, s.imag] for s in ps.poles],
            "residues": [[r.real, r.imag] for r in ps.residues],
        }
        _emit(strict_json(data, 2), args.output)
        return 0
    if args.kappa is None:
        raise ValueError("--kappa required for exp-steady")
    value = analytic.exp_pulse_steady_state(params, args.alpha_sq, args.kappa, args.order)
    _emit(f"{value:.9g}", args.output)
    return 0


def cmd_optimize(args) -> int:
    params = _params(vars(args))
    drive = DriveSpec.continuous(args.alpha_sq, params.omega_0)
    res = sweep.optimize_gamma_tl(drive, params, args.t_m)
    data = {
        "gamma_tl_max": res.gamma_tl,
        "ratio_to_gamma_1": res.gamma_tl / params.gamma_1,
        "pm": res.pm,
        "at_boundary": res.at_boundary,
    }
    _emit(strict_json(data, 2), args.output)
    return 0


SPEC_KEYS = frozenset({"axis1", "axis2", "objective", "params", "drive", "t_m", "n_in"})
#: A spec's drive block names the drive kind ``kind`` where the flag is --drive.
SPEC_DRIVE_KEYS = frozenset((DRIVE_DEFAULTS.keys() - {"drive"}) | {"kind"})


def _checked(block, known, where: str) -> dict:
    """A JSON object of the sweep spec, every key of which is in ``known``."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(block) - set(known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    return block


def _axis(raw: dict, key: str) -> sweep.SweepAxis:
    if key not in raw:
        raise ValueError(f"sweep spec needs {key!r}")
    try:
        return sweep.SweepAxis(**raw[key])
    except TypeError as exc:  # missing, unknown or mistyped axis fields
        raise ValueError(f"sweep spec {key}: {exc}") from exc


def cmd_sweep(args) -> int:
    with open(args.spec) as fh:
        raw = _checked(json.load(fh), SPEC_KEYS, "sweep spec")
    params = _params(_checked(raw.get("params", {}), PARAM_DEFAULTS, "sweep spec params"))
    draw = _checked(raw.get("drive", {}), SPEC_DRIVE_KEYS, "sweep spec drive")
    drive = _drive({**draw, "drive": draw.get("kind", DRIVE_DEFAULTS["drive"])}, params.omega_0)
    spec = sweep.SweepSpec(
        axis1=_axis(raw, "axis1"),
        axis2=_axis(raw, "axis2") if "axis2" in raw else None,
        params=params,
        drive=drive,
        objective=raw.get("objective", "pm_at_tm"),
        t_m=raw.get("t_m"),
        n_in=raw.get("n_in"),
    )
    if args.format == "csv" and not args.output:
        raise ValueError("csv sweep output requires --output")
    result = sweep.run_sweep(spec)
    if args.format == "json":
        _emit(result.to_json(), args.output)
    else:
        result.to_csv(args.output)
        print(f"wrote {args.output}")
    if result.errors:
        print(f"{len(result.errors)} cells failed", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that records its subcommand parsers and the destination
    of every argument it is given, so that ``--config`` keys can be matched
    to subcommands."""

    def __init__(self, *args, **kwargs):
        self.dests = set()
        self.subcommands = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.subcommands = action.choices
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jpmsim",
        description="Two-level microwave photon counter: simulation and design optimization",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of option defaults (dest names); flags override",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the mean-field dynamics")
    _add_rate_args(p, with_res=False)
    p.add_argument("--drive", choices=["continuous", "exp", "gauss", "tab"], required=True)
    p.add_argument("--alpha-sq", type=float, default=DRIVE_DEFAULTS["alpha_sq"])
    p.add_argument("--kappa", type=float, default=None, help="exp pulse rate [GHz]")
    p.add_argument("--sigma", type=float, default=None, help="gaussian width [GHz]")
    p.add_argument("--t0", type=float, default=None, help="gaussian center [ns]")
    p.add_argument(
        "--paper-literal",
        action="store_true",
        help="keep the unnormalized gaussian prefactor (comparison runs)",
    )
    p.add_argument("--pulse-file", default=None, help="two-column CSV (t, f)")
    p.add_argument("--t-end", type=float, default=None, help="[ns]")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--output", default=None, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="mean-field vs rate-equation closed form")
    _add_rate_args(p, with_res=False)
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("efficiency", help="stationary detection efficiency report")
    _add_rate_args(p)
    p.add_argument("--ideal", action="store_true", help="gamma_0 = gamma_rel = 0 closed form")
    p.add_argument("--n-in", type=float, default=0.0, help="flux for count rates [1/ns]")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("nep", help="noise-equivalent power")
    _add_rate_args(p)
    p.add_argument("--matched", action="store_true", help="set gamma_tl to the matching value")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_nep)

    p = sub.add_parser("match", help="general matching condition for gamma_tl")
    _add_rate_args(p, with_res=False)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("analytic", help="Laplace-domain oracles")
    _add_rate_args(p, with_res=False)
    p.add_argument("--mode", choices=["poles", "exp-steady"], required=True)
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("optimize", help="coupling rate maximizing pm(t_m)")
    _add_rate_args(p, with_res=False)
    p.add_argument("--alpha-sq", type=float, required=True)
    p.add_argument("--t-m", type=float, required=True, help="[ns]")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="run a declarative parameter sweep")
    p.add_argument("--spec", required=True, help="sweep spec JSON file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--workers", type=int,
        help="accepted for old command lines and ignored: cells run serially",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def _apply_config(parser: _Parser, config: dict) -> None:
    """Make each config key the default of every subcommand that has it."""
    subparsers = parser.subcommands.values()
    unknown = set(config) - set().union(*(sp.dests for sp in subparsers))
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for sp in subparsers:
        sp.set_defaults(**{k: v for k, v in config.items() if k in sp.dests})


def _read_config(argv) -> dict:
    """The JSON file named by ``--config``, or {} when the flag is absent."""
    pre = argparse.ArgumentParser(prog="jpmsim", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        _apply_config(parser, _read_config(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 0 if exc.code in (0, None) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (meanfield.IntegrationError, meanfield.InvariantViolation,
            analytic.SeriesDiverged, analytic.DegeneratePoles) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
