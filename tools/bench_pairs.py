"""Alternating before/after benchmark runs of two jpmsim checkouts.

    python tools/bench_pairs.py --parent ../jpmsim-parent --change . \
        --workload pulse_sweep --pairs 10 --first-seed 1201

Runs the checkouts' own, unmodified ``perfbench/run.py`` untraced, one
workload, in pairs: pair i runs both checkouts with seed first_seed + i, the
parent first in even pairs and the change first in odd ones, so host drift
hits both sides alike. Every run lasts BENCHMARK.json's ``run_seconds``.
Writes ``BENCH_<workload>.json`` with each side's median and quartiles per
end-to-end metric, how many pairs the change won per metric (ties count for
neither), the raw final JSON line of every run and the machine it ran on.
Each side is named by its git HEAD, where it has one, and by a sha256 of its
``src/**/*.py``, which a ``git archive`` copy of a commit has as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300.0  # perfbench/run.py ends every run within 180 s


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    return ap.parse_args(argv)


def git_rev(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(checkout: Path) -> str:
    """sha256 over the checkout's src/**/*.py in sorted order, each file as
    its path relative to src/, its length and its bytes."""
    src, digest = checkout / "src", hashlib.sha256()
    for rel in sorted(path.relative_to(src).as_posix() for path in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its final JSON line plus the env line it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    env = next((ln[len("env: "):] for ln in lines if ln.startswith("env: ")), None)
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def compare(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the change's wins."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        s_parent, s_change = summary(sides["parent"]), summary(sides["change"])
        gap = s_change["median"] - s_parent["median"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": s_parent,
            "change": s_change,
            "change_wins": wins,
            "pairs": len(sides["parent"]),
            "median_ratio_change_to_parent": s_change["median"] / s_parent["median"],
            "median_gap_exceeds_parent_iqr": abs(gap) > s_parent["q3"] - s_parent["q1"],
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_once(getattr(args, side), args.workload, seed, seconds)
            rec["ran_first"] = side == order[0]
            runs[side].append(rec)
            ops = rec["result"]["metrics"]["ops_per_s"]["value"]
            print(f"pair {i} seed {seed} {side}: ops_per_s {ops:.4g}, "
                  f"failed {rec['result']['failed']}", flush=True)

    report = {
        "workload": args.workload,
        "run_seconds": seconds,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "perfbench_env": runs["change"][0]["env"],
        },
        "revisions": {"parent": git_rev(args.parent), "change": git_rev(args.change)},
        "src_sha256": {"parent": src_digest(args.parent), "change": src_digest(args.change)},
        "metrics": compare(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} -> change {m['change']['median']:.4g} "
              f"{m['unit']}, change won {m['change_wins']}/{m['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
