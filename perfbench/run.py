"""jpmsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; jpmsim is imported from ./src. Workloads:
optimize, pulse_sweep, trace_export, rate_map (see perfbench/README.md).

With --trace 0 the workload runs in its own process after SETUP_PROBES
processes that only set up, and the last stdout line carries the end-to-end
metrics. With --trace 1 it runs with jpmsim's public functions wrapped and
the last line carries the per-layer metrics instead. Every other line is a
human-readable summary. The exit code is 0 whenever a result is printed,
whether or not every op passed its oracle ("correct" says that).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("optimize", "pulse_sweep", "trace_export", "rate_map")
SETUP_PROBES = 2  # set-up-only processes; setup_s is the median with the run's own
DEADLINE_S = 170.0  # every run ends within 180 s
P90_MIN_OPS = 100  # the p90 needs ten samples beyond it


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one jpmsim benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def run_child(args, workdir: Path, deadline: float, *extra) -> dict:
    """Start bench.py for this workload and return its last stdout line as JSON."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t-spawn", repr(t_spawn),
           "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the untraced run's per-op latencies.

    Op i ran input i % pool_size, and every input ran at least twice.
    ops_per_s is pool_size over the summed per-input mean latencies: the
    rate of one pass over the inputs at the run's average speed, which the
    unfinished last pass does not tilt towards the cheaper inputs. A mean
    weighs the host's fast and slow spells by their length, where a median
    jumps to whichever held the majority (README.md). latency_p50_ms is the
    median over all ops.
    """
    lat, pool = res["latencies_s"], res["pool_size"]
    mean = [statistics.fmean(lat[k::pool]) for k in range(pool)]
    fastest = [min(lat[k::pool]) for k in range(pool)]
    metrics = {
        "ops_per_s": (pool / sum(mean), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [f"ops timed: {len(lat)} over {pool} inputs; "
             f"setup_s is the median of {len(setups)} set-ups",
             f"rate at each input's fastest repeat = {pool / sum(fastest)!r} 1/s"]
    if len(lat) >= P90_MIN_OPS:
        p90 = 1e3 * statistics.quantiles(lat, n=10)[-1]
        notes.append(f"latency_p90_ms = {p90!r} ms over all ops")
    else:
        notes.append(f"latency_p90_ms = n/a ({len(lat)} ops; needs {P90_MIN_OPS})")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jpmsim" / "__init__.py").is_file():
        print(f"no jpmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-seed{args.seed}.json"
            res = run_child(args, workdir, deadline, "--spans-out", str(spans))
            metrics = {k: tuple(v) for k, v in res["metrics"].items()}
            notes = [f"traced ops: {res['traced_ops']}; span table: {spans.relative_to(ROOT)}"]
        else:
            setups = [run_child(args, workdir, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = run_child(args, workdir, deadline)
            metrics, notes = end_to_end(res, setups + [res["setup_s"]])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env: " + " ".join(f"{k} {v}" for k, v in res["env"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} ops)")
    for line in notes + [f"problem: {p}" for p in res["problems"]]:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
