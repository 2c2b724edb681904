"""One workload process: set up, run the closed loop, check every op.

Started by run.py; prints one JSON object on its last stdout line. With
--setup-only it stops after set-up and reports only the set-up time, which
run.py uses to take the median of several set-ups.

setup_s runs from the moment run.py spawned this process (a CLOCK_MONOTONIC
reading passed as --t-spawn) to the first timed op: interpreter start,
``import jpmsim`` and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def run_one(workload, inp):
    """The timed op; returns (output, exception, seconds)."""
    t0 = perf_counter()
    try:
        out, exc = workload.op(inp), None
    except Exception as e:  # an op that raises counts as failed
        out, exc = None, e
    return out, exc, perf_counter() - t0


def verify(workload, inp, out, exc) -> list[str]:
    if exc is not None:
        return [f"op raised {exc!r}"]
    try:
        return workload.check(inp, out)
    except Exception as e:  # an unreadable output misses its oracle
        return [f"check raised {e!r}"]


class Loop:
    """Closed loop, one client: the next op starts when the previous is checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verify_s = 0.0

    def record(self, inp, out, exc) -> None:
        t0 = perf_counter()
        problems = verify(self.workload, inp, out, exc)
        self.verify_s += perf_counter() - t0
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 5 - len(self.problems)])

    def untraced(self, seconds: float) -> list[float]:
        """Latency of op i, which ran pool[i % len(pool)]; at least
        MIN_CYCLES passes over the pool, more until `seconds` have passed."""
        pool, lat = self.workload.pool, []
        deadline = perf_counter() + seconds
        while len(lat) < MIN_CYCLES * len(pool) or perf_counter() < deadline:
            inp = pool[len(lat) % len(pool)]
            out, exc, dt = run_one(self.workload, inp)
            lat.append(dt)
            self.record(inp, out, exc)
        return lat

    def traced(self, seconds: float, tracer):
        """Each input runs once untraced and once traced, in alternating
        order, so the overhead estimate is paired against drift and inputs."""
        pool = self.workload.pool
        plain, traced = [], []
        deadline = perf_counter() + seconds
        i = 0
        while len(tracer.ops) < self.workload.count_ops or perf_counter() < deadline:
            inp = pool[i % len(pool)]
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.begin_op()
                    out, exc, dt = run_one(self.workload, inp)
                    tracer.end_op()
                    traced.append(dt)
                else:
                    out, exc, dt = run_one(self.workload, inp)
                    plain.append(dt)
                self.record(inp, out, exc)
            i += 1
        return plain, traced


def environment() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import jpmsim

    src = (ROOT / "src").resolve()
    if src not in Path(jpmsim.__file__).resolve().parents:
        print(f"jpmsim imported from {jpmsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np

    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    index = list(WORKLOADS).index(args.workload)
    rng = np.random.default_rng([args.seed % 2**63, index])
    workdir = Path(args.workdir)
    workload = workload_cls(rng, workdir)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)
    result = {"env": environment()}
    if args.trace:
        from spans import PER_LAYER, Tracer, layer_metrics

        tracer = Tracer()
        plain, traced = loop.traced(args.seconds, tracer)
        metrics = layer_metrics(tracer.ops, workload.count_ops)
        metrics["analytic.verify_ms"] = 1e3 * loop.verify_s / loop.attempted
        metrics["trace.overhead_frac"] = 1.0 - sum(plain) / sum(traced)
        result.update(metrics={k: [v, PER_LAYER[k]] for k, v in metrics.items()},
                      traced_ops=len(traced))
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "ops": tracer.ops}))
    else:
        lat = loop.untraced(args.seconds)
        result.update(setup_s=setup_s, latencies_s=lat, pool_size=len(workload.pool),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
