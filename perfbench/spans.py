"""Span tracer for the traced run: wraps jpmsim's public functions from outside.

The wrappers are installed by module or class attribute, so jpmsim's source
is untouched and the untraced run executes exactly the original functions.
Every call of a wrapped function is a span. Each thread keeps its own span
stack; a span opened on a sweep worker thread with an empty stack takes the
client thread's innermost span (the ``run_sweep`` that dispatched it) as its
parent. A span's self time is its duration minus the part of it its children
cover (children on other threads may overlap, so their intervals are merged).
Times are wall time, so on a worker thread they include waiting for the
interpreter lock; ``sweep.busy_ratio`` uses the cells' CPU time instead, which
shows how much of the workers' capacity did work.

Spans are aggregated per traced op and span name as they close, which keeps
millions of right-hand-side calls in a few numbers; the per-op tables are
held in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
from time import perf_counter, thread_time

from jpmsim import cli, meanfield, pulses, rate, sweep

class _Span:
    __slots__ = ("name", "parent", "stack", "t0", "dur", "cpu", "child_s", "cross", "busy_s")

    def __init__(self, name, parent, stack):
        self.name = name
        self.parent = parent
        self.stack = stack
        self.child_s = 0.0  # children on this thread, which run one after another
        self.cross = []  # (t0, t1) of children on other threads
        self.busy_s = 0.0  # run_sweep only: summed CPU time of its cells


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._client = None
        self._op = None
        self.ops = []  # per traced op: {"spans": {name: [calls, total_s, self_s]}, "counters": {}}
        self._patches = []
        self._add_patches()

    # -------------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._client and self._client:
            parent = self._client[-1]
        else:
            parent = None
        span = _Span(name, parent, stack)
        stack.append(span)
        span.t0 = perf_counter()
        return span

    def close(self, span: _Span) -> None:
        t1 = perf_counter()
        span.stack.pop()
        span.dur = dur = t1 - span.t0
        covered = span.child_s + (_union(span.cross) if span.cross else 0.0)
        parent = span.parent
        with self._lock:
            rec = self._op["spans"].get(span.name)
            if rec is None:
                rec = self._op["spans"][span.name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - covered
            if parent is not None:
                if parent.stack is span.stack:
                    parent.child_s += dur
                else:
                    parent.cross.append((span.t0, t1))

    def count(self, key: str, value: float) -> None:
        with self._lock:
            counters = self._op["counters"]
            counters[key] = counters.get(key, 0) + value

    def begin_op(self) -> None:
        self._op = {"spans": {}, "counters": {}}
        self._client = self._stack()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def end_op(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.ops.append(self._op)
        self._op = None

    # ----------------------------------------------------------- wrapping

    def _patch(self, owner, attr, name, after=None, wrap_args=None, cpu=False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            span = tracer.open(name)
            c0 = thread_time() if cpu else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                if cpu:
                    span.cpu = thread_time() - c0
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def _traced_rhs(self, fun):
        tracer = self

        def rhs(t, y):
            span = tracer.open("meanfield.rhs")
            try:
                return fun(t, y)
            finally:
                tracer.close(span)

        return rhs

    def _ancestor(self, span, name):
        span = span.parent
        while span is not None and span.name != name:
            span = span.parent
        return span

    def _add_patches(self) -> None:
        def after_integrate(span, args, kwargs, result):
            sweep_span = self._ancestor(span, "sweep.run_sweep")
            if sweep_span is not None:
                with self._lock:
                    sweep_span.busy_s += span.cpu
            if self._ancestor(span, "sweep.optimize_gamma_tl") is not None:
                self.count("optimize_integrates", 1)

        def after_solve(span, args, kwargs, result):
            self.count("nfev", result.nfev)

        def after_run_sweep(span, args, kwargs, result):
            workers = args[1] if len(args) > 1 else kwargs.get("n_workers", 1)
            self.count("cells", result.values.size)
            self.count("cells_failed", len(result.errors))
            self.count("sweep_busy_s", span.busy_s)
            self.count("sweep_capacity_s", span.dur * workers)

        def after_csv(span, args, kwargs, result):
            self.count("csv_bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

        def traced_fun(args):
            return (self._traced_rhs(args[0]),) + args[1:]

        p = self._patch
        p(cli, "main", "cli.main")
        p(sweep, "run_sweep", "sweep.run_sweep", after_run_sweep)
        p(sweep, "optimize_gamma_tl", "sweep.optimize_gamma_tl")
        p(sweep.SweepResult, "to_json", "sweep.SweepResult.to_json")
        p(meanfield, "integrate", "meanfield.integrate", after_integrate, cpu=True)
        p(meanfield, "solve_ivp", "meanfield.solve_ivp", after_solve, traced_fun)
        p(meanfield, "envelope_for", "pulses.envelope_for")
        p(meanfield.Trajectory, "to_csv", "meanfield.Trajectory.to_csv", after_csv)
        p(pulses, "load_tabulated_csv", "pulses.load_tabulated_csv")
        p(pulses.Envelope, "__call__", "pulses.Envelope.__call__")
        p(pulses, "quad", "pulses.quad")
        for fn in ("steady_state", "efficiency", "efficiency_finite_flux", "build_report"):
            p(rate, fn, f"rate.{fn}")
        p(rate.EfficiencyReport, "to_json", "rate.EfficiencyReport.to_json")


# ---------------------------------------------------------------- metrics

# Unit of every per-layer metric; BENCHMARK.json lists the same names.
PER_LAYER = {
    "meanfield.stepper_ms": "ms",
    "meanfield.rhs_ms": "ms",
    "meanfield.self_ms": "ms",
    "meanfield.csv_ms": "ms",
    "meanfield.csv_bytes": "bytes",
    "meanfield.nfev": "count",
    "meanfield.integrate_calls": "count",
    "pulses.eval_ms": "ms",
    "pulses.eval_calls": "count",
    "pulses.build_ms": "ms",
    "pulses.build_calls": "count",
    "pulses.quad_calls": "count",
    "sweep.self_ms": "ms",
    "sweep.cells": "count",
    "sweep.cells_failed": "count",
    "sweep.busy_ratio": "ratio",
    "sweep.evals_per_optimize": "count",
    "cli.self_ms": "ms",
    "rate.self_ms": "ms",
    "rate.json_ms": "ms",
    "analytic.verify_ms": "ms",
    "trace.overhead_frac": "fraction",
}

# Counts that must repeat exactly for one seed; taken over the first
# `count_ops` traced ops, which every run completes whatever the host speed.
EXACT_COUNTS = ("meanfield.nfev", "meanfield.integrate_calls", "sweep.cells",
                "pulses.build_calls")


def layer_metrics(ops, count_ops: int) -> dict:
    """Per-op layer metrics: times averaged over all traced ops, counts over
    the first ``count_ops``. A span's name starts with its layer."""

    def ms(field, *names, prefix=None, exclude=()):
        i = 1 if field == "total" else 2
        total = sum(rec[i] for op in ops for n, rec in op["spans"].items()
                    if (n in names or prefix and n.startswith(prefix)) and n not in exclude)
        return 1e3 * total / len(ops)

    head = ops[:count_ops]

    def calls(*names):
        return sum(op["spans"].get(n, (0,))[0] for op in head for n in names) / len(head)

    def counter(key):
        return sum(op["counters"].get(key, 0) for op in head) / len(head)

    def ratio(num, den):
        return num / den if den else 0.0

    def total(key):
        return sum(op["counters"].get(key, 0) for op in ops)

    return {
        "meanfield.stepper_ms": ms("self", "meanfield.solve_ivp"),
        "meanfield.rhs_ms": ms("self", "meanfield.rhs"),
        "meanfield.self_ms": ms("self", "meanfield.integrate"),
        "meanfield.csv_ms": ms("total", "meanfield.Trajectory.to_csv"),
        "meanfield.csv_bytes": counter("csv_bytes"),
        "meanfield.nfev": counter("nfev"),
        "meanfield.integrate_calls": calls("meanfield.integrate"),
        "pulses.eval_ms": ms("self", "pulses.Envelope.__call__"),
        "pulses.eval_calls": calls("pulses.Envelope.__call__"),
        "pulses.build_ms": ms("total", "pulses.envelope_for", "pulses.load_tabulated_csv"),
        "pulses.build_calls": calls("pulses.envelope_for", "pulses.load_tabulated_csv"),
        "pulses.quad_calls": calls("pulses.quad"),
        "sweep.self_ms": ms("self", prefix="sweep."),
        "sweep.cells": counter("cells"),
        "sweep.cells_failed": counter("cells_failed"),
        "sweep.busy_ratio": ratio(total("sweep_busy_s"), total("sweep_capacity_s")),
        "sweep.evals_per_optimize": ratio(counter("optimize_integrates"),
                                          calls("sweep.optimize_gamma_tl")),
        "cli.self_ms": ms("self", "cli.main"),
        "rate.self_ms": ms("self", prefix="rate.", exclude=("rate.EfficiencyReport.to_json",)),
        "rate.json_ms": ms("total", "rate.EfficiencyReport.to_json"),
    }
