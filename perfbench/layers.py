#!/usr/bin/env python3
"""Traced serial run of one perfsim config: per-layer spans and metrics.

Runs the config in-process (``workers: 1``) with spans recorded around the
public functions and methods of the
``harness``, ``solver``, ``agents``, ``losses`` and ``oracle`` modules. Each
hook finds its target by name; a target that no longer exists is reported
as absent, with the reason, instead of failing the run.

Spans (name, start, end, parent, trial) are kept in memory and written out
as CSV at the end. The hot-path calls (kernel ``advance`` and ``emit``, loss
``grad``) happen millions of times per run, so each is folded into counts
and summed durations on its parent span instead of a row of its own; they
have no hooked children, so their self time equals their duration.

    PYTHONPATH=src python3 perfbench/layers.py --config traced.json \
        --metrics layers.json --spans spans.csv

The process's wall time, against that of an untraced ``perfsim run`` of the
same config, gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import csv
import importlib
import inspect
import json
import os
import statistics
import sys
import time

import perfsim.harness

# Spans kept as rows.
TRACE, RUN_EXPERIMENT, RESOLVE, SOLVER, THETA_PS, FIT_RATE, RESPONSE_DATASET = range(7)
SPAN_NAMES = ["trace", "harness.run_experiment", "harness.resolve_points", "solver",
              "oracle.theta_ps", "oracle.fit_rate", "oracle.response_dataset"]
ORACLE_KINDS = (THETA_PS, FIT_RATE, RESPONSE_DATASET)
# Hot-path calls folded into their parent span.
ADVANCE, EMIT, GRAD = range(3)
HOT_NAMES = ["agents.advance", "agents.emit", "losses.grad"]

# Module-level functions hooked by name, with their span kind.
FUNCTIONS = [
    ("perfsim.harness", "run_experiment", RUN_EXPERIMENT),
    ("perfsim.harness", "resolve_points", RESOLVE),
    ("perfsim.solver", "sa_run", SOLVER),
    ("perfsim.solver", "lazy_run", SOLVER),
    ("perfsim.oracle", "theta_ps_gaussian", THETA_PS),
    ("perfsim.oracle", "theta_ps_fixed_point", THETA_PS),
    ("perfsim.oracle", "fit_rate", FIT_RATE),
]

# Methods hooked on every class of a module that defines them: (module,
# method, kind, hot).
METHODS = [
    ("perfsim.agents", "response_dataset", RESPONSE_DATASET, False),
    ("perfsim.agents", "advance", ADVANCE, True),
    ("perfsim.agents", "emit", EMIT, True),
    ("perfsim.losses", "grad", GRAD, True),
]


def find_module(name: str):
    """The imported module, or None when it no longer exists."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Span rows in parallel lists, plus the counts taken at the same boundaries."""

    def __init__(self):
        self.kind, self.start, self.end, self.parent, self.trial = [], [], [], [], []
        self.child_ns = []                        # time covered by children, per span
        self.hot_calls = [[] for _ in HOT_NAMES]  # per hot kind, per span
        self.hot_ns = [[] for _ in HOT_NAMES]
        self.stack = []
        self.oracle_depth = 0
        self.current_trial = -1
        self.emit_samples = 0
        self.solver_iters = 0
        self.divergences = 0
        self.hooked = {name: [] for name in SPAN_NAMES + HOT_NAMES}
        self.missing = {name: [] for name in SPAN_NAMES + HOT_NAMES}
        self._restore = []

    def open(self, kind: int, trial: int) -> int:
        i = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trial.append(trial)
        self.end.append(0)
        self.child_ns.append(0)
        for calls, ns in zip(self.hot_calls, self.hot_ns):
            calls.append(0)
            ns.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = end = time.perf_counter_ns()
        self.stack.pop()
        if self.parent[i] >= 0:
            self.child_ns[self.parent[i]] += end - self.start[i]

    # -- hooks

    def _wrap_span(self, fn, kind):
        tracer = self
        is_oracle = kind in ORACLE_KINDS
        sig = inspect.signature(fn) if kind == SOLVER else None

        def wrapper(*args, **kwargs):
            horizon = 0
            if sig is not None:
                bound = sig.bind_partial(*args, **kwargs).arguments
                tracer.current_trial = int(bound.get("trial", 0))
                horizon = getattr(bound.get("config"), "horizon", 0)
            i = tracer.open(kind, tracer.current_trial if sig is not None else -1)
            tracer.oracle_depth += is_oracle
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if sig is not None:
                    tracer.divergences += 1
                    tracer.solver_iters += getattr(exc, "iteration", None) or 0
                raise
            finally:
                tracer.oracle_depth -= is_oracle
                tracer.close(i)
            tracer.solver_iters += horizon
            return result
        return wrapper

    def _wrap_hot(self, fn, kind):
        # Kept short: this runs once per kernel transition, emission and
        # gradient. Gradients taken inside the oracle belong to its span.
        tracer = self
        calls, total, child = self.hot_calls[kind], self.hot_ns[kind], self.child_ns
        stack = self.stack
        clock = time.perf_counter_ns
        count_samples = kind == EMIT

        def wrapper(*args, **kwargs):
            if tracer.oracle_depth:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                i = stack[-1]
                calls[i] += 1
                total[i] += d
                child[i] += d
            if count_samples:
                tracer.emit_samples += len(result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, kind in FUNCTIONS:
            original = getattr(find_module(module_name), attr, None)
            if not inspect.isfunction(original):
                self.missing[SPAN_NAMES[kind]].append(f"{module_name}.{attr} not found")
                continue
            wrapper = self._wrap_span(original, kind)
            # Replace every binding of the function, e.g. the harness's
            # ``from .solver import sa_run`` as well as the defining module.
            for name, mod in list(sys.modules.items()):
                if name == "perfsim" or name.startswith("perfsim."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            self.hooked[SPAN_NAMES[kind]].append(f"{module_name}.{attr}")
        for module_name, attr, kind, hot in METHODS:
            name = (HOT_NAMES if hot else SPAN_NAMES)[kind]
            module = find_module(module_name)
            for cls in list(vars(module).values()) if module else []:
                if not (inspect.isclass(cls) and cls.__module__ == module_name):
                    continue
                original = cls.__dict__.get(attr)
                if inspect.isfunction(original):
                    self._restore.append((cls, attr, original))
                    wrap = self._wrap_hot if hot else self._wrap_span
                    setattr(cls, attr, wrap(original, kind))
                    self.hooked[name].append(f"{module_name}.{cls.__name__}.{attr}")
            if not self.hooked[name]:
                self.missing[name].append(f"no class in {module_name} defines {attr}")

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results

    def metrics(self) -> tuple:
        """Layer metrics and, for each metric that cannot be measured, the reason."""
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_ns = [dur[i] - self.child_ns[i] for i in range(n)]
        m, absent = {}, {}

        def rows(kind):
            return [i for i in range(n) if self.kind[i] == kind]

        def hot(kind):
            return sum(self.hot_calls[kind]), sum(self.hot_ns[kind])

        def layer(hook, names, compute):
            if not self.hooked[hook]:
                for name in names:
                    absent[name] = "; ".join(self.missing[hook]) or "not hooked"
                return
            for name, value in zip(names, compute()):
                if value is None:
                    absent[name] = f"no {hook} calls recorded"
                else:
                    m[name] = value

        def per(total, count):
            return total / count if count else None

        def hot_layer(kind):
            calls, ns = hot(kind)
            return calls, per(ns, calls), ns / 1e9

        def emit():
            calls, ns = hot(EMIT)
            return calls, self.emit_samples, per(ns, self.emit_samples), ns / 1e9

        layer("agents.advance", ["agents.advance.calls", "agents.advance.ns_per_call",
                                 "agents.advance.self_s"], lambda: hot_layer(ADVANCE))
        layer("agents.emit", ["agents.emit.calls", "agents.emit.samples",
                              "agents.emit.ns_per_sample", "agents.emit.self_s"], emit)
        layer("losses.grad", ["losses.grad.calls", "losses.grad.ns_per_call",
                              "losses.grad.self_s"], lambda: hot_layer(GRAD))

        def solver():
            trials = [dur[i] / 1e9 for i in rows(SOLVER)]
            return (self.solver_iters, sum(trials),
                    per(sum(self_ns[i] for i in rows(SOLVER)), self.solver_iters),
                    statistics.median(trials) if trials else None,
                    max(trials) if trials else None, self.divergences)
        layer("solver", ["solver.iters", "solver.run_s", "solver.self_ns_per_iter",
                         "solver.trial_s_p50", "solver.trial_s_max", "solver.divergences"],
              solver)
        layer("oracle.theta_ps", ["oracle.theta_ps.calls", "oracle.theta_ps_s"],
              lambda: (len(rows(THETA_PS)), sum(dur[i] for i in rows(THETA_PS)) / 1e9))
        layer("oracle.response_dataset", ["oracle.response_dataset.calls"],
              lambda: (len(rows(RESPONSE_DATASET)),))
        layer("oracle.fit_rate", ["oracle.fit_rate_s"],
              lambda: (sum(dur[i] for i in rows(FIT_RATE)) / 1e9,))
        layer("harness.resolve_points", ["harness.resolve_points_s"],
              lambda: (sum(dur[i] for i in rows(RESOLVE)) / 1e9,))
        layer("harness.run_experiment", ["harness.self_s"],
              lambda: (sum(self_ns[i] for i in rows(RUN_EXPERIMENT)) / 1e9,))
        return m, absent

    def write_spans(self, path: str):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "trial"]
                         + [f"{h}.{c}" for h in HOT_NAMES for c in ("calls", "ns")])
            for i in range(len(self.kind)):
                out.writerow([i, SPAN_NAMES[self.kind[i]], self.start[i], self.end[i],
                              self.parent[i], self.trial[i]]
                             + [v for k in range(len(HOT_NAMES))
                                for v in (self.hot_calls[k][i], self.hot_ns[k][i])])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True, help="config to trace (workers: 1)")
    parser.add_argument("--metrics", required=True, help="where to write the layer metrics")
    parser.add_argument("--spans", required=True, help="where to write the span table (CSV)")
    args = parser.parse_args()

    spec = perfsim.harness.ExperimentSpec.from_json(args.config)
    tracer = Tracer()
    tracer.install()
    root = tracer.open(TRACE, -1)
    try:
        perfsim.harness.run_experiment(spec)
    finally:
        tracer.close(root)
        tracer.uninstall()

    metrics, absent = tracer.metrics()
    metrics["harness.trace_csv_bytes"] = os.path.getsize(os.path.join(spec.out, "trace.csv"))
    tracer.write_spans(args.spans)
    with open(args.metrics, "w") as fh:
        json.dump({"metrics": metrics, "absent": absent, "hooked": tracer.hooked}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
