#!/usr/bin/env python3
"""perfsim benchmark: times the CLI from outside, checks its outputs, traces layers.

Run from the repository root:

    python3 perfbench/run.py --workload gauss_ar_sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's config is run as separate ``perfsim run``
processes, one after another, as long as the next one is expected to end
within ``--seconds`` seconds; several ``perfsim oracle`` launches before them
give the set-up time. With ``--trace 1`` the config is run once in-process by
``perfbench/layers.py``, with spans around the public functions of each
layer, and once each as an untraced serial and a default-pool ``perfsim run``
for the tracing overhead and the pool speed-up. Every run's ``trace.csv`` and
``summary.json`` are checked. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (trial-runs) and
``metrics``. Raw samples, the environment and the generated configs are
written to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 7
PROCESS_TIMEOUT_S = 120.0

# Workload configs, without ``seed`` and ``out``, which each run fills in.
# ``workers`` stays unset so the CLI's default process pool is measured.
# Trials and horizon are set so that the check that the mean error at
# k = horizon is below that at k = 100 fails by chance for about 1 seed in
# 10^4 or fewer; the Gaussian AR chain at rho = 0.1 and the exact
# best-response runs are the limiting cases (see README.md).
WORKLOADS = {
    # Closed-form oracle; solver bookkeeping and Sample churn dominate.
    "gauss_ar_sweep": {
        "preset": "gaussian_ar", "trials": 24, "horizon": 30000,
        "sweep": [["rho", [0.1, 0.5, 1.0]]],
    },
    # Adapted pool kernel: agents.advance dominates; sa_run and lazy_run both run.
    "pool_lazy_sweep": {
        "preset": "strat_class_logistic", "trials": 10, "horizon": 14000,
        "sweep": [["learner_iters_per_agent_round", [1, 4]]],
    },
    # Exact best-response ascent inside emit; minibatch emission path.
    "exact_br_batch": {
        "preset": "strat_class_logistic", "trials": 6, "horizon": 4000,
        "problem": {"kernel": "iid"},
        "sweep": [["batch", [1, 4]]],
    },
}

# Self-test sizes, run at fixed seeds where the error-decrease check holds.
TINY = {
    "gauss_ar_sweep": {"trials": 6, "horizon": 10000},
    "pool_lazy_sweep": {"trials": 2, "horizon": 1000},
    "exact_br_batch": {"trials": 4, "horizon": 500},
}

END_TO_END_UNITS = {"wall_s": "s", "trial_iters_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}

PER_LAYER_UNITS = {
    "agents.advance.calls": "count",
    "agents.advance.ns_per_call": "ns",
    "agents.advance.self_s": "s",
    "agents.emit.calls": "count",
    "agents.emit.samples": "count",
    "agents.emit.ns_per_sample": "ns",
    "agents.emit.self_s": "s",
    "losses.grad.calls": "count",
    "losses.grad.ns_per_call": "ns",
    "losses.grad.self_s": "s",
    "solver.iters": "count",
    "solver.run_s": "s",
    "solver.self_ns_per_iter": "ns",
    "solver.trial_s_p50": "s",
    "solver.trial_s_max": "s",
    "solver.divergences": "count",
    "oracle.theta_ps.calls": "count",
    "oracle.theta_ps_s": "s",
    "oracle.response_dataset.calls": "count",
    "oracle.fit_rate_s": "s",
    "harness.resolve_points_s": "s",
    "harness.self_s": "s",
    "harness.trace_csv_bytes": "bytes",
    "harness.pool_speedup": "ratio",
    "trace.overhead_frac": "ratio",
}


def load_reference() -> dict:
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)


def make_config(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    """The workload's config; its RNG seed is derived from ``seed`` and the name."""
    cfg = copy.deepcopy(WORKLOADS[workload])
    if tiny:
        cfg.update(TINY[workload])
    cfg["seed"] = random.Random(f"{workload}:{seed}").getrandbits(62)
    cfg["out"] = str(out)
    return cfg


def sweep_labels(cfg: dict) -> list:
    """Point labels in the harness's order (cartesian product of the sweep)."""
    sweep = cfg.get("sweep", [])
    if not sweep:
        return [""]
    names = [name for name, _ in sweep]
    return [",".join(f"{n}={v}" for n, v in zip(names, combo))
            for combo in itertools.product(*(values for _, values in sweep))]


def learner_updates(cfg: dict) -> int:
    return len(sweep_labels(cfg)) * cfg["trials"] * cfg["horizon"]


def trial_runs(cfg: dict) -> int:
    return len(sweep_labels(cfg)) * cfg["trials"]


def expected_theta_ps(cfg: dict, ref: dict):
    """Reference stable point and tolerance test for the config's preset."""
    if cfg["preset"] == "gaussian_ar":
        g = ref["gaussian_ar"]
        value = [g["z_bar"] / (1.0 - g["epsilon"])]
        tol = g["rel_tol"]
        return value, lambda got: all(abs(a - b) <= tol * abs(b) for a, b in zip(got, value))
    p = ref[cfg["preset"]]
    value = p["theta_ps"]
    tol = p["abs_tol"]
    return value, lambda got: all(abs(a - b) <= tol for a, b in zip(got, value))


# ---------------------------------------------------------------- processes

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """A process started in its own process group; killed after PROCESS_TIMEOUT_S."""

    def __init__(self, argv: list, log: Path):
        self.log = open(log, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=self.log,
                                     stderr=subprocess.STDOUT, start_new_session=True)
        self.timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg,
                                     (self.proc.pid, signal.SIGKILL))
        self.timer.start()
        self.result = None

    def reaped(self, status: int, usage):
        wall = time.perf_counter() - self.t0
        self.timer.cancel()
        self.log.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.result = (self.proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def kill(self):
        if self.result is None:
            self.timer.cancel()
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            self.log.close()


def wait_all(children: list) -> list:
    """Wait for every child; return its (exit code, wall s, max RSS MiB).

    Each child is reaped with ``wait4`` as it exits, so its wall time ends
    then. The max RSS covers the process and the pool workers it reaped.
    Children left running by an exception are killed.
    """
    pending = {c.proc.pid: c for c in children}
    try:
        while pending:
            pid, status, usage = os.wait4(-1, 0)
            if pid in pending:
                pending.pop(pid).reaped(status, usage)
    finally:
        for c in children:
            c.kill()
    return [c.result for c in children]


def launch(argv: list, log: Path):
    return wait_all([Child(argv, log)])[0]


def perfsim_argv(command: str, cfg_path: Path) -> list:
    return [sys.executable, "-m", "perfsim.cli", command, "--config", str(cfg_path)]


def perfsim(command: str, cfg_path: Path, log: Path):
    return launch(perfsim_argv(command, cfg_path), log)


def write_config(cfg: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return path


# ------------------------------------------------------------------- checks

def check_outputs(cfg: dict, rc: int, ref: dict, pinned_sha256=None) -> tuple:
    """Check one ``perfsim run``; return (failed trial-runs, problems, trace digest).

    A trial-run fails when it is listed as diverged; every trial-run of the
    process fails when the process exits non-zero or any check fails.
    """
    out = Path(cfg["out"])
    problems = [f"exit code {rc}"] if rc != 0 else []
    try:
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        trace_bytes = (out / "trace.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return trial_runs(cfg), problems + [f"outputs unreadable: {exc}"], None
    digest = hashlib.sha256(trace_bytes).hexdigest()
    if pinned_sha256 is not None and digest != pinned_sha256:
        problems.append(f"trace.csv sha256 {digest} != pinned {pinned_sha256}")
    try:
        problems += summary_problems(cfg, summary, ref) + trace_problems(cfg, trace_bytes)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        problems.append(f"outputs malformed: {exc!r}")
    return (trial_runs(cfg) if problems else 0), problems, digest


def summary_problems(cfg: dict, summary: dict, ref: dict) -> list:
    problems = []
    labels = sweep_labels(cfg)
    if summary["schema"] != 1:
        problems.append(f"summary schema {summary['schema']!r} != 1")
    points = summary["points"]
    if [p["label"] for p in points] != labels:
        problems.append(f"summary points {[p['label'] for p in points]} != sweep {labels}")
    want, matches = expected_theta_ps(cfg, ref)
    diverged = 0
    for p in points:
        diverged += len(p["diverged"])
        got = p["theta_ps"]
        if len(got) != len(want) or not matches(got):
            problems.append(f"theta_ps {got} of {p['label']} != reference {want}")
    if diverged:
        problems.append(f"{diverged} diverged trial-runs")
    return problems


def trace_problems(cfg: dict, trace_bytes: bytes) -> list:
    """Every err_mean column finite, and lower at k = horizon than at k = 100."""
    rows = list(csv.reader(trace_bytes.decode().splitlines()))
    header, body = rows[0], rows[1:]
    ks = [int(r[0]) for r in body]
    K = cfg["horizon"]
    if 100 not in ks or ks[-1] != K:
        return [f"trace.csv lacks k = 100 or k = {K}"]
    problems = []
    i100 = ks.index(100)
    for label in sweep_labels(cfg):
        name = f"err_mean[{label}]" if label else "err_mean"
        if name not in header:
            problems.append(f"trace.csv lacks column {name}")
            continue
        col = [float(r[header.index(name)]) for r in body]
        if not all(math.isfinite(v) for v in col):
            problems.append(f"{name} has non-finite values")
        elif not col[-1] < col[i100]:
            problems.append(f"{name} at k = {K} ({col[-1]:.4g}) is not below k = 100 "
                            f"({col[i100]:.4g})")
    return problems


def check_oracle(cfg: dict, log: Path, rc: int, ref: dict) -> list:
    """Check the lines ``perfsim oracle`` prints: one stable point per sweep point."""
    if rc != 0:
        return [f"oracle exit code {rc}"]
    lines = log.read_text().split("\n")[:-1]
    labels = sweep_labels(cfg)
    if len(lines) != len(labels):
        return [f"oracle printed {len(lines)} lines for {len(labels)} sweep points"]
    want, matches = expected_theta_ps(cfg, ref)
    problems = []
    for line, label in zip(lines, labels):
        fields = line.split()
        try:
            values = [float(v) for v in (fields[1:] if label else fields)]
        except ValueError:
            values = []
        if (label and fields[:1] != [label]) or len(values) != len(want) or not matches(values):
            problems.append(f"oracle line {line!r} != reference {want}")
    return problems


class Tally:
    """Trial-runs attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, cfg: dict, failed: int, problems: list, what: str):
        self.attempted += trial_runs(cfg)
        self.failed += failed
        self.problems.extend(f"{what}: {p}" for p in problems)


def run_checked(cfg: dict, cfg_path: Path, tag: str, ref: dict, tally: Tally,
                pinned_sha256=None, same_as=None):
    """One checked ``perfsim run``; return (wall s, max RSS MiB, trace digest)."""
    out = Path(cfg["out"])
    shutil.rmtree(out, ignore_errors=True)
    rc, wall, rss = perfsim("run", cfg_path, out.parent / f"{tag}.log")
    failed, problems, digest = check_outputs(cfg, rc, ref, pinned_sha256)
    if not problems and same_as is not None and digest != same_as:
        problems = [f"trace.csv sha256 {digest} differs from an earlier run of the same seed"]
        failed = trial_runs(cfg)
    tally.add(cfg, failed, problems, tag)
    return wall, rss, digest


def check_pinned(workload: str, ref: dict, tally: Tally):
    """Run the pinned Gaussian config and compare its trace.csv with the pinned digest."""
    pinned = ref["pinned_trace"].get(workload)
    if pinned is None:
        return
    wdir = WORK / workload
    cfg = dict(pinned["config"], out=str(wdir / "pinned"))
    run_checked(cfg, write_config(cfg, wdir / "pinned.json"), "pinned", ref, tally,
                pinned_sha256=pinned["sha256"])


# ------------------------------------------------------------- measurement

def measure_end_to_end(workload: str, seed: int, seconds: float, ref: dict, tally: Tally,
                       tiny: bool, record: dict) -> dict:
    wdir = WORK / workload
    cfg = make_config(workload, seed, wdir / "out", tiny)
    cfg_path = write_config(cfg, wdir / "config.json")
    record["configs"] = {"run": cfg}

    setup = []
    for i in range(SETUP_LAUNCHES):
        log = wdir / "oracle.log"
        rc, wall, _ = perfsim("oracle", cfg_path, log)
        setup.append(wall)
        tally.problems.extend(f"oracle {i}: {p}" for p in check_oracle(cfg, log, rc, ref))

    check_pinned(workload, ref, tally)

    walls, rss, digest = [], [], None
    start = time.perf_counter()
    while True:
        wall, peak, d = run_checked(cfg, cfg_path, f"run{len(walls)}", ref, tally,
                                    same_as=digest)
        digest = digest or d
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break

    updates = learner_updates(cfg)
    record["samples"] = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss,
                         "learner_updates": updates}
    return {
        "wall_s": statistics.median(walls),
        "trial_iters_per_s": statistics.median([updates / w for w in walls]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(workload: str, seed: int, ref: dict, tally: Tally, tiny: bool,
                   record: dict) -> tuple:
    """Traced serial run alongside an untraced serial run, then a default-pool run.

    The traced and untraced serial runs use one core each, at the same time,
    so both see the same machine; the pooled run uses both cores alone.
    Equal seeds give byte-identical traces whatever the worker count or
    tracing, so all three must match.
    """
    wdir = WORK / workload
    cfg = make_config(workload, seed, wdir / "out", tiny)
    serial = dict(cfg, workers=1, out=str(wdir / "serial"))
    traced = dict(cfg, workers=1, out=str(wdir / "traced"))
    cfg_path = write_config(cfg, wdir / "config.json")
    serial_path = write_config(serial, wdir / "config_serial.json")
    traced_path = write_config(traced, wdir / "config_traced.json")
    record["configs"] = {"run": cfg, "serial": serial, "traced": traced}

    check_pinned(workload, ref, tally)

    layers_json = wdir / "layers.json"
    layers_json.unlink(missing_ok=True)
    for c in (serial, traced):
        shutil.rmtree(c["out"], ignore_errors=True)
    (rc, traced_wall, _), (serial_rc, serial_wall, _) = wait_all([
        Child([sys.executable, str(BENCH_DIR / "layers.py"), "--config", str(traced_path),
               "--metrics", str(layers_json), "--spans", str(wdir / "spans.csv")],
              wdir / "traced.log"),
        Child(perfsim_argv("run", serial_path), wdir / "serial.log"),
    ])
    failed, problems, digest = check_outputs(traced, rc, ref)
    tally.add(traced, failed, problems, "traced")
    failed, problems, serial_digest = check_outputs(serial, serial_rc, ref)
    if not problems and serial_digest != digest:
        problems, failed = ["trace.csv differs from the traced run's"], trial_runs(serial)
    tally.add(serial, failed, problems, "serial")
    pool_wall, _, _ = run_checked(cfg, cfg_path, "pool", ref, tally, same_as=digest)

    try:
        with open(layers_json) as fh:
            layers = json.load(fh)
    except (OSError, ValueError) as exc:
        tally.problems.append(f"layers.py exit code {rc}, no metrics: {exc}")
        layers = {"metrics": {}, "absent": {}}
    record["samples"] = {"traced_wall_s": traced_wall, "serial_wall_s": serial_wall,
                         "pool_wall_s": pool_wall, "layers": layers}

    metrics = dict(layers["metrics"])
    metrics["harness.pool_speedup"] = serial_wall / pool_wall
    metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
    return metrics, layers.get("absent", {})


def environment(seed: int) -> dict:
    def git_commit():
        try:
            top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown: git not runnable"
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unknown: not a git checkout"
        return lines[1]

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, ref: dict | None = None) -> dict:
    """Measure one workload and return the result object printed last."""
    ref = load_reference() if ref is None else ref
    record = environment(seed)
    record.update(workload=workload, trace=int(trace), seconds=seconds, tiny=tiny,
                  loadavg_start=loadavg())
    tally = Tally()
    (WORK / workload).mkdir(parents=True, exist_ok=True)
    absent = {}
    if trace:
        values, absent = measure_layers(workload, seed, ref, tally, tiny, record)
        units = PER_LAYER_UNITS
    else:
        values = measure_end_to_end(workload, seed, seconds, ref, tally, tiny, record)
        units = END_TO_END_UNITS
    record["loadavg_end"] = loadavg()

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            metrics[name] = {"value": None, "unit": unit,
                             "absent": absent.get(name, "not measured")}
        else:
            metrics[name] = {"value": value, "unit": unit}
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {"correct": not tally.problems and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record.update(result=result, failed_frac=failed_frac, problems=tally.problems)

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / (f"{workload}-seed{seed}-trace{int(trace)}"
                                 f"{'-tiny' if tiny else ''}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        shown = m["value"] if m["value"] is not None else f"absent ({m['absent']})"
        print(f"{workload} {name} = {shown} {m['unit']}")
    print(f"{workload} failed_frac = {failed_frac} ratio "
          f"({tally.failed} of {tally.attempted} trial-runs)")
    env_keys = ("nproc", "cpu_count", "python", "numpy", "git_commit", "workload_seed",
                "loadavg_start", "loadavg_end")
    print(f"environment: {json.dumps({k: record[k] for k in env_keys})}")
    print(f"record: {record_path}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "perfsim" / "cli.py").is_file():
        print(f"perfbench: no perfsim sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
