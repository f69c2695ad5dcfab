"""Experiment harness: presets, sweeps, multi-trial orchestration, file output.

An experiment is described by an :class:`ExperimentSpec` (usually loaded from
a JSON config). For every sweep point the harness resolves the stable point
via the oracle. Points that differ only in Gaussian problem parameters that
leave the step schedule alone form one group, and each group runs as one
trial-batched ``sa_run`` over all its trials; the groups run on a fork
process pool, or in-process with ``workers: 1``. Per point, the harness
aggregates mean and 5th/95th percentile error per recorded iteration from
its rows of the group's trace, and writes plot-ready
``trace.csv`` plus a ``summary.json`` that makes the figures reproducible
from the file alone.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                     ExactBestResponseKernel, GaussianEnv, IidGaussianKernel,
                     LogisticUtility, QuadraticUtility)
from .core import ConstantSchedule, InverseSchedule, ProblemConstants, as_param
from .data import generate_synthetic
from .losses import LogisticLoss, QuadraticLoss, logistic_constants
from .oracle import fit_rate, theta_ps_fixed_point, theta_ps_gaussian
from .solver import RunConfig, RunTrace, sa_run

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "PRESETS",
    "record_grid",
    "resolve_points",
    "run_experiment",
]

SCHEMA_VERSION = 1
FLOAT_FORMAT = "%.17g"


class ConfigError(ValueError):
    """The experiment description is invalid."""


# The problem fields of each family: name -> (default, kind). A kind is
# float (a finite number), int, or the tuple of strings the field takes. A
# field whose default is None may be null, which means "derived".
_FAMILIES = {
    "gaussian": {
        "z_bar": (10.0, float),
        "sigma": (50.0, float),
        "epsilon": (0.1, float),
        "rho": (0.5, float),
        "kernel": ("ar", ("ar", "iid")),      # "iid": memoryless (greedy deploy)
        "z0": (None, float),                  # initial chain state; z_bar
        "gamma": (None, float),               # a constant step size instead of c0/c1
        "c0": (None, float),                  # 500/mu_tilde
        "c1": (None, float),                  # 800/mu_tilde^2
    },
    "pool": {
        "d": (3, int),
        "m": (200, int),
        "data_seed": (7, int),
        "separation": (1.0, float),
        "epsilon": (0.01, float),
        "beta": (None, float),                # 1000/m
        "participation": (5, int),
        "alpha": (None, float),               # 0.5 * epsilon
        "kernel": ("pool", ("pool", "iid")),  # adapted BR, or exact BR (greedy deploy)
        "utility": ("quadratic", ("quadratic", "logistic")),
        "gamma": (None, float),
        "c0": (None, float),                  # 100/mu_tilde
        "c1": (None, float),                  # 8 L^2/mu_tilde^2
    },
}

PRESETS = {
    "gaussian_ar": "scalar Gaussian mean estimation with an autoregressive agent chain",
    "strat_class_linear": "strategic classification, linear-gain agent utility",
    "strat_class_logistic": "strategic classification, logistic-gain agent utility",
    "custom": "fully explicit problem description (see README)",
}

# preset -> (family, utility); a custom problem names both itself
_PRESET_FAMILY = {
    "gaussian_ar": ("gaussian", None),
    "strat_class_linear": ("pool", "quadratic"),
    "strat_class_logistic": ("pool", "logistic"),
    "custom": (None, None),
}

# The integer run fields and their least values; the first four may be swept.
_RUN_FIELDS = {"batch": 1, "br_per_iter": 1, "learner_iters_per_agent_round": 1, "trials": 1,
               "seed": 0, "horizon": 0, "workers": 0}
_RUN_FIELD_SWEEPS = ("batch", "br_per_iter", "learner_iters_per_agent_round", "trials")


def _check(name: str, value, kind, least=None):
    """Raise a ConfigError naming ``name`` unless ``value`` is of ``kind``:
    float (a finite number), int (an integer, at least ``least``), or a
    tuple of the strings the field takes."""
    # bool is an int subclass, but JSON true is not a number
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok, want = number and abs(value) <= sys.float_info.max, "a finite number"
    elif kind is int:
        ok, want = number and isinstance(value, int), "an integer"
        if least is not None:
            ok, want = ok and value >= least, f"an integer >= {least}"
    else:
        ok, want = value in kind, "one of " + ", ".join(kind)
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")


def _fields(preset: str, problem: dict) -> dict:
    """The problem fields ``preset`` takes: name -> (default, kind)."""
    family, _ = _PRESET_FAMILY[preset]
    if family is None:  # custom: the family is a field, and so is a pool's utility
        family = problem.get("family", "gaussian")
        _check("problem parameter family", family, tuple(_FAMILIES))
        return {"family": (family, tuple(_FAMILIES)), **_FAMILIES[family]}
    return {name: field for name, field in _FAMILIES[family].items() if name != "utility"}


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``problem`` holds preset-specific parameter overrides; ``sweep`` is a
    list of ``(param, values)`` pairs expanded as a cartesian product, where
    each param must name a problem parameter or one of
    ``batch / br_per_iter / learner_iters_per_agent_round / trials``.
    """

    preset: str
    seed: int = 2024
    trials: int = 20
    horizon: int = 100_000
    batch: int = 1
    br_per_iter: int = 1
    learner_iters_per_agent_round: int = 1
    theta0: Optional[list] = None
    problem: dict = field(default_factory=dict)
    sweep: list = field(default_factory=list)
    rate_window: Optional[list] = None
    out: str = "results"
    workers: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        if "preset" not in raw:
            raise ConfigError("config must name a preset")
        spec = cls(**raw)
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def validate(self):
        _check("preset", self.preset, tuple(PRESETS))
        for name, least in _RUN_FIELDS.items():
            _check(name, getattr(self, name), int, least)
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if not isinstance(self.theta0, (list, tuple, type(None))):
            raise ConfigError(f"theta0 must be null or a list of numbers, got {self.theta0!r}")
        for value in self.theta0 or ():
            _check("theta0 entry", value, float)
        if not isinstance(self.problem, dict):
            raise ConfigError(f"problem must be an object, got {self.problem!r}")
        fields = _fields(self.preset, self.problem)
        unknown = set(self.problem) - set(fields)
        if unknown:
            raise ConfigError(f"unknown problem parameter(s) for {self.preset}: "
                              f"{', '.join(sorted(unknown))}")
        pairs = self.normalized_sweep() if isinstance(self.sweep, (dict, list, tuple)) else None
        if pairs is None or not all(len(pair) == 2 and isinstance(pair[0], str) for pair in pairs):
            raise ConfigError(f"sweep must be a list of [name, values] pairs, got {self.sweep!r}")
        names = [param for param, _ in pairs]
        for param, values in pairs:
            # the family selects the field table, so it is not swept
            if param == "family" or (param not in fields and param not in _RUN_FIELD_SWEEPS):
                raise ConfigError(f"sweep parameter {param!r} does not name a field "
                                  "that can be swept")
            if names.count(param) > 1:
                raise ConfigError(f"sweep parameter {param!r} is swept more than once")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep values for {param!r} must be a non-empty list")
        checks = [(f"problem parameter {param}", param, value)
                  for param, value in self.problem.items()]
        checks += [(f"sweep value of {param}", param, value)
                   for param, values in pairs for value in values]
        for name, param, value in checks:
            if param in _RUN_FIELD_SWEEPS:
                _check(name, value, int, _RUN_FIELDS[param])
            elif value is not None or fields[param][0] is not None:
                _check(name, value, fields[param][1])
        for param, values in pairs:  # checked values are numbers, strings or null
            if len(set(values)) < len(values):
                raise ConfigError(f"sweep values for {param!r} repeat a value: {values!r}")
        window = self.rate_window
        if window is not None and not (
                isinstance(window, (list, tuple)) and len(window) == 2
                and all(isinstance(k, int) and not isinstance(k, bool) for k in window)
                and 1 <= window[0] < window[1]):
            raise ConfigError("rate_window must be [k_lo, k_hi], two integers with "
                              f"1 <= k_lo < k_hi, got {window!r}")

    def normalized_sweep(self) -> list:
        """The sweep as ``(param, values)`` pairs; an entry that is not a
        list or tuple becomes an empty tuple, which ``validate`` rejects."""
        if isinstance(self.sweep, dict):
            return list(self.sweep.items())
        return [tuple(pair) if isinstance(pair, (list, tuple)) else () for pair in self.sweep]


@dataclass
class ResolvedPoint:
    """One sweep point, fully materialized and ready to run."""

    label: str
    overrides: dict
    loss: object
    kernel_factory: Callable
    config: RunConfig
    theta_ps: np.ndarray
    schedule_desc: dict
    problem_desc: dict


def _point_label(overrides: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in overrides.items())


def _make_schedule(params: dict, default_c0: float, default_c1: float):
    if params.get("gamma") is not None:
        return ConstantSchedule(float(params["gamma"]))
    c0 = params["c0"] if params["c0"] is not None else default_c0
    c1 = params["c1"] if params["c1"] is not None else default_c1
    return InverseSchedule(c0=float(c0), c1=float(c1))


def _resolve_gaussian(params: dict) -> tuple:
    """The Gaussian point's ``(loss, kernel_factory, schedule, theta_ps, problem_desc)``."""
    env = GaussianEnv(z_bar=float(params["z_bar"]), epsilon=float(params["epsilon"]),
                      sigma=float(params["sigma"]), rho=float(params["rho"]))
    loss = QuadraticLoss()
    constants = ProblemConstants(mu=1.0, lipschitz=1.0, sensitivity=env.epsilon,
                                 sigma_noise=env.sigma)
    mu_tilde = constants.require_contraction()
    schedule = _make_schedule(params, 500.0 / mu_tilde, 800.0 / mu_tilde ** 2)
    theta_ps = np.array([theta_ps_gaussian(env)])
    kernel_factory = (partial(ArGaussianKernel, env, params["z0"]) if params["kernel"] == "ar"
                      else partial(IidGaussianKernel, env))
    desc = {k: params[k] for k in ("z_bar", "sigma", "epsilon", "rho", "kernel")}
    desc.update(mu=constants.mu, lipschitz=constants.lipschitz, mu_tilde=mu_tilde)
    return loss, kernel_factory, schedule, theta_ps, desc


def _resolve_pool(params: dict) -> tuple:
    """The pool point's ``(loss, kernel_factory, schedule, theta_ps, problem_desc)``."""
    dataset = generate_synthetic(d=params["d"], m=params["m"], seed=params["data_seed"],
                                 separation=float(params["separation"]))
    epsilon = float(params["epsilon"])
    beta = float(params["beta"]) if params["beta"] is not None else 1000.0 / dataset.size
    alpha = float(params["alpha"]) if params["alpha"] is not None else 0.5 * epsilon
    utility = {"quadratic": QuadraticUtility, "logistic": LogisticUtility}[params["utility"]]
    pool = AgentPool(base_features=dataset.features, labels=dataset.labels,
                     utility=utility(epsilon=epsilon), alpha=alpha,
                     participation=params["participation"])
    loss = LogisticLoss(beta=beta)
    lipschitz, mu_tilde = logistic_constants(dataset.features, beta=beta, epsilon=epsilon)
    if mu_tilde <= 0:
        raise ConfigError(f"estimated mu_tilde = {mu_tilde:.4g} <= 0; "
                          "the problem is outside the contraction regime")
    schedule = _make_schedule(params, 100.0 / mu_tilde, 8.0 * lipschitz ** 2 / mu_tilde ** 2)
    theta_ps = theta_ps_fixed_point(loss, pool)
    kernel = {"pool": AdaptedBestResponseKernel, "iid": ExactBestResponseKernel}[params["kernel"]]
    kernel_factory = partial(kernel, pool)
    desc = {"d": dataset.dim, "m": dataset.size, "data_seed": params["data_seed"],
            "utility": params["utility"], "epsilon": epsilon, "beta": beta, "alpha": alpha,
            "participation": params["participation"], "kernel": params["kernel"],
            "lipschitz_est": lipschitz, "mu_tilde_est": mu_tilde}
    return loss, kernel_factory, schedule, theta_ps, desc


def _resolve_point(spec: ExperimentSpec, overrides: dict, problems: dict) -> ResolvedPoint:
    """The point of ``spec`` with ``overrides``; ``problems`` caches the
    resolved problem by its parameters, so points that differ only in run
    fields share one dataset and one stable-point solve."""
    family, utility = _PRESET_FAMILY[spec.preset]
    params = {"family": family, "utility": utility}
    params.update((name, default) for name, (default, _) in
                  _fields(spec.preset, spec.problem).items())
    params.update(spec.problem)
    run_fields = {name: getattr(spec, name) for name in _RUN_FIELD_SWEEPS}
    for key, value in overrides.items():
        (run_fields if key in _RUN_FIELD_SWEEPS else params)[key] = value
    key = tuple(sorted(params.items()))
    if key not in problems:
        resolve = _resolve_gaussian if params["family"] == "gaussian" else _resolve_pool
        problems[key] = resolve(params)
    loss, kernel_factory, schedule, theta_ps, desc = problems[key]
    d = theta_ps.shape[0]
    theta0 = as_param(spec.theta0 if spec.theta0 is not None else np.zeros(d), d=d)
    config = RunConfig(theta0=theta0, schedule=schedule, horizon=spec.horizon,
                       seed=spec.seed, **run_fields)
    return ResolvedPoint(label=_point_label(overrides), overrides=overrides, loss=loss,
                         kernel_factory=kernel_factory, config=config, theta_ps=theta_ps,
                         schedule_desc=schedule.describe(), problem_desc=desc)


def resolve_points(spec: ExperimentSpec) -> list:
    """Expand the sweep into fully resolved run descriptions."""
    spec.validate()
    sweep = spec.normalized_sweep()
    names = [param for param, _ in sweep]
    problems = {}
    return [_resolve_point(spec, dict(zip(names, combo)), problems)
            for combo in itertools.product(*(values for _, values in sweep))]


def record_grid(horizon: int) -> np.ndarray:
    """Iterations to record: dense up to 10^3, then geometrically thinned."""
    ks = set(range(0, min(horizon, 1000) + 1))
    v = 1.0
    while True:
        k = math.ceil(v)
        if k > horizon:
            break
        ks.add(k)
        v *= 1.05
    ks.add(horizon)
    return np.array(sorted(ks), dtype=np.int64)


def _group_key(point: ResolvedPoint) -> tuple:
    """Points with equal keys run their trials in one block: they share every
    ``RunConfig`` field but ``trials``, and a kernel class that stacks the
    rows of several problems (a pool kernel's point is a group of its own)."""
    kind = point.kernel_factory.func
    c = point.config
    return (kind if hasattr(kind, "stack") else point.label, c.theta0.tobytes(),
            c.schedule, c.horizon, c.batch, c.br_per_iter, c.learner_iters_per_agent_round, c.seed)


def _run_group(job) -> RunTrace:
    """Run one group's rows as one block; its ``RunTrace``."""
    loss, parts, config, theta_ps, grid, trials = job
    kernels = [factory(trials=n) for factory, n in parts]
    kernel = kernels[0] if len(kernels) == 1 else type(kernels[0]).stack(kernels)
    return sa_run(loss, kernel, config, theta_ps, trials=trials, record=grid)


def _execute_points(points: list, grid: np.ndarray, workers: int) -> list:
    """Run every trial of ``points``; per point, its group's ``RunTrace`` and
    the range of the point's rows in it.

    Each group (see ``_group_key``) runs as one block, point by point and
    trial by trial. The groups run in-process when ``workers`` is 1, else on
    a fork process pool of at most ``workers`` processes, one per group and
    CPU.
    """
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault(_group_key(point), []).append(i)
    jobs = []
    for members in groups.values():
        counts = [points[i].config.trials for i in members]
        first = points[members[0]]  # the group shares its loss and run fields
        jobs.append((first.loss, [(points[i].kernel_factory, n) for i, n in zip(members, counts)],
                     first.config, np.repeat([points[i].theta_ps for i in members], counts, axis=0),
                     grid, np.concatenate([np.arange(n) for n in counts])))
    if workers == 1:
        traces = [_run_group(job) for job in jobs]
    else:
        # A single job forks too: run in-process, gauss_ar_sweep peaked at
        # 43.0 MiB RSS against 35.4 MiB forked (+21 %), because the parent
        # then imports numpy.random itself (+5.8 MiB).
        processes = min(workers, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
            traces = list(pool.map(_run_group, jobs))
    results = [None] * len(points)
    for members, trace in zip(groups.values(), traces):
        lo = 0
        for i in members:
            results[i] = (trace, range(lo, lo + points[i].config.trials))
            lo += points[i].config.trials
    return results


def run_experiment(spec: ExperimentSpec):
    """Execute the experiment and write ``trace.csv`` / ``summary.json``.

    Returns the summary dictionary (also written to disk). Divergent trials
    are recorded per point and excluded from aggregation; a point with no
    surviving trial yields NaN columns.
    """
    points = resolve_points(spec)
    grid = record_grid(spec.horizon)
    workers = spec.workers if spec.workers > 0 else min(os.cpu_count() or 1, 8)

    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = [("k", grid)]
    summary_points = []
    for point, (trace, rows) in zip(points, _execute_points(points, grid, workers)):
        # agent-side failures happen when the learner iterate blows up too; the
        # trial is recorded as divergent rather than aborting the experiment
        failed = dict(zip(trace.failed_rows, trace.failures))
        diverged = [failed[row] for row in rows if row in failed]
        ok = [row for row in rows if row not in failed]
        sfx = f"[{point.label}]" if point.label else ""
        if ok:
            errs = trace.errors[ok]
            err_mean = errs.mean(axis=0)
            err_p05 = np.percentile(errs, 5.0, axis=0)
            err_p95 = np.percentile(errs, 95.0, axis=0)
            samples = trace.samples_drawn
            agents = trace.agent_updates
        else:
            err_mean = err_p05 = err_p95 = np.full(grid.shape, np.nan)
            samples = agents = np.full(grid.shape, -1, dtype=np.int64)
        columns.extend([
            (f"samples_drawn{sfx}", samples),
            (f"agent_updates{sfx}", agents),
            (f"err_mean{sfx}", err_mean),
            (f"err_p05{sfx}", err_p05),
            (f"err_p95{sfx}", err_p95),
        ])

        rate = rate_error = None
        if not ok:
            rate_error = "no trial survived"
        elif spec.horizon < 2:
            rate_error = "horizon is below 2"
        else:
            k_lo, k_hi = (spec.rate_window if spec.rate_window is not None
                          else (max(1, spec.horizon // 100), spec.horizon))
            try:
                fit = fit_rate(grid, err_mean, k_lo, k_hi)
                rate = {"slope": fit.slope, "intercept": fit.intercept,
                        "r2": fit.r2, "k_lo": fit.k_range[0], "k_hi": fit.k_range[1]}
            except ValueError as exc:
                rate_error = str(exc)
        summary_points.append({
            "label": point.label,
            "overrides": point.overrides,
            "problem": point.problem_desc,
            "schedule": point.schedule_desc,
            "theta_ps": [float(v) for v in point.theta_ps],
            "theta0": [float(v) for v in point.config.theta0],
            "trials": point.config.trials,
            "algorithm": "lazy" if point.config.learner_iters_per_agent_round > 1 else "sa",
            "batch": point.config.batch,
            "br_per_iter": point.config.br_per_iter,
            "learner_iters_per_agent_round": point.config.learner_iters_per_agent_round,
            "diverged": diverged,
            "rate_fit": rate,
            "rate_fit_error": rate_error,
            "final_mean_error": float(err_mean[-1]) if ok else None,
        })

    trace_path = out_dir / "trace.csv"
    with open(trace_path, "w", newline="") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        for i in range(grid.shape[0]):
            cells = []
            for _, values in columns:
                v = values[i]
                if isinstance(v, (np.integer, int)):
                    cells.append(str(int(v)))
                else:
                    cells.append(FLOAT_FORMAT % v)
            fh.write(",".join(cells) + "\n")

    summary = {
        "schema": SCHEMA_VERSION,
        "preset": spec.preset,
        "seed": spec.seed,
        "horizon": spec.horizon,
        "spec": dataclasses.asdict(spec),
        "points": summary_points,
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
