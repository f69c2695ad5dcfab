"""Experiment harness: presets, sweeps, multi-trial orchestration, file output.

An experiment is described by an :class:`ExperimentSpec` (usually loaded from
a JSON config). For every sweep point the harness resolves the stable point
via the oracle, splits the trials into contiguous blocks (one per worker of
a fork process pool, or a single in-process block), runs each block as one
trial-batched ``sa_run``, aggregates mean and 5th/95th percentile error per
recorded iteration, and writes plot-ready ``trace.csv`` plus a
``summary.json`` that makes the figures reproducible from the file alone.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
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
from .solver import RunConfig, sa_run

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


_GAUSSIAN_DEFAULTS = {
    "z_bar": 10.0,
    "sigma": 50.0,
    "epsilon": 0.1,
    "rho": 0.5,
    "kernel": "ar",          # "ar" or "iid" (greedy deploy)
    "z0": None,              # initial chain state; defaults to z_bar
    "gamma": None,           # set for a constant step size instead of c0/c1
    "c0": None,              # diminishing-schedule constants; default
    "c1": None,              # 500/mu_tilde and 800/mu_tilde^2
}

_POOL_DEFAULTS = {
    "d": 3,
    "m": 200,
    "data_seed": 7,
    "separation": 1.0,
    "epsilon": 0.01,
    "beta": None,            # default 1000/m
    "participation": 5,
    "alpha": None,           # default 0.5 * epsilon
    "kernel": "pool",        # "pool" (adapted BR) or "iid" (exact BR greedy deploy)
    "gamma": None,           # set for a constant step size instead of c0/c1
    "c0": None,              # default 100/mu_tilde
    "c1": None,              # default 8 L^2 / mu_tilde^2
}

PRESETS = {
    "gaussian_ar": "scalar Gaussian mean estimation with an autoregressive agent chain",
    "strat_class_linear": "strategic classification, linear-gain agent utility",
    "strat_class_logistic": "strategic classification, logistic-gain agent utility",
    "custom": "fully explicit problem description (see README)",
}

_RUN_FIELD_SWEEPS = ("batch", "br_per_iter", "learner_iters_per_agent_round", "trials")
_INT_FIELDS = ("seed", "trials", "horizon", "batch", "br_per_iter",
               "learner_iters_per_agent_round", "workers")


def _require_int(name: str, value):
    # bool is an int subclass, but JSON true is not a count
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_scalar(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float, type(None))):
        raise ConfigError(f"{name} must be null, a string or a number, got {value!r}")


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
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        for name in ("seed", "horizon", "workers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if not isinstance(self.problem, dict):
            raise ConfigError(f"problem must be an object, got {self.problem!r}")
        defaults = _problem_defaults(self.preset)
        unknown = set(self.problem) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown problem parameter(s) for {self.preset}: "
                              f"{', '.join(sorted(unknown))}")
        for param, value in self.problem.items():
            _require_scalar(f"problem parameter {param}", value)
        pairs = self.sweep.items() if isinstance(self.sweep, dict) else self.sweep
        if not isinstance(self.sweep, (dict, list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                for pair in pairs):
            raise ConfigError(f"sweep must be a list of [name, values] pairs, got {self.sweep!r}")
        for param, values in pairs:
            if param not in defaults and param not in _RUN_FIELD_SWEEPS:
                raise ConfigError(f"sweep parameter {param!r} does not name a field")
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep values for {param!r} must be a non-empty list")
            check = _require_int if param in _RUN_FIELD_SWEEPS else _require_scalar
            for value in values:
                check(f"sweep value of {param}", value)
        window = self.rate_window
        if window is not None and not (
                isinstance(window, (list, tuple)) and len(window) == 2
                and all(isinstance(k, int) and not isinstance(k, bool) for k in window)
                and 1 <= window[0] < window[1]):
            raise ConfigError("rate_window must be [k_lo, k_hi], two integers with "
                              f"1 <= k_lo < k_hi, got {window!r}")

    def normalized_sweep(self) -> list:
        if isinstance(self.sweep, dict):
            return list(self.sweep.items())
        return [tuple(pair) for pair in self.sweep]


def _problem_defaults(preset: str) -> dict:
    if preset == "gaussian_ar":
        return dict(_GAUSSIAN_DEFAULTS)
    if preset in ("strat_class_linear", "strat_class_logistic"):
        return dict(_POOL_DEFAULTS)
    # custom: a family key selects which defaults apply
    merged = {"family": "gaussian", "utility": "quadratic"}
    merged.update(_GAUSSIAN_DEFAULTS)
    merged.update(_POOL_DEFAULTS)
    return merged


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


def _resolve_gaussian(params: dict, spec: ExperimentSpec, run_fields: dict) -> ResolvedPoint:
    env = GaussianEnv(z_bar=float(params["z_bar"]), epsilon=float(params["epsilon"]),
                      sigma=float(params["sigma"]), rho=float(params["rho"]))
    loss = QuadraticLoss()
    constants = ProblemConstants(mu=1.0, lipschitz=1.0, sensitivity=env.epsilon,
                                 sigma_noise=env.sigma)
    mu_tilde = constants.require_contraction()
    schedule = _make_schedule(params, 500.0 / mu_tilde, 800.0 / mu_tilde ** 2)
    theta_ps = np.array([theta_ps_gaussian(env)])
    if params["kernel"] == "ar":
        kernel_factory = partial(ArGaussianKernel, env, params["z0"])
    elif params["kernel"] == "iid":
        kernel_factory = partial(IidGaussianKernel, env)
    else:
        raise ConfigError(f"unknown gaussian kernel {params['kernel']!r}")
    theta0 = as_param(spec.theta0 if spec.theta0 is not None else [0.0], d=1)
    config = RunConfig(theta0=theta0, schedule=schedule, horizon=spec.horizon,
                       seed=spec.seed, **run_fields)
    desc = {k: params[k] for k in ("z_bar", "sigma", "epsilon", "rho", "kernel")}
    desc.update(mu=constants.mu, lipschitz=constants.lipschitz, mu_tilde=mu_tilde)
    return ResolvedPoint(label="", overrides={}, loss=loss, kernel_factory=kernel_factory,
                         config=config, theta_ps=theta_ps,
                         schedule_desc=schedule.describe(), problem_desc=desc)


def _resolve_pool(params: dict, spec: ExperimentSpec, run_fields: dict,
                  utility_kind: str) -> ResolvedPoint:
    dataset = generate_synthetic(d=int(params["d"]), m=int(params["m"]),
                                 seed=int(params["data_seed"]),
                                 separation=float(params["separation"]))
    epsilon = float(params["epsilon"])
    beta = float(params["beta"]) if params["beta"] is not None else 1000.0 / dataset.size
    alpha = float(params["alpha"]) if params["alpha"] is not None else 0.5 * epsilon
    if utility_kind == "quadratic":
        utility = QuadraticUtility(epsilon=epsilon)
    elif utility_kind == "logistic":
        utility = LogisticUtility(epsilon=epsilon)
    else:
        raise ConfigError(f"unknown utility {utility_kind!r}")
    pool = AgentPool(base_features=dataset.features, labels=dataset.labels,
                     utility=utility, alpha=alpha,
                     participation=int(params["participation"]))
    loss = LogisticLoss(beta=beta)
    lipschitz, mu_tilde = logistic_constants(dataset.features, beta=beta, epsilon=epsilon)
    if mu_tilde <= 0:
        raise ConfigError(f"estimated mu_tilde = {mu_tilde:.4g} <= 0; "
                          "the problem is outside the contraction regime")
    schedule = _make_schedule(params, 100.0 / mu_tilde, 8.0 * lipschitz ** 2 / mu_tilde ** 2)
    theta_ps = theta_ps_fixed_point(loss, pool)
    if params["kernel"] == "pool":
        kernel_factory = partial(AdaptedBestResponseKernel, pool)
    elif params["kernel"] == "iid":
        kernel_factory = partial(ExactBestResponseKernel, pool)
    else:
        raise ConfigError(f"unknown pool kernel {params['kernel']!r}")
    theta0 = as_param(spec.theta0 if spec.theta0 is not None else np.zeros(dataset.dim),
                      d=dataset.dim)
    config = RunConfig(theta0=theta0, schedule=schedule, horizon=spec.horizon,
                       seed=spec.seed, **run_fields)
    desc = {"d": dataset.dim, "m": dataset.size, "data_seed": params["data_seed"],
            "utility": utility_kind, "epsilon": epsilon, "beta": beta, "alpha": alpha,
            "participation": int(params["participation"]), "kernel": params["kernel"],
            "lipschitz_est": lipschitz, "mu_tilde_est": mu_tilde}
    return ResolvedPoint(label="", overrides={}, loss=loss, kernel_factory=kernel_factory,
                         config=config, theta_ps=theta_ps,
                         schedule_desc=schedule.describe(), problem_desc=desc)


def _resolve_point(spec: ExperimentSpec, overrides: dict) -> ResolvedPoint:
    params = _problem_defaults(spec.preset)
    params.update(spec.problem)
    run_fields = {name: getattr(spec, name) for name in _RUN_FIELD_SWEEPS}
    for key, value in overrides.items():
        if key in _RUN_FIELD_SWEEPS:
            run_fields[key] = value
        else:
            params[key] = value

    if spec.preset == "gaussian_ar":
        point = _resolve_gaussian(params, spec, run_fields)
    elif spec.preset == "strat_class_linear":
        point = _resolve_pool(params, spec, run_fields, "quadratic")
    elif spec.preset == "strat_class_logistic":
        point = _resolve_pool(params, spec, run_fields, "logistic")
    elif spec.preset == "custom":
        family = params.get("family")
        if family == "gaussian":
            point = _resolve_gaussian(params, spec, run_fields)
        elif family == "pool":
            point = _resolve_pool(params, spec, run_fields, params.get("utility", "quadratic"))
        else:
            raise ConfigError("custom preset requires problem.family of 'gaussian' or 'pool'")
    else:  # pragma: no cover - guarded by validate()
        raise ConfigError(f"unknown preset {spec.preset!r}")
    point.label = _point_label(overrides)
    point.overrides = overrides
    return point


def resolve_points(spec: ExperimentSpec) -> list:
    """Expand the sweep into fully resolved run descriptions."""
    spec.validate()
    sweep = spec.normalized_sweep()
    if not sweep:
        return [_resolve_point(spec, {})]
    names = [param for param, _ in sweep]
    value_lists = [values for _, values in sweep]
    points = []
    for combo in itertools.product(*value_lists):
        points.append(_resolve_point(spec, dict(zip(names, combo))))
    return points


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


def _run_block(args):
    """Run a contiguous block of trials; one result dict per trial, in order."""
    loss, kernel_factory, config, theta_ps, grid, trials = args
    trace = sa_run(loss, kernel_factory(trials=len(trials)), config, theta_ps,
                   trials=trials, record=grid)
    # agent-side failures happen when the learner iterate blows up too; the
    # trial is recorded as divergent rather than aborting the experiment
    failed = {f["trial"]: f for f in trace.failures}
    return [failed.get(trial) or {
        "trial": trial,
        "errors": trace.errors[i],
        "samples": trace.samples_drawn,
        "agents": trace.agent_updates,
        "final_theta": trace.final_theta[i],
    } for i, trial in enumerate(trials)]


def _execute_trials(point: ResolvedPoint, grid: np.ndarray, workers: int) -> list:
    n = point.config.trials
    blocks = max(1, min(workers, n))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    jobs = [(point.loss, point.kernel_factory, point.config, point.theta_ps, grid, range(lo, hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    if len(jobs) == 1:
        return _run_block(jobs[0])
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=len(jobs), mp_context=ctx) as pool:
        return [r for block in pool.map(_run_block, jobs) for r in block]


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
    for point in points:
        results = _execute_trials(point, grid, workers)
        ok = [r for r in results if "errors" in r]
        diverged = [r for r in results if "errors" not in r]
        sfx = f"[{point.label}]" if point.label else ""
        if ok:
            errs = np.vstack([r["errors"] for r in ok])
            err_mean = errs.mean(axis=0)
            err_p05 = np.percentile(errs, 5.0, axis=0)
            err_p95 = np.percentile(errs, 95.0, axis=0)
            samples = ok[0]["samples"]
            agents = ok[0]["agents"]
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
