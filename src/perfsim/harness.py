"""Experiment harness: presets, synthetic data, sweeps, multi-trial orchestration, file output.

An experiment is described by an :class:`ExperimentSpec` (usually loaded from
a JSON config). Each sweep point carries its problem (a ``GaussianEnv`` or
an ``AgentPool``), its stable point from the oracle, and its kernel class,
built as ``kernel(problem, trials=n)``. Points that differ only in Gaussian
problem parameters that leave the step schedule alone form one group, and
each group runs as one trial-batched ``sa_run`` over all its trials; the
groups run on a fork process pool, or in-process with ``workers: 1``. Each
point gets a trace of its own trials, from which the harness aggregates
mean and 5th/95th percentile error per recorded iteration; it writes
plot-ready ``trace.csv`` plus a ``summary.json`` that makes the figures
reproducible from the file alone.
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
from pathlib import Path
from typing import Optional

import numpy as np

from .agents import (AdaptedBestResponseKernel, AgentPool, ArGaussianKernel,
                     ExactBestResponseKernel, GaussianEnv, IidGaussianKernel,
                     LogisticUtility, QuadraticUtility)
from .core import ConstantSchedule, InverseSchedule, as_param
from .losses import LogisticLoss, QuadraticLoss, logistic_constants
from .oracle import fit_rate, theta_ps_fixed_point, theta_ps_gaussian
from .solver import RunConfig, RunTrace, sa_run

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
        "gamma": (None, float),               # a constant step size; c0, c1 then null
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
        "gamma": (None, float),
        "c0": (None, float),                  # 100/mu_tilde
        "c1": (None, float),                  # 8 L^2/mu_tilde^2
    },
}

# preset -> (description, family, utility); the preset alone decides both
PRESETS = {
    "gaussian_ar": ("scalar Gaussian mean estimation with an autoregressive agent chain",
                    "gaussian", None),
    "strat_class_linear": ("strategic classification, linear-gain agent utility",
                           "pool", "quadratic"),
    "strat_class_logistic": ("strategic classification, logistic-gain agent utility",
                             "pool", "logistic"),
}

# (family, kernel field) -> the kernel class that samples the point's problem
_KERNELS = {("gaussian", "ar"): ArGaussianKernel, ("gaussian", "iid"): IidGaussianKernel,
            ("pool", "pool"): AdaptedBestResponseKernel, ("pool", "iid"): ExactBestResponseKernel}

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


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment.

    ``problem`` holds preset-specific parameter overrides; ``sweep`` is a
    list of ``(param, values)`` pairs expanded as a cartesian product, where
    each param must name a problem parameter or one of
    ``batch / br_per_iter / learner_iters_per_agent_round / trials``. The
    spec checks itself when it is built, ``dataclasses.replace`` included.
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
        return cls(**raw)

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

    def __post_init__(self):
        self.validate()

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
        fields = _FAMILIES[PRESETS[self.preset][1]]
        unknown = set(self.problem) - set(fields)
        if unknown:
            raise ConfigError(f"unknown problem parameter(s) for {self.preset}: "
                              f"{', '.join(sorted(unknown))}")
        pairs = self.sweep
        if not isinstance(pairs, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                for pair in pairs):
            raise ConfigError(f"sweep must be a list of [name, values] pairs, got {self.sweep!r}")
        names = [param for param, _ in pairs]
        for param, values in pairs:
            if param not in fields and param not in _RUN_FIELD_SWEEPS:
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


@dataclass
class ResolvedPoint:
    """One sweep point, fully materialized and ready to run."""

    label: str
    overrides: dict
    loss: object
    problem: object  # the GaussianEnv or AgentPool the oracle solved
    kernel: type     # kernel(problem, trials=n) samples it in n trials
    config: RunConfig
    trials: int
    theta_ps: np.ndarray
    problem_desc: dict


def _point_label(overrides: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in overrides.items())


def _make_schedule(params: dict, mu_tilde: float, c0_scale: float, c1_scale: float):
    """The point's steps: the constant ``gamma``, else ``c0/(c1 + k)``, where a
    null c0 is ``c0_scale/mu_tilde`` and a null c1 is ``c1_scale/mu_tilde^2``.
    A ConfigError if gamma is set with c0 or c1, or if a derived constant is
    not a finite number."""
    c0, c1 = params["c0"], params["c1"]
    if params["gamma"] is not None:
        if c0 is not None or c1 is not None:
            raise ConfigError("gamma sets a constant step size, so c0 and c1 must be null")
        return ConstantSchedule(float(params["gamma"]))
    if c0 is None:
        c0 = c0_scale / mu_tilde
    if c1 is None:
        try:
            c1 = c1_scale / mu_tilde ** 2 if mu_tilde ** 2 else math.inf
        except OverflowError:  # mu_tilde ** 2 is beyond the float range
            c1 = math.nan
    for name, value in (("c0", c0), ("c1", c1)):
        if not math.isfinite(value):
            raise ConfigError(f"the derived {name} = {value} is not a finite number "
                              f"(mu_tilde_est = {mu_tilde:.4g}); set c0 and c1")
    return InverseSchedule(c0=float(c0), c1=float(c1))


def _resolve_gaussian(params: dict) -> tuple:
    """The Gaussian point's ``(loss, env, schedule, theta_ps, problem_desc)``."""
    env = GaussianEnv(z_bar=float(params["z_bar"]), epsilon=float(params["epsilon"]),
                      sigma=float(params["sigma"]), rho=float(params["rho"]), z0=params["z0"])
    loss = QuadraticLoss()
    mu_tilde = loss.mu - loss.lipschitz * env.epsilon  # > 0: GaussianEnv keeps epsilon < 1
    schedule = _make_schedule(params, mu_tilde, 500.0, 800.0)
    theta_ps = np.array([theta_ps_gaussian(env)])
    desc = {k: params[k] for k in ("z_bar", "sigma", "epsilon", "rho", "kernel")}
    desc.update(mu=loss.mu, lipschitz=loss.lipschitz, mu_tilde=mu_tilde)
    return loss, env, schedule, theta_ps, desc


def generate_synthetic(d: int, m: int, seed: int, separation: float = 1.0) -> tuple:
    """A balanced two-class Gaussian dataset, standardized per feature: the
    pair of the (m, d) features and the m labels, 0.0 or 1.0.

    It stands in for real credit-scoring data. Class-conditional means sit
    at +/- ``separation`` per coordinate with unit covariance; label counts
    differ by at most one. Reproducible from ``seed``. ``ValueError`` when
    a feature's standard deviation is not a finite number.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = np.random.default_rng(seed)
    n_pos = m // 2
    n_neg = m - n_pos
    X = rng.standard_normal((m, d))
    y = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    X[:n_pos] += separation
    X[n_pos:] -= separation
    order = rng.permutation(m)
    X, y = X[order], y[order]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        mean = X.mean(axis=0)
        std = X.std(axis=0)
    if not np.isfinite(std).all():
        raise ValueError(f"separation = {separation!r} is too large: the features' "
                         "standard deviation is not a finite number")
    std[std == 0.0] = 1.0
    return (X - mean) / std, y


def _resolve_pool(params: dict) -> tuple:
    """The pool point's ``(loss, pool, schedule, theta_ps, problem_desc)``."""
    features, labels = generate_synthetic(d=params["d"], m=params["m"], seed=params["data_seed"],
                                          separation=float(params["separation"]))
    m, d = features.shape
    epsilon = float(params["epsilon"])
    beta = float(params["beta"]) if params["beta"] is not None else 1000.0 / m
    alpha = float(params["alpha"]) if params["alpha"] is not None else 0.5 * epsilon
    utility = {"quadratic": QuadraticUtility, "logistic": LogisticUtility}[params["utility"]]
    pool = AgentPool(base_features=features, labels=labels,
                     utility=utility(epsilon=epsilon), alpha=alpha,
                     participation=params["participation"])
    loss = LogisticLoss(beta=beta)
    lipschitz, mu_tilde = logistic_constants(features, beta=beta, epsilon=epsilon)
    if mu_tilde <= 0:
        raise ConfigError(f"estimated mu_tilde = {mu_tilde:.4g} <= 0; "
                          "the problem is outside the contraction regime")
    schedule = _make_schedule(params, mu_tilde, 100.0, 8.0 * lipschitz ** 2)
    theta_ps = theta_ps_fixed_point(loss, pool)
    desc = {"d": d, "m": m, "data_seed": params["data_seed"],
            "utility": params["utility"], "epsilon": epsilon, "beta": beta, "alpha": alpha,
            "participation": params["participation"], "kernel": params["kernel"],
            "lipschitz_est": lipschitz, "mu_tilde_est": mu_tilde}
    return loss, pool, schedule, theta_ps, desc


def _resolve_point(spec: ExperimentSpec, overrides: dict) -> ResolvedPoint:
    """The point of ``spec`` with ``overrides``."""
    _, family, utility = PRESETS[spec.preset]
    params = {"utility": utility}
    params.update((name, default) for name, (default, _) in _FAMILIES[family].items())
    params.update(spec.problem)
    run_fields = {name: getattr(spec, name) for name in _RUN_FIELD_SWEEPS}
    for key, value in overrides.items():
        (run_fields if key in _RUN_FIELD_SWEEPS else params)[key] = value
    resolve = _resolve_gaussian if family == "gaussian" else _resolve_pool
    loss, problem, schedule, theta_ps, desc = resolve(params)
    if family == "pool" and run_fields["batch"] > desc["m"]:
        raise ConfigError(f"batch = {run_fields['batch']} exceeds the pool's m = {desc['m']} agents")
    d = theta_ps.shape[0]
    if spec.theta0 is not None and len(spec.theta0) != d:
        raise ConfigError(f"theta0 has length {len(spec.theta0)}, but the point's d is {d}")
    theta0 = as_param(spec.theta0 if spec.theta0 is not None else np.zeros(d), d=d)
    trials = run_fields.pop("trials")
    config = RunConfig(theta0=theta0, schedule=schedule, horizon=spec.horizon,
                       seed=spec.seed, **run_fields)
    return ResolvedPoint(label=_point_label(overrides), overrides=overrides, loss=loss,
                         problem=problem, kernel=_KERNELS[family, params["kernel"]],
                         config=config, trials=trials, theta_ps=theta_ps, problem_desc=desc)


def resolve_points(spec: ExperimentSpec) -> list:
    """Expand the sweep into fully resolved run descriptions."""
    spec.validate()  # its fields, problem and sweep may have been edited since it was built
    names = [param for param, _ in spec.sweep]
    return [_resolve_point(spec, dict(zip(names, combo)))
            for combo in itertools.product(*(values for _, values in spec.sweep))]


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
    """Points with equal keys run their trials in one block: they share their
    ``RunConfig``, and a kernel class that stacks the rows of several
    points' environments (a pool kernel's point is a group of its own). Every
    ``RunConfig`` field is in the key, ``theta0`` as its bytes."""
    run = [getattr(point.config, f.name) for f in dataclasses.fields(RunConfig)]
    return (point.kernel if hasattr(point.kernel, "stack") else point.label,
            *(v.tobytes() if isinstance(v, np.ndarray) else v for v in run))


def _run_group(job) -> list:
    """Run one group's points as one block; one ``RunTrace`` per point, of its
    own rows alone, with ``failures`` keyed by the point's trial numbers."""
    points, grid = job
    counts = [point.trials for point in points]
    kernels = [point.kernel(point.problem, trials=n) for point, n in zip(points, counts)]
    kernel = kernels[0] if len(kernels) == 1 else type(kernels[0]).stack(kernels)
    # the group shares its loss and run fields; its rows go point by point, trial by trial
    block = sa_run(points[0].loss, kernel, points[0].config,
                   np.repeat([point.theta_ps for point in points], counts, axis=0),
                   trials=np.concatenate([np.arange(n) for n in counts]), record=grid)
    ends = np.cumsum(counts)
    traces = [dataclasses.replace(block, errors=block.errors[end - n:end],
                                  final_theta=block.final_theta[end - n:end], failures={})
              for n, end in zip(counts, ends)]
    for row, failure in block.failures.items():  # in failure order
        traces[np.searchsorted(ends, row, side="right")].failures[failure["trial"]] = failure
    return traces


def _execute_points(points: list, grid: np.ndarray, workers: int) -> list:
    """Run every trial of ``points``; one ``RunTrace`` per point, in point order.

    Each group (see ``_group_key``) runs as one block in ``_run_group``. The
    groups run in-process when ``workers`` is 1, else on a fork process pool
    of at most ``workers`` processes (8 when it is 0), one per group and CPU.
    """
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault(_group_key(point), []).append(i)
    jobs = [([points[i] for i in members], grid) for members in groups.values()]
    if workers == 1:
        traces = [_run_group(job) for job in jobs]
    else:
        # A single job forks too: run in-process, gauss_ar_sweep peaked at
        # 43.0 MiB RSS against 35.4 MiB forked (+21 %), because the parent
        # then imports numpy.random itself (+5.8 MiB).
        processes = min(workers or 8, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
            traces = list(pool.map(_run_group, jobs))
    placed = dict(zip(itertools.chain(*groups.values()), itertools.chain(*traces)))
    return [placed[i] for i in range(len(points))]


def run_experiment(spec: ExperimentSpec):
    """Execute the experiment and write ``trace.csv`` / ``summary.json``.

    Returns the summary dictionary (also written to disk). Divergent trials
    are recorded per point and excluded from aggregation; a point with no
    surviving trial yields NaN columns.
    """
    points = resolve_points(spec)
    grid = record_grid(spec.horizon)

    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    columns = [("k", grid)]
    summary_points = []
    for point, trace in zip(points, _execute_points(points, grid, spec.workers)):
        # agent-side failures happen when the learner iterate blows up too; the
        # trial is recorded as divergent rather than aborting the experiment
        diverged = [trace.failures[trial] for trial in sorted(trace.failures)]
        ok = [trial for trial in range(point.trials) if trial not in trace.failures]
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
                rate = fit_rate(grid, err_mean, k_lo, k_hi)
            except ValueError as exc:
                rate_error = str(exc)
        summary_points.append({
            "label": point.label,
            "overrides": point.overrides,
            "problem": point.problem_desc,
            "schedule": point.config.schedule.describe(),
            "theta_ps": [float(v) for v in point.theta_ps],
            "theta0": [float(v) for v in point.config.theta0],
            "trials": point.trials,
            "algorithm": "lazy" if point.config.learner_iters_per_agent_round > 1 else "sa",
            "batch": point.config.batch,
            "br_per_iter": point.config.br_per_iter,
            "learner_iters_per_agent_round": point.config.learner_iters_per_agent_round,
            "diverged": diverged,
            "rate_fit": rate,
            "rate_fit_error": rate_error,
            "final_mean_error": float(err_mean[-1]) if ok else None,
        })

    fmt = ["%d" if values.dtype.kind in "iu" else FLOAT_FORMAT for _, values in columns]
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        np.savetxt(fh, np.column_stack([values for _, values in columns]), fmt=fmt,
                   delimiter=",")

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
