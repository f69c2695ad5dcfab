"""Optimization loops: state-dependent stochastic approximation and baselines.

``sa_run`` is the learner: per iteration the learner draws the emitted
sample(s) from the agent chain and takes one stochastic gradient step, and
the new model is deployed. Its config selects greedy deployment (one agent
transition per update), several transitions per update, minibatches, or lazy
deployment (several learner updates per agent round). It advances a block
of trials together as arrays with a leading trial axis; each trial keeps
its own random streams, so its trace does not depend on the block it runs
in. ``rrm_run`` is the repeated-risk-minimization baseline operating on
exact best-response data: each outer step minimizes the empirical risk of
the one-trial batch (see :mod:`perfsim.losses`) that the current model
induces.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .core import RngStream, StepSchedule, as_param
from .losses import LossModel, dot

__all__ = [
    "RunConfig",
    "RunTrace",
    "DivergenceError",
    "ConvergenceError",
    "NonContractionError",
    "sa_run",
    "rrm_run",
    "minimize_empirical_risk",
    "ProbeResult",
    "one_step_contraction_probe",
]

# Substream indices: agent-state transitions and learner-side sample draws
# use separate streams so variants sharing dynamics share randomness.
AGENT_STREAM = 0
SAMPLE_STREAM = 1

# Squared-error guard corresponding to an iterate norm around 1e12.
DIVERGENCE_CAP = 1e24


class DivergenceError(RuntimeError):
    """Failure kind of a trial whose iterate left the finite range; the step
    size is too aggressive."""


class ConvergenceError(RuntimeError):
    """An inner minimization failed to reach its tolerance."""


class NonContractionError(RuntimeError):
    """Fixed-point iteration expanded repeatedly; sensitivity looks too large."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one stochastic-approximation experiment.

    ``br_per_iter`` repeats the agent transition per learner update;
    ``learner_iters_per_agent_round`` repeats learner updates per agent
    round (lazy deployment). They are opposing experiments, so at most one
    of them may exceed 1. Lazy deployment draws one sample per learner
    update, so it excludes minibatches.
    """

    theta0: np.ndarray
    schedule: StepSchedule
    horizon: int
    batch: int = 1
    br_per_iter: int = 1
    learner_iters_per_agent_round: int = 1
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        theta0 = as_param(self.theta0)
        theta0.setflags(write=False)
        object.__setattr__(self, "theta0", theta0)
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.batch < 1 or self.br_per_iter < 1 or self.learner_iters_per_agent_round < 1:
            raise ValueError("batch, br_per_iter and learner_iters_per_agent_round must be >= 1")
        if self.br_per_iter > 1 and self.learner_iters_per_agent_round > 1:
            raise ValueError("br_per_iter and learner_iters_per_agent_round cannot both exceed 1")
        if self.batch > 1 and self.learner_iters_per_agent_round > 1:
            raise ValueError("lazy runs draw one sample per learner update; "
                             "batch and learner_iters_per_agent_round cannot both exceed 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class RunTrace:
    """Recorded iterations of a block of trials run together.

    ``errors[i, j]`` is the squared distance to the stable point of trial
    ``trials[i]`` after ``iterations[j]`` updates. A failed trial leaves the
    block at its failing iteration: its later errors and its ``final_theta``
    row are NaN, and ``failures`` holds one ``{"trial", "iteration",
    "kind"}`` record per failed trial, in the order they failed, with its
    block row in ``failed_rows`` (a block may hold equal trial numbers of
    several problems).
    """

    trials: np.ndarray
    iterations: np.ndarray
    errors: np.ndarray
    samples_drawn: np.ndarray
    agent_updates: np.ndarray
    final_theta: np.ndarray
    failures: list
    failed_rows: list

    def __len__(self):
        return self.iterations.shape[0]


def _trial_rngs(config: RunConfig, trial: int):
    root = RngStream(config.seed).substream(trial)
    return (root.substream(AGENT_STREAM).generator(),
            root.substream(SAMPLE_STREAM).generator())


def _map_batch(fn, batch):
    """Apply ``fn`` to the array, or to each array of the tuple, ``batch``."""
    return tuple(fn(a) for a in batch) if isinstance(batch, tuple) else fn(batch)


class _BlockEmpty(Exception):
    """Every trial of the block has failed."""


def sa_run(loss: LossModel, kernel, config: RunConfig, theta_ps, trials=None,
           record=None) -> RunTrace:
    """Run state-dependent stochastic approximation for ``config.horizon`` updates.

    Advances the trials ``trials`` (default: all ``config.trials``) together;
    ``kernel`` must be built for that many trials. At the start of every
    agent round (each ``learner_iters_per_agent_round`` updates) the kernel
    advances ``br_per_iter`` times under the deployed models. Per update,
    ``batch`` samples per trial are emitted from the current agent state and
    each model moves against its averaged gradient with step gamma_{k+1}.
    Squared distances to ``theta_ps`` are recorded at the increasing
    iterations ``record`` (default: 0 to the horizon); ``theta_ps`` is one
    stable point (d,) for every trial, or one row per trial (T, d) when the
    block holds trials of several problems. Each trial is
    deterministic given ``(config.seed, trial)`` and the kernel's initial
    state, whatever else runs in its block.

    A trial fails when its squared error exceeds ``DIVERGENCE_CAP`` or is
    not a number (kind :class:`DivergenceError`), or when the kernel's
    ``advance`` reports its agents failed (the kernel's ``failure`` kind).
    It leaves the block at that iteration; the other trials go on unchanged.
    """
    K = config.horizon
    trials = np.arange(config.trials) if trials is None else np.asarray(trials, dtype=np.int64)
    record = np.arange(K + 1) if record is None else np.asarray(record, dtype=np.int64)
    if record.size and (record[0] < 0 or record[-1] > K or np.any(np.diff(record) <= 0)):
        raise ValueError("record must list increasing iterations in [0, horizon]")
    d = config.theta0.shape[0]
    target = np.asarray(theta_ps, dtype=float)
    if target.ndim < 2:
        target = np.tile(as_param(target, d=d), (trials.shape[0], 1))
    elif target.shape != (trials.shape[0], d) or not np.isfinite(target).all():
        raise ValueError(f"theta_ps rows must be finite with shape {(trials.shape[0], d)}, "
                         f"got {target.shape}")
    gam = np.atleast_1d(np.asarray(config.schedule.gamma(np.arange(1, K + 1)), dtype=float))
    gam = gam.tolist()  # Python floats index faster than array elements
    streams = [_trial_rngs(config, int(t)) for t in trials]
    agent_rngs = [agent for agent, _ in streams]
    sample_rngs = [sample for _, sample in streams]

    theta = np.tile(config.theta0, (trials.shape[0], 1))
    rows = np.arange(trials.shape[0])      # output row of each trial in the block
    errors = np.full((rows.shape[0], record.shape[0]), np.nan)
    final_theta = np.full(theta.shape, np.nan)
    failures, failed_rows = [], []

    def drop(failed, iteration, kind):
        # remove the failed trials from every per-trial array and stream list
        nonlocal theta, target, rows, agent_rngs, sample_rngs
        failures.extend({"trial": int(trials[r]), "iteration": iteration, "kind": kind.__name__}
                        for r in rows[failed])
        failed_rows.extend(rows[failed].tolist())
        keep = ~failed
        theta, target, rows = theta[keep], target[keep], rows[keep]
        agent_rngs = [rng for rng, kept in zip(agent_rngs, keep) if kept]
        sample_rngs = [rng for rng, kept in zip(sample_rngs, keep) if kept]
        kernel.keep(keep)
        if not rows.shape[0]:
            raise _BlockEmpty
        return keep

    slots = record.tolist() + [-1]
    slot = 0
    if slots[0] == 0:
        gap = theta - target
        errors[:, 0] = dot(gap, gap)
        slot = 1
    br = config.br_per_iter
    batch = config.batch
    inner = config.learner_iters_per_agent_round
    advance = kernel.advance
    emit = kernel.emit
    grad = loss.grad
    try:
        for k in range(K):
            if k % inner == 0:
                for _ in range(br):
                    failed = advance(theta, agent_rngs)
                    if failed is not None:
                        drop(failed, k + 1, kernel.failure)
            theta = theta - gam[k] * grad(theta, emit(theta, sample_rngs, batch))
            gap = theta - target
            err = dot(gap, gap)
            if not err.max() <= DIVERGENCE_CAP:
                keep = drop(~(err <= DIVERGENCE_CAP), k + 1, DivergenceError)
                err = err[keep]
            if k + 1 == slots[slot]:
                errors[rows, slot] = err
                slot += 1
        final_theta[rows] = theta
    except _BlockEmpty:
        pass

    rounds = (record + inner - 1) // inner
    return RunTrace(trials=trials, iterations=record, errors=errors,
                    samples_drawn=batch * record, agent_updates=br * rounds,
                    final_theta=final_theta, failures=failures, failed_rows=failed_rows)


def minimize_empirical_risk(loss: LossModel, dataset, theta0: np.ndarray,
                            tol: float = 1e-10, max_iters: int = 200_000) -> np.ndarray:
    """Full-batch gradient descent on the one-trial batch ``dataset`` to
    gradient norm <= tol.

    The step is the inverse of the dataset-averaged smoothness constant, so
    descent is monotone for both loss models.
    """
    theta = as_param(theta0).copy()
    step = 1.0 / loss.smoothness(dataset)
    for _ in range(max_iters):
        g = loss.grad(theta[None], dataset)[0]
        if float(np.sqrt(g @ g)) <= tol:
            return theta
        theta -= step * g
    raise ConvergenceError(f"empirical risk minimization did not reach tol={tol}")


def rrm_run(loss: LossModel, distribution_oracle: Callable[[np.ndarray], object],
            theta0, outer_iters: int, inner_tol: float = 1e-10,
            stop_tol: float = 0.0) -> List[np.ndarray]:
    """Repeated risk minimization against refreshed best-response data.

    Each outer step materializes the dataset induced by the current model via
    ``distribution_oracle`` and minimizes the empirical risk over it exactly.
    Returns the iterate path (including the start). Stops early once
    consecutive iterates are within ``stop_tol``.

    Raises :class:`NonContractionError` when the outer movement grows for
    five consecutive steps, which signals the contraction condition fails.
    """
    theta = as_param(theta0).copy()
    path = [theta.copy()]
    prev_move = np.inf
    expansions = 0
    for _ in range(outer_iters):
        dataset = distribution_oracle(theta)
        theta_next = minimize_empirical_risk(loss, dataset, theta, tol=inner_tol)
        path.append(theta_next.copy())
        move = float(np.linalg.norm(theta_next - theta))
        theta = theta_next
        if move <= stop_tol:
            break
        expansions = expansions + 1 if move > prev_move else 0
        if expansions >= 5:
            raise NonContractionError(
                "outer movement grew for 5 consecutive steps; "
                "the problem appears outside the contraction regime")
        prev_move = move
    return path


@dataclass
class ProbeResult:
    """Monte Carlo one-step inequality check: lhs vs analytic rhs."""

    lhs: float
    rhs: float
    stderr: float


def one_step_contraction_probe(loss: LossModel, kernel, constants, theta, theta_ps,
                               gamma: float, n_mc: int, rng) -> ProbeResult:
    """Estimate the expected post-step squared error and its one-step bound.

    Requires a memoryless (i.i.d.) kernel so the stochastic gradient is
    conditionally unbiased; the ``n_mc`` samples are one emission from it. Returns the Monte Carlo estimate of
    E||theta' - theta_ps||^2 over ``n_mc`` fresh samples (``lhs``), the bound
    ``(1 - 2 gamma mu_tilde + 2 L^2 gamma^2) ||theta - theta_ps||^2
    + 2 sigma^2 gamma^2`` (``rhs``), and the Monte Carlo standard error for
    the assertion ``lhs <= rhs + 3 stderr``.
    """
    theta = as_param(theta)
    target = as_param(theta_ps, d=theta.shape[0])
    samples = kernel.emit(theta[None], [rng], n_mc)
    # one single-sample step from theta per draw: the draws become n_mc trials
    one_each = _map_batch(lambda a: a.swapaxes(0, 1), samples)
    g = loss.grad(np.tile(theta, (n_mc, 1)), one_each)
    gap = theta - gamma * g - target
    sq = dot(gap, gap)
    lhs = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    mu_tilde = constants.require_contraction()
    dist = theta - target
    dist2 = float(dist @ dist)
    rhs = ((1.0 - 2.0 * gamma * mu_tilde + 2.0 * constants.lipschitz ** 2 * gamma ** 2) * dist2
           + 2.0 * constants.sigma_noise ** 2 * gamma ** 2)
    return ProbeResult(lhs=lhs, rhs=rhs, stderr=stderr)
