"""The state-dependent stochastic-approximation engine and its one-step check.

``sa_run`` is the learner: per iteration the learner draws the emitted
sample(s) from the agent chain and takes one stochastic gradient step, and
the new model is deployed. Its config selects greedy deployment (one agent
transition per update), several transitions per update, minibatches, or lazy
deployment (several learner updates per agent round). It advances a block
of trials together as arrays with a leading trial axis; each trial keeps
its own random streams, so its trace does not depend on the block it runs
in. ``one_step_contraction_probe`` checks the one-step error bound of a
single update by Monte Carlo. The stable point itself, the root of the
mean field that the learner follows, comes from :mod:`perfsim.oracle`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import StepSchedule, as_param
from .losses import LossModel, dot

# Last spawn-key entries of a trial's two streams, (trial, AGENT_STREAM) and
# (trial, SAMPLE_STREAM): agent-state transitions and learner-side sample
# draws use separate streams so variants sharing dynamics share randomness.
AGENT_STREAM = 0
SAMPLE_STREAM = 1

# Squared-error guard corresponding to an iterate norm around 1e12.
DIVERGENCE_CAP = 1e24

# Failure kind of a trial whose iterate left the finite range; the step size
# is too aggressive.
DIVERGENCE = "DivergenceError"


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one stochastic-approximation experiment.

    ``br_per_iter`` repeats the agent transition per learner update;
    ``learner_iters_per_agent_round`` repeats learner updates per agent
    round (lazy deployment). They are opposing experiments, so at most one
    of them may exceed 1. Lazy deployment draws one sample per learner
    update, so it excludes minibatches. The number of trials is not a
    field: a block runs as many trials as its kernel was built for.
    """

    theta0: np.ndarray
    schedule: StepSchedule
    horizon: int
    batch: int = 1
    br_per_iter: int = 1
    learner_iters_per_agent_round: int = 1
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

    def __reduce__(self):
        # a pickled copy is built, checked and frozen by the constructor
        return RunConfig, tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class RunTrace:
    """Recorded iterations of a block of trials run together.

    ``errors[i, j]`` is the squared distance to the stable point of block
    row ``i`` after ``iterations[j]`` updates. A failed trial keeps its
    row; its errors from its failing iteration on and its ``final_theta``
    row are NaN, and ``failures`` maps its block row to its ``{"trial",
    "iteration", "kind"}`` record, in the order the trials failed (a block
    may hold equal trial numbers of several problems, so rows are the key).
    """

    iterations: np.ndarray
    errors: np.ndarray
    samples_drawn: np.ndarray
    agent_updates: np.ndarray
    final_theta: np.ndarray
    failures: dict

    def __len__(self):
        return self.iterations.shape[0]


def _trial_rngs(config: RunConfig, trial: int):
    """A trial's (agent, sample) generators, from the spawn keys
    ``(trial, AGENT_STREAM)`` and ``(trial, SAMPLE_STREAM)`` under the seed."""
    return tuple(np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(trial, s)))
                 for s in (AGENT_STREAM, SAMPLE_STREAM))


class _BlockEmpty(Exception):
    """Every trial of the block has failed."""


def sa_run(loss: LossModel, kernel, config: RunConfig, theta_ps, trials=None,
           record=None) -> RunTrace:
    """Run state-dependent stochastic approximation for ``config.horizon`` updates.

    Advances the ``kernel.trials`` trials of the kernel together, one block
    row each; ``trials`` gives their trial numbers, which seed their random
    streams (default: ``range(kernel.trials)``; ``ValueError`` unless it
    has ``kernel.trials`` entries). At the start of every agent round (each
    ``learner_iters_per_agent_round`` updates) the kernel advances
    ``br_per_iter`` times under the deployed models. Per update, ``batch``
    samples per trial are emitted from the current agent state and each
    model moves against its averaged gradient with step gamma_{k+1}.
    Squared distances to ``theta_ps`` are recorded at the increasing
    iterations ``record`` (default: 0 to the horizon); ``theta_ps`` is one
    finite stable point (d,) for every trial, or one row per trial (T, d)
    when the block holds trials of several problems (``ValueError`` for any
    other shape). Each trial is deterministic given ``(config.seed, trial)``
    and the kernel's initial state, whatever else runs in its block.

    A trial fails when its squared error exceeds ``DIVERGENCE_CAP`` or is
    not a number (kind ``DIVERGENCE``), or when the kernel's ``advance``
    reports its agents failed (the kernel's ``failure`` kind, a string).
    The error at iteration 0 is recorded but not checked against the cap. A
    failed trial keeps its row; its later errors and ``final_theta`` are
    NaN. Rows never interact, so the other trials go on unchanged; the block
    ends early only when every trial has failed.

    The per-row errors are computed only at the record iterations and on
    the steps where one guard on the whole block, ``vdot(theta, theta)``
    against a bound set by ``DIVERGENCE_CAP`` and ``theta_ps``, cannot rule
    out a failure; elsewhere no row can fail, so the failures are those of
    a check on every step. Once a trial has failed, the guard reads only
    the rows still alive.
    """
    K = config.horizon
    T = kernel.trials
    trials = np.arange(T) if trials is None else np.asarray(trials, dtype=np.int64)
    if trials.shape != (T,):
        raise ValueError(f"kernel is built for {T} trials, trials lists {trials.size}")
    record = np.arange(K + 1) if record is None else np.asarray(record, dtype=np.int64)
    if record.size and (record[0] < 0 or record[-1] > K or np.any(np.diff(record) <= 0)):
        raise ValueError("record must list increasing iterations in [0, horizon]")
    d = config.theta0.shape[0]
    target = np.asarray(theta_ps, dtype=float)
    if target.shape not in ((d,), (T, d)) or not np.isfinite(target).all():
        raise ValueError(f"theta_ps must be finite with shape {(d,)} or {(T, d)}, "
                         f"got {target.shape}")
    target = np.broadcast_to(target, (T, d))
    streams = [_trial_rngs(config, int(t)) for t in trials]
    agent_rngs = [agent for agent, _ in streams]
    sample_rngs = [sample for _, sample in streams]

    # No row can fail a step on which vdot(theta, theta) <= limit = DIVERGENCE_CAP / 9 if
    # every ||t_r||^2 <= limit: by the triangle inequality a row's squared error is then at
    # most (2 sqrt(limit))^2 = 4 DIVERGENCE_CAP / 9, a margin no rounding closes. Otherwise
    # limit is -1 and every step takes the exact path, as does one with a NaN or inf theta.
    limit = DIVERGENCE_CAP / 9
    if not np.maximum.reduce(dot(target, target), initial=0.0) <= limit:
        limit = -1.0

    theta = np.tile(config.theta0, (T, 1))
    errors = np.full((T, record.shape[0]), np.nan)
    alive = np.ones(T, dtype=bool)
    live = None  # the rows the guard reads once a trial has failed
    failures = {}

    def fail(failed, iteration, kind):
        # record each trial's first failure; its row runs on and is masked after the loop
        nonlocal live
        new = np.flatnonzero(failed & alive)
        failures.update((r, {"trial": int(trials[r]), "iteration": iteration,
                             "kind": kind}) for r in new.tolist())
        alive[new] = False
        if not alive.any():
            raise _BlockEmpty
        live = np.flatnonzero(alive)

    slots = record.tolist() + [-1]
    slot = 0
    br = config.br_per_iter
    transitions = range(br)
    batch = config.batch
    inner = config.learner_iters_per_agent_round
    advance = kernel.advance
    emit = kernel.emit
    grad = loss.grad
    step = config.schedule.gamma
    vdot = np.vdot
    # a failed row's values may overflow: they are discarded, so are their warnings; so
    # may a start's error, which is recorded but not checked
    with np.errstate(all="ignore"):
        if slots[0] == 0:
            gap = theta - target
            errors[:, 0] = dot(gap, gap)
            slot = 1
        try:
            for k in range(K):
                if k % inner == 0:
                    for _ in transitions:
                        failed = advance(theta, agent_rngs)
                        if failed is not None:
                            fail(failed, k + 1, kernel.failure)
                theta = theta - step(k + 1) * grad(theta, emit(theta, sample_rngs, batch))
                recorded = k + 1 == slots[slot]
                # a failed row stays NaN or huge and would fail the guard on every step
                rows = theta if live is None else theta.take(live, axis=0)
                if recorded or not vdot(rows, rows) <= limit:
                    gap = theta - target
                    err = dot(gap, gap)
                    if failures:
                        err[~alive] = 0.0  # a failed row is NaN after the loop anyway
                    if not np.maximum.reduce(err) <= DIVERGENCE_CAP:
                        fail(~(err <= DIVERGENCE_CAP), k + 1, DIVERGENCE)
                    if recorded:
                        errors[:, slot] = err
                        slot += 1
        except _BlockEmpty:
            pass
    final_theta = theta
    for row, failure in failures.items():
        errors[row, np.searchsorted(record, failure["iteration"]):] = np.nan
        final_theta[row] = np.nan

    rounds = (record + inner - 1) // inner
    return RunTrace(iterations=record, errors=errors, samples_drawn=batch * record,
                    agent_updates=br * rounds, final_theta=final_theta, failures=failures)


def one_step_contraction_probe(loss: LossModel, kernel, theta, theta_ps, gamma: float,
                               n_mc: int, rng, *, mu_tilde: float, lipschitz: float,
                               sigma: float) -> tuple:
    """Estimate the expected post-step squared error and its one-step bound.

    Requires a memoryless (i.i.d.) kernel so the stochastic gradient is
    conditionally unbiased; the ``n_mc`` samples are one emission from it. Returns the tuple
    ``(lhs, rhs, stderr)``: the Monte Carlo estimate of E||theta' -
    theta_ps||^2 over ``n_mc`` fresh samples, the bound ``(1 - 2 gamma
    mu_tilde + 2 L^2 gamma^2) ||theta - theta_ps||^2 + 2 sigma^2 gamma^2``,
    with ``L = lipschitz`` and the sample noise level ``sigma``, and the Monte
    Carlo standard error for the assertion ``lhs <= rhs + 3 stderr``. Raises ``ValueError`` unless
    ``mu_tilde`` is positive.
    """
    if not mu_tilde > 0:
        raise ValueError(f"mu_tilde must be positive, got {mu_tilde!r}")
    theta = as_param(theta)
    target = as_param(theta_ps, d=theta.shape[0])
    samples = kernel.emit(theta[None], [rng], n_mc)
    # one single-sample step from theta per draw: the draws become n_mc trials
    if isinstance(samples, tuple):
        one_each = tuple(a.swapaxes(0, 1) for a in samples)
    else:
        one_each = samples.swapaxes(0, 1)
    g = loss.grad(np.tile(theta, (n_mc, 1)), one_each)
    gap = theta - gamma * g - target
    sq = dot(gap, gap)
    lhs = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    dist = theta - target
    dist2 = float(dist @ dist)
    rhs = ((1.0 - 2.0 * gamma * mu_tilde + 2.0 * lipschitz ** 2 * gamma ** 2) * dist2
           + 2.0 * sigma ** 2 * gamma ** 2)
    return lhs, rhs, stderr
