"""Optimization loops: state-dependent stochastic approximation and baselines.

``sa_run`` is the learner: per iteration the learner draws the emitted
sample(s) from the agent chain and takes one stochastic gradient step, and
the new model is deployed. Its config selects greedy deployment (one agent
transition per update), several transitions per update, minibatches, or lazy
deployment (several learner updates per agent round). ``rrm_run`` is the
repeated-risk-minimization baseline operating on exact best-response data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .agents import AgentDivergenceError, BestResponseError
from .core import RngStream, StepSchedule, as_param
from .losses import LossModel, Sample, mean_grad, mean_smoothness

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
    """Iterates left the finite range; the step size is too aggressive."""

    def __init__(self, iteration: int, error: float):
        super().__init__(f"run diverged at iteration {iteration} (squared error {error:.3e})")
        self.iteration = iteration
        self.error = error


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
    """Per-iteration record of one run, including the k = 0 starting point."""

    iterations: np.ndarray
    errors: np.ndarray
    samples_drawn: np.ndarray
    agent_updates: np.ndarray
    final_theta: np.ndarray

    def __len__(self):
        return self.iterations.shape[0]


def _trial_rngs(config: RunConfig, trial: int):
    root = RngStream(config.seed).substream(trial)
    return (root.substream(AGENT_STREAM).generator(),
            root.substream(SAMPLE_STREAM).generator())


def sa_run(loss: LossModel, kernel, config: RunConfig, theta_ps, trial: int = 0) -> RunTrace:
    """Run state-dependent stochastic approximation for ``config.horizon`` updates.

    At the start of every agent round (each ``learner_iters_per_agent_round``
    updates) the kernel advances ``br_per_iter`` times under the deployed
    model. Per update, ``batch`` samples are emitted from the current agent
    state and the model moves against the averaged gradient with step
    gamma_{k+1}. Errors are recorded as squared distance to ``theta_ps``.
    Deterministic given ``(config.seed, trial)`` and the kernel's initial
    state.

    Raises :class:`DivergenceError` if the iterate leaves the finite range.
    An agent-side :class:`AgentDivergenceError` or :class:`BestResponseError`
    propagates with its ``iteration`` attribute set to the failing update.
    """
    K = config.horizon
    theta = config.theta0.copy()
    target = as_param(theta_ps, d=theta.shape[0])
    gam = np.atleast_1d(np.asarray(config.schedule.gamma(np.arange(1, K + 1)), dtype=float))
    agent_rng, sample_rng = _trial_rngs(config, trial)

    errors = np.empty(K + 1)
    diff = theta - target
    errors[0] = float(diff @ diff)

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
                    advance(theta, agent_rng)
            samples = emit(theta, sample_rng, batch)
            g = grad(theta, samples[0])
            if batch > 1:
                for s in samples[1:]:
                    g = g + grad(theta, s)
                g = g / batch
            theta = theta - gam[k] * g
            diff = theta - target
            err = float(diff @ diff)
            if not err <= DIVERGENCE_CAP:
                raise DivergenceError(k + 1, err)
            errors[k + 1] = err
    except (AgentDivergenceError, BestResponseError) as exc:
        exc.iteration = k + 1
        raise

    counts = np.arange(K + 1, dtype=np.int64)
    rounds = (counts + inner - 1) // inner
    return RunTrace(iterations=counts.copy(), errors=errors, samples_drawn=batch * counts,
                    agent_updates=br * rounds, final_theta=theta)


def minimize_empirical_risk(loss: LossModel, dataset: Sequence[Sample], theta0: np.ndarray,
                            tol: float = 1e-10, max_iters: int = 200_000) -> np.ndarray:
    """Full-batch gradient descent to gradient norm <= tol.

    The step is the inverse of the dataset-averaged smoothness constant, so
    descent is monotone for both loss models.
    """
    theta = as_param(theta0).copy()
    step = 1.0 / mean_smoothness(loss, dataset)
    for _ in range(max_iters):
        g = mean_grad(loss, theta, dataset)
        if float(np.sqrt(g @ g)) <= tol:
            return theta
        theta -= step * g
    raise ConvergenceError(f"empirical risk minimization did not reach tol={tol}")


def rrm_run(loss: LossModel, distribution_oracle: Callable[[np.ndarray], Sequence[Sample]],
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
    conditionally unbiased. Returns the Monte Carlo estimate of
    E||theta' - theta_ps||^2 over ``n_mc`` fresh samples (``lhs``), the bound
    ``(1 - 2 gamma mu_tilde + 2 L^2 gamma^2) ||theta - theta_ps||^2
    + 2 sigma^2 gamma^2`` (``rhs``), and the Monte Carlo standard error for
    the assertion ``lhs <= rhs + 3 stderr``.
    """
    theta = as_param(theta)
    target = as_param(theta_ps, d=theta.shape[0])
    sq = np.empty(n_mc)
    for i in range(n_mc):
        s = kernel.emit(theta, rng, 1)[0]
        theta_next = theta - gamma * loss.grad(theta, s)
        d = theta_next - target
        sq[i] = d @ d
    lhs = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    mu_tilde = constants.require_contraction()
    dist = theta - target
    dist2 = float(dist @ dist)
    rhs = ((1.0 - 2.0 * gamma * mu_tilde + 2.0 * constants.lipschitz ** 2 * gamma ** 2) * dist2
           + 2.0 * constants.sigma_noise ** 2 * gamma ** 2)
    return ProbeResult(lhs=lhs, rhs=rhs, stderr=stderr)
