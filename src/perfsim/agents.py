"""Controlled Markov kernels generating the sample stream seen by the learner.

Three sampling regimes are covered:

* memoryless (i.i.d.) sampling from the model-shifted distribution,
* an autoregressive Gaussian chain whose stationary mean tracks the
  deployed model,
* a pool of agents that adapt their submitted features by one utility
  gradient-ascent step per round instead of replying with the exact argmax.

Every kernel exposes the same two-phase interface: ``advance(theta, rng)``
performs one Markov transition of the agent state, ``emit(theta, rng, n)``
produces the sample(s) handed to the learner from the current state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .losses import Sample, sigmoid, log1pexp

__all__ = [
    "GaussianEnv",
    "QuadraticUtility",
    "LogisticUtility",
    "Utility",
    "AgentPool",
    "IidGaussianKernel",
    "ArGaussianKernel",
    "ExactBestResponseKernel",
    "AdaptedBestResponseKernel",
    "BestResponseError",
    "AgentDivergenceError",
]

BR_TOL = 1e-8
BR_MAX_INNER = 10_000


class BestResponseError(RuntimeError):
    """Inner best-response maximization failed to reach tolerance."""


class AgentDivergenceError(RuntimeError):
    """Agent features became non-finite (response rate too large)."""


@dataclass(frozen=True)
class GaussianEnv:
    """Scalar Gaussian environment whose mean shifts with the deployed model.

    At model ``theta`` the induced sample law is N(z_bar + epsilon * theta,
    sigma^2); the autoregressive chain mixes toward it with regression
    parameter ``rho`` (rho = 1 recovers i.i.d. sampling).
    """

    z_bar: float
    epsilon: float
    sigma: float
    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")

    def shifted_mean(self, theta: np.ndarray) -> float:
        return self.z_bar + self.epsilon * float(theta[0])

    def stationary_variance(self) -> float:
        """Variance of the chain's stationary law at any fixed model."""
        return self.sigma ** 2 * self.rho / (2.0 - self.rho)

    def response_dataset(self, theta: np.ndarray) -> list:
        """Exact representation of the induced law for risk minimization.

        For the quadratic loss only the mean matters, so the point mass at
        the shifted mean minimizes the same risk as the full Gaussian.
        """
        return [Sample(scalar=self.shifted_mean(theta))]


@dataclass(frozen=True)
class QuadraticUtility:
    """Linear gain with a quadratic moving cost; the argmax is closed form."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def value(self, xp, base_x, y, theta):
        move = np.asarray(xp) - np.asarray(base_x)
        return xp @ theta - np.sum(move * move, axis=-1) / (2.0 * self.epsilon)

    def grad(self, xp, base_x, y, theta):
        return theta - (np.asarray(xp) - np.asarray(base_x)) / self.epsilon

    def best_response(self, base_x, y, theta, tol: float = BR_TOL):
        return np.asarray(base_x, dtype=float) + self.epsilon * theta


@dataclass(frozen=True)
class LogisticUtility:
    """Label-aware log-likelihood gain with a quadratic moving cost.

    The argmax has no closed form; ``best_response`` runs gradient ascent
    with fixed step ``epsilon / 2``, which contracts because the utility is
    (1/epsilon)-strongly concave with (1/epsilon + ||theta||^2/4)-Lipschitz
    gradient. It takes one agent (``base_x`` of shape (d,)) or a stack of
    agents (shape (m, d), with ``y`` of shape (m,)) and stops once every
    agent's gradient norm is at most ``tol``.
    """

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def value(self, xp, base_x, y, theta):
        u = xp @ theta
        move = np.asarray(xp) - np.asarray(base_x)
        return y * u - log1pexp(u) - np.sum(move * move, axis=-1) / (2.0 * self.epsilon)

    def grad(self, xp, base_x, y, theta):
        u = xp @ theta
        coef = np.asarray(y - sigmoid(u))[..., None]
        return coef * theta - (np.asarray(xp) - np.asarray(base_x)) / self.epsilon

    def best_response(self, base_x, y, theta, tol: float = BR_TOL):
        x = np.array(base_x, dtype=float)
        step = self.epsilon / 2.0
        for _ in range(BR_MAX_INNER):
            g = self.grad(x, base_x, y, theta)
            if (g * g).sum(axis=-1).max() <= tol * tol:
                return x
            x += step * g
        raise BestResponseError(f"no convergence to tol={tol} in {BR_MAX_INNER} ascent steps")


Utility = Union[QuadraticUtility, LogisticUtility]


class AgentPool:
    """Immutable description of a finite agent population.

    Holds the unshifted base data (never mutated), the agents' utility, the
    per-round response rate ``alpha`` and the number of agents
    ``participation`` that adapt per round. The evolving feature state lives
    in :class:`AdaptedBestResponseKernel`.
    """

    def __init__(self, base_features: np.ndarray, labels: np.ndarray,
                 utility: Utility, alpha: float, participation: int):
        base = np.array(base_features, dtype=float)
        lab = np.array(labels, dtype=np.int64)
        if base.ndim != 2:
            raise ValueError("base_features must be an m x d matrix")
        if lab.shape != (base.shape[0],):
            raise ValueError("labels must have one entry per agent")
        if not np.all(np.isfinite(base)):
            raise ValueError("base features must be finite")
        if not np.isin(lab, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if not 1 <= participation <= base.shape[0]:
            raise ValueError("participation must lie in [1, m]")
        base.setflags(write=False)
        lab.setflags(write=False)
        self.base_features = base
        self.labels = lab
        self.utility = utility
        self.alpha = float(alpha)
        self.participation = int(participation)

    @property
    def size(self) -> int:
        return self.base_features.shape[0]

    @property
    def dim(self) -> int:
        return self.base_features.shape[1]

    def response_dataset(self, theta: np.ndarray, tol: float = 1e-10) -> list:
        """Exact best-response dataset induced by ``theta`` (labels fixed)."""
        X = self.utility.best_response(self.base_features, self.labels, theta, tol=tol)
        return [Sample(features=X[i].copy(), label=int(self.labels[i]))
                for i in range(self.size)]


class IidGaussianKernel:
    """Memoryless sampling from the shifted Gaussian law (greedy deploy)."""

    def __init__(self, env: GaussianEnv):
        self.env = env

    @property
    def state(self):
        return None

    def advance(self, theta, rng):
        pass

    def emit(self, theta, rng, n: int = 1):
        mean = self.env.shifted_mean(theta)
        if n == 1:
            return [Sample(scalar=mean + self.env.sigma * rng.standard_normal())]
        draws = mean + self.env.sigma * rng.standard_normal(n)
        return [Sample(scalar=float(z)) for z in draws]


class ArGaussianKernel:
    """Autoregressive Gaussian chain: z' = (1 - rho) z + rho * (shifted mean + noise).

    At fixed theta the chain mixes to a Gaussian with the same mean as the
    i.i.d. law but variance reduced by rho / (2 - rho); with rho = 1 it is
    exactly the i.i.d. kernel.
    """

    def __init__(self, env: GaussianEnv, z0: Optional[float] = None):
        self.env = env
        self.z = env.z_bar if z0 is None else float(z0)

    @property
    def state(self) -> float:
        return self.z

    def advance(self, theta, rng):
        env = self.env
        target = env.shifted_mean(theta) + env.sigma * rng.standard_normal()
        self.z = (1.0 - env.rho) * self.z + env.rho * target

    def emit(self, theta, rng, n: int = 1):
        return [Sample(scalar=self.z) for _ in range(n)]


class ExactBestResponseKernel:
    """Memoryless pool sampling where every reply is an exact best response."""

    def __init__(self, pool: AgentPool):
        self.pool = pool

    @property
    def state(self):
        return None

    def advance(self, theta, rng):
        pass

    def emit(self, theta, rng, n: int = 1):
        pool = self.pool
        if n == 1:
            idx = [int(rng.integers(pool.size))]
        else:
            idx = rng.choice(pool.size, size=n, replace=False)
        out = []
        for i in idx:
            x = pool.utility.best_response(pool.base_features[i], float(pool.labels[i]), theta)
            out.append(Sample(features=np.asarray(x, dtype=float), label=int(pool.labels[i])))
        return out


class AdaptedBestResponseKernel:
    """Stateful pool: selected agents take one utility ascent step per round.

    One transition selects ``participation`` distinct agents uniformly and
    moves their submitted features by ``alpha`` times the utility gradient
    evaluated at their current features; emission then draws agents uniformly
    from the post-update pool.
    """

    def __init__(self, pool: AgentPool):
        self.pool = pool
        self.features = pool.base_features.copy()

    @property
    def state(self) -> np.ndarray:
        return self.features

    def advance(self, theta, rng):
        pool = self.pool
        idx = rng.choice(pool.size, size=pool.participation, replace=False)
        g = pool.utility.grad(self.features[idx], pool.base_features[idx],
                              pool.labels[idx].astype(float), theta)
        updated = self.features[idx] + pool.alpha * g
        if not np.all(np.isfinite(updated)):
            raise AgentDivergenceError("agent features diverged; lower the response rate alpha")
        self.features[idx] = updated

    def emit(self, theta, rng, n: int = 1):
        pool = self.pool
        if n == 1:
            idx = [int(rng.integers(pool.size))]
        else:
            idx = rng.choice(pool.size, size=n, replace=False)
        return [Sample(features=self.features[i].copy(), label=int(pool.labels[i]))
                for i in idx]


Kernel = Union[IidGaussianKernel, ArGaussianKernel,
               ExactBestResponseKernel, AdaptedBestResponseKernel]
