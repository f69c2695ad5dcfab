"""Controlled Markov kernels generating the sample stream seen by the learner.

Three sampling regimes are covered:

* memoryless (i.i.d.) sampling from the model-shifted distribution: the
  Gaussian law, or exact best responses of a pool of agents,
* an autoregressive Gaussian chain whose stationary mean tracks the
  deployed model,
* a pool of agents that adapt their submitted features by one utility
  gradient-ascent step per round instead of replying with the exact argmax.

An exact best response is the argmax of the agent's utility: ``x + epsilon
theta`` for the linear gain, ``x + epsilon (y - sigmoid(u)) theta`` for the
logistic gain, where u is the unique root of a strictly increasing scalar
function, solved to rounding level (no tolerance, no failure kind).

Every kernel advances a block of T trials together, each with its own
random stream, through the same two-phase interface. ``theta`` has shape
(T, d) and ``rngs`` holds one generator per trial.

* ``advance(theta, rngs)`` performs one Markov transition of every trial's
  agent state and returns ``None``, or a boolean mask of the trials whose
  agents failed (recorded as the kernel's ``failure`` kind).
* ``emit(theta, rngs, n)`` returns ``n`` samples per trial drawn from the
  current state, in the batch layout the matching loss takes (Gaussian
  scalars of shape (T, n), or pool features (T, n, d) with labels (T, n)).
  An emission cannot fail.

A failed trial keeps its row and is advanced with the others; rows never
interact, so its values do not reach another trial.

A kernel is built for ``trials`` trials (its ``trials`` attribute), and its
state carries the trial axis: the AR state ``z`` is (T,) and the adapted
pool's ``features`` are (T, m, d); the memoryless kernels keep no agent
state. The Gaussian kernels also keep their environment's parameters as
per-trial rows, so ``stack`` joins kernels of different environments into
one block of trials. Draws whose block equals the sequence of single draws
(normals, and agent indices one at a time) are taken from each stream up to
``BLOCK`` at a time, so a trial's values do not depend on how many trials
share its block. A stream handed to a kernel must be used by that kernel
only.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .losses import dot, log1pexp, sigmoid

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
    "AgentDivergenceError",
]

# Most draws taken from one stream at a time.
BLOCK = 1024


class AgentDivergenceError(RuntimeError):
    """Failure kind of a trial whose agent features became non-finite
    (response rate too large)."""


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

    dim = 1  # the model is a scalar, shape (1,)

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

    def response_dataset(self, theta: np.ndarray) -> np.ndarray:
        """Exact representation of the induced law for risk minimization.

        For the quadratic loss only the mean matters, so the point mass at
        the shifted mean, a one-trial batch of one scalar, minimizes the
        same risk as the full Gaussian.
        """
        return np.array([[self.shifted_mean(theta)]])


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

    def best_response(self, base_x, y, theta):
        return np.asarray(base_x, dtype=float) + self.epsilon * theta


@dataclass(frozen=True)
class LogisticUtility:
    """Label-aware log-likelihood gain with a quadratic moving cost.

    The utility ``y u - log(1 + exp(u)) - ||x' - x||^2 / (2 epsilon)`` with
    ``u = x' . theta`` is strictly concave. Its gradient vanishes at ``x' = x +
    epsilon (y - sigmoid(u)) theta``; dotting with theta, u solves ``g(u) = u -
    a - c (y - sigmoid(u)) = 0``, ``a = x . theta``, ``c = epsilon ||theta||^2``.
    As ``g' >= 1`` the root is unique. ``best_response`` solves it to rounding
    level, with no tolerance, for agents (..., d) with labels (...) and a theta
    that broadcasts against them, e.g. (T, 1, d) for (T, n, d).
    """

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def value(self, xp, base_x, y, theta):
        u = xp @ theta
        move = np.asarray(xp) - np.asarray(base_x)
        # y u - log(1 + exp(u)) for y in {0, 1}, without subtracting terms of size |u|
        gain = -log1pexp((1.0 - 2.0 * y) * u)
        return gain - np.sum(move * move, axis=-1) / (2.0 * self.epsilon)

    def grad(self, xp, base_x, y, theta):
        # theta is (d,), or (T, 1, d) for a trial batch of agents (T, p, d)
        u = xp @ theta if theta.ndim == 1 else (xp @ np.swapaxes(theta, -1, -2))[..., 0]
        coef = np.asarray(y - sigmoid(u))[..., None]
        return coef * theta - (np.asarray(xp) - np.asarray(base_x)) / self.epsilon

    def best_response(self, base_x, y, theta):
        # Bracketed Newton on g per row: a step that leaves [a + c (y - 1), a + c y]
        # or does not halve the previous one becomes a bisection. A row freezes
        # once its step is at rounding level of |a| + c, whatever its neighbours.
        x, theta = np.asarray(base_x, dtype=float), np.asarray(theta, dtype=float)
        a, c = dot(x, theta), self.epsilon * dot(theta, theta)
        lo, hi = a + c * (y - 1.0), a + c * y
        u, half_last = a, c  # the first Newton step is bounded by the bracket alone
        floor = 4.0 * np.finfo(float).eps * (np.abs(a) + c)
        active = np.ones(np.shape(hi), dtype=bool)
        while active.any():
            s = sigmoid(u)
            g = u - a - c * (y - s)
            lo, hi = np.where(g < 0.0, u, lo), np.where(g > 0.0, u, hi)
            newton = u - g / (1.0 + c * s * (1.0 - s))
            ok = (lo <= newton) & (newton <= hi) & (np.abs(newton - u) <= half_last)
            nxt = np.where(ok, newton, 0.5 * (lo + hi))
            moved = np.abs(nxt - u)
            u, half_last = np.where(active, nxt, u), 0.5 * moved
            active &= moved > floor  # a NaN step freezes too
        return x + (self.epsilon * (y - sigmoid(u)))[..., None] * theta


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

    def response_dataset(self, theta: np.ndarray):
        """Exact best-response dataset induced by ``theta`` (labels fixed), as a
        one-trial batch of features (1, m, d) and labels (1, m)."""
        X = self.utility.best_response(self.base_features, self.labels, theta)
        return X[None], self.labels[None].astype(float)


class _BlockDraws:
    """Per-trial draws taken from each trial's stream up to ``BLOCK`` at a time.

    ``draw(rng, size)`` must return the values of ``size`` single draws in
    order, so that blocking leaves every trial's sequence unchanged. A
    ``scale`` row (T,) multiplies each trial's draws as they are taken from
    its stream.
    """

    def __init__(self, draw, scale=None):
        self.draw = draw
        self.scale = scale
        self.buf = None
        self.pos = 0

    def take(self, rngs, count: int) -> np.ndarray:
        """The next ``count`` draws of every trial, shape (count, T)."""
        if self.buf is None or self.pos + count > self.buf.shape[0]:
            fresh = np.array([self.draw(rng, max(BLOCK, count)) for rng in rngs]).T
            if self.scale is not None:
                fresh = self.scale * fresh
            if self.buf is not None:
                fresh = np.concatenate([self.buf[self.pos:], fresh])
            self.buf, self.pos = np.ascontiguousarray(fresh), 0
        self.pos += count
        return self.buf[self.pos - count:self.pos]


class _Memoryless:
    """A kernel without agent state: a transition changes nothing."""

    def advance(self, theta, rngs):
        return None


def _normal(rng, size):
    return rng.standard_normal(size)


class _GaussianRows:
    """The Gaussian parameters as rows with a leading trial axis, so that one
    block can hold the trials of several environments.

    ``ROWS`` names the per-trial arrays; ``stack`` joins fresh kernels of
    one class into one kernel holding their trials in order. The noise
    ``sigma * N(0, 1)`` is drawn in blocks, each trial scaled by its sigma.
    """

    ROWS = ()

    def _rows(self, env: GaussianEnv, trials: int):
        self.trials = trials
        for name in ("z_bar", "epsilon", "sigma"):
            setattr(self, name, np.full(trials, getattr(env, name)))
        self._noise = _BlockDraws(_normal, self.sigma)

    @classmethod
    def stack(cls, kernels):
        """One kernel holding the trials of ``kernels``, fresh kernels of this
        class, in order."""
        out = copy.copy(kernels[0])
        out.trials = sum(k.trials for k in kernels)
        for name in cls.ROWS:
            setattr(out, name, np.concatenate([getattr(k, name) for k in kernels]))
        out._noise = _BlockDraws(_normal, out.sigma)
        return out


class IidGaussianKernel(_Memoryless, _GaussianRows):
    """Memoryless sampling from the shifted Gaussian law (greedy deploy).

    ``z_bar``, ``epsilon`` and ``sigma`` are (T,) rows.
    """

    ROWS = ("z_bar", "epsilon", "sigma")

    def __init__(self, env: GaussianEnv, trials: int = 1):
        self._rows(env, trials)

    def emit(self, theta, rngs, n: int = 1):
        mean = self.z_bar + self.epsilon * theta[:, 0]
        return mean[:, None] + self._noise.take(rngs, n).T


class ArGaussianKernel(_GaussianRows):
    """Autoregressive Gaussian chain: z' = (1 - rho) z + rho * (shifted mean + noise).

    At fixed theta the chain mixes to a Gaussian with the same mean as the
    i.i.d. law but variance reduced by rho / (2 - rho); with rho = 1 it is
    exactly the i.i.d. kernel. ``z_bar``, ``epsilon``, ``sigma``, ``rho``,
    ``1 - rho`` and the state ``z`` (from ``z0``) are (T,) rows.
    """

    ROWS = ("z_bar", "epsilon", "sigma", "rho", "stay", "z")

    def __init__(self, env: GaussianEnv, z0: Optional[float] = None, trials: int = 1):
        self._rows(env, trials)
        self.rho = np.full(trials, env.rho)
        self.stay = 1.0 - self.rho
        self.z = np.full(trials, env.z_bar if z0 is None else float(z0))

    def advance(self, theta, rngs):
        target = (self.z_bar + self.epsilon * theta[:, 0]) + self._noise.take(rngs, 1)[0]
        self.z = self.stay * self.z + self.rho * target
        return None

    def emit(self, theta, rngs, n: int = 1):
        return self.z[:, None].repeat(n, axis=1)


class _PoolKernel:
    """Agent draws shared by both pool kernels.

    Emitted agents are drawn uniformly: one index per stream draw for
    n = 1, ``n`` distinct agents per ``choice`` call otherwise.
    """

    def __init__(self, pool: AgentPool, trials: int = 1):
        self.pool = pool
        self.trials = trials
        self._labels = pool.labels.astype(float)
        self._agents = _BlockDraws(lambda rng, size: rng.integers(pool.size, size=size))

    def draw_agents(self, rngs, n: int) -> np.ndarray:
        if n == 1:
            return self._agents.take(rngs, 1).T
        return np.array([rng.choice(self.pool.size, size=n, replace=False) for rng in rngs])


class ExactBestResponseKernel(_Memoryless, _PoolKernel):
    """Memoryless pool sampling where every reply is an exact best response."""

    def emit(self, theta, rngs, n: int = 1):
        idx = self.draw_agents(rngs, n)
        labels = self._labels[idx]
        X = self.pool.utility.best_response(self.pool.base_features[idx], labels, theta[:, None, :])
        return X, labels


class AdaptedBestResponseKernel(_PoolKernel):
    """Stateful pool: selected agents take one utility ascent step per round.

    One transition selects ``participation`` distinct agents uniformly and
    moves their submitted features by ``alpha`` times the utility gradient
    evaluated at their current features; emission then draws agents uniformly
    from the post-update pool. A trial fails when its moved features are not
    finite.
    """

    failure = AgentDivergenceError

    def __init__(self, pool: AgentPool, trials: int = 1):
        super().__init__(pool, trials)
        self.features = np.tile(pool.base_features, (trials, 1, 1))

    def advance(self, theta, rngs):
        pool = self.pool
        idx = np.array([rng.choice(pool.size, size=pool.participation, replace=False)
                        for rng in rngs])
        rows = np.arange(idx.shape[0])[:, None]
        xp = self.features[rows, idx]
        g = pool.utility.grad(xp, pool.base_features[idx], self._labels[idx], theta[:, None, :])
        updated = xp + pool.alpha * g
        self.features[rows, idx] = updated
        failed = ~np.isfinite(updated).all(axis=(1, 2))
        return failed if failed.any() else None

    def emit(self, theta, rngs, n: int = 1):
        idx = self.draw_agents(rngs, n)
        return self.features[np.arange(idx.shape[0])[:, None], idx], self._labels[idx]
