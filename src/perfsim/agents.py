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
function, solved to rounding level (no tolerance, no failure kind) by one
Newton step from one fixed-point step past the base score. The step is
certified a priori for c = epsilon ||theta||^2 <= 7.37e-4 (see
``_logistic_root``); a row with a larger c (or a NaN or inf one) is solved by
bracketed Newton instead.

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

Every kernel is built as ``Kernel(problem, trials=T)``, from a
:class:`GaussianEnv` or an :class:`AgentPool` and a keyword-only trial
count, its ``trials`` attribute. Its state carries the trial axis: the AR
state ``z`` is (T,) and the adapted pool's ``features`` are (T, m, d); the
memoryless kernels keep no agent state. The Gaussian kernels also keep
their environment's parameters as per-trial rows, so ``stack`` joins
kernels of different environments into one block of trials.

Every draw is taken from each trial's stream ``BLOCK`` steps at a time: the
Gaussian noise as normals, the pool agents as p distinct agents per step.
The distinct agents come from one integer draw per stream and block,
``integers(0, m - arange(p), size=(BLOCK, p))``, whose entry i in a row
picks the agent of that rank among the m - i agents its row has not taken
yet ("rank-select", uniform over ordered p-tuples of distinct agents; for
p = 1 one uniform index). So a trial's values do not depend on how many
trials share its block. A pool kernel keeps one such sampler on the agent
streams for ``advance`` and one per emission size on the sample streams
for ``emit``. A stream handed to a kernel must be used by that kernel only.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .losses import dot, log1pexp, sigmoid

# Steps of draws taken from one stream at a time.
BLOCK = 1024

# A logistic best-response root is solved to this multiple of |a| + c.
_ROUNDING = 4.0 * np.finfo(float).eps
# The constant K of Newton's error bound on the logistic root (see _logistic_root).
_NEWTON_K = 1.0 / (12.0 * np.sqrt(3.0))
# Up to this c, ~7.37e-4, one Newton step from the warm start is certified (see
# _logistic_root).
_ONE_STEP_C = (16.0 * _ROUNDING / _NEWTON_K) ** 0.25


@dataclass(frozen=True)
class GaussianEnv:
    """Scalar Gaussian environment whose mean shifts with the deployed model.

    At model ``theta`` the induced sample law is N(z_bar + epsilon * theta,
    sigma^2); the autoregressive chain mixes toward it with regression
    parameter ``rho`` (rho = 1 recovers i.i.d. sampling) from the state ``z0``
    (None: ``z_bar``).
    """

    z_bar: float
    epsilon: float
    sigma: float
    rho: float = 1.0
    z0: Optional[float] = None

    dim = 1  # the model is a scalar, shape (1,)

    def __post_init__(self):
        if not math.isfinite(self.z_bar) or (self.z0 is not None and not math.isfinite(self.z0)):
            raise ValueError("z_bar and z0 must be finite")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
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
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")

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
    that broadcasts against them, e.g. (T, 1, d) for (T, n, d): one Newton
    step from the warm start ``a + c (y - sigmoid(a))``, certified a priori
    for ``c <= 7.37e-4``, and bracketed Newton for the rows with a larger c
    (see ``_logistic_root``).
    """

    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")

    def value(self, xp, base_x, y, theta):
        u = xp @ theta
        move = np.asarray(xp) - np.asarray(base_x)
        # y u - log(1 + exp(u)) for y in {0, 1}, without subtracting terms of size |u|
        gain = -log1pexp((1.0 - 2.0 * y) * u)
        return gain - np.sum(move * move, axis=-1) / (2.0 * self.epsilon)

    def grad(self, xp, base_x, y, theta):
        u = dot(xp, theta)
        coef = (y - sigmoid(u))[..., None]
        return coef * theta - (np.asarray(xp) - np.asarray(base_x)) / self.epsilon

    def best_response(self, base_x, y, theta):
        x, theta = np.asarray(base_x, dtype=float), np.asarray(theta, dtype=float)
        y = np.asarray(y, dtype=float)
        # past ||theta|| ~ 1e154 c overflows to inf, and past c ~ 1e100 the root's
        # certificate does (or turns NaN): neither ever certifies a row, and a NaN row freezes
        with np.errstate(over="ignore", invalid="ignore"):
            u = _logistic_root(dot(x, theta), self.epsilon * dot(theta, theta), y)
            return x + (self.epsilon * (y - sigmoid(u)))[..., None] * theta


def _logistic_root(a, c, y):
    """The root u of ``g(u) = u - a - c (y - sigmoid(u))``, row by row.

    One Newton step from one fixed-point step ``u0 = a + c (y - sigmoid(a))``,
    certified before it is taken. The root lies within c of a, as ``|y -
    sigmoid| < 1``, and ``u -> a + c (y - sigmoid(u))`` is c/4-Lipschitz, so
    ``|u0 - u*| <= c^2 / 4``. As ``g' >= 1`` and ``|g''| <= c / (6 sqrt 3)``, a
    Newton step from error e leaves at most ``K c e^2``, ``K = 1 / (12 sqrt
    3)``, so at most ``K c^5 / 16``. That is within the rounding floor ``4 eps
    (|a| + c)`` for every ``c <= C = (64 eps / K)^(1/4) ~ 7.37e-4``
    (``_ONE_STEP_C``); the bound is for exact arithmetic, and evaluating the
    step adds rounding of the floor's order. A row with ``c > C``, or a NaN or
    inf c, takes ``_bracketed_root``'s value instead, which runs only when the
    block has such a row; the step is skipped when no row takes it. The
    step's ops and their order are the bracketed loop's first pass, so where
    that pass accepts its Newton step and stops, both give the same bits.
    Rows never interact. The caller enters ``np.errstate(over="ignore",
    invalid="ignore")``, as ``LogisticUtility.best_response`` does.
    """
    one_step = c <= _ONE_STEP_C  # False for NaN
    every = one_step.all()
    if not (every or one_step.any()):
        return _bracketed_root(a, c, y)
    u = a + c * (y - sigmoid(a))
    s = sigmoid(u)
    g = u - a - c * (y - s)
    u = u - g / (1.0 + c * s * (1.0 - s))
    return u if every else np.where(one_step, u, _bracketed_root(a, c, y))


def _bracketed_root(a, c, y):
    """The root of ``_logistic_root``'s g by bracketed Newton, for any c.

    Newton from the same warm start, which lies in the bracket ``[a + c (y -
    1), a + c y]`` as sigmoid is in (0, 1). A step that leaves the bracket or
    does not halve the previous one becomes a bisection. A row freezes once
    its step moves at most ``floor = 4 eps (|a| + c)``, or once an accepted
    Newton step delta certifies it: ``g' <= 1 + c/4`` gives ``e <= (1 + c/4)
    |delta|``, so with the error ``K c e^2`` left by a step the row stops when
    ``K c (1 + c/4)^2 delta^2 <= floor``. Past c ~ 1e100 the certificate
    overflows, and a NaN row freezes; the caller enters ``np.errstate`` as for
    ``_logistic_root``.
    """
    lo, hi = a + c * (y - 1.0), a + c * y
    u, half_last = a + c * (y - sigmoid(a)), c  # the first step is bounded by the bracket alone
    floor = _ROUNDING * (np.abs(a) + c)
    active = np.ones(np.shape(hi), dtype=bool)
    bound = _NEWTON_K * c * (1.0 + 0.25 * c) ** 2  # error left per squared Newton step
    while active.any():
        s = sigmoid(u)
        g = u - a - c * (y - s)
        lo, hi = np.where(g < 0.0, u, lo), np.where(g > 0.0, u, hi)
        newton = u - g / (1.0 + c * s * (1.0 - s))
        ok = (lo <= newton) & (newton <= hi) & (np.abs(newton - u) <= half_last)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        moved = np.abs(nxt - u)
        u, half_last = np.where(active, nxt, u), 0.5 * moved
        active &= (moved > floor) & ~(ok & (bound * moved * moved <= floor))  # NaN freezes too
    return u


Utility = Union[QuadraticUtility, LogisticUtility]


class AgentPool:
    """Immutable description of a finite agent population.

    Holds the unshifted base data (never mutated; the labels as floats, each
    0.0 or 1.0), the agents' utility, the per-round response rate ``alpha``
    and the number of agents ``participation`` that adapt per round. The
    evolving feature state lives in :class:`AdaptedBestResponseKernel`.
    """

    def __init__(self, base_features: np.ndarray, labels: np.ndarray,
                 utility: Utility, alpha: float, participation: int):
        base = np.array(base_features, dtype=float)
        lab = np.array(labels, dtype=float)
        if base.ndim != 2:
            raise ValueError("base_features must be an m x d matrix")
        if lab.shape != (base.shape[0],):
            raise ValueError("labels must have one entry per agent")
        if not np.all(np.isfinite(base)):
            raise ValueError("base features must be finite")
        if not np.isin(lab, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
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
        return X[None], self.labels[None]


class _BlockDraws:
    """Per-trial draws taken from each trial's stream ``BLOCK`` steps at a time.

    ``draw(rng, size)`` returns ``size`` steps of one trial's draws, shape
    (size, ...), and must equal the sequence of ``size`` single steps, so
    that blocking leaves every trial's values unchanged. ``finish`` maps the
    stacked block (size, T, ...) once as it is taken from the streams, and
    must act on each step and trial alone.
    """

    def __init__(self, draw, finish):
        self.draw = draw
        self.finish = finish
        self.buf = None
        self.pos = 0

    def take(self, rngs, count: int) -> np.ndarray:
        """The next ``count`` steps of every trial, shape (count, T, ...)."""
        if self.buf is None or self.pos + count > self.buf.shape[0]:
            fresh = np.stack([self.draw(rng, max(BLOCK, count)) for rng in rngs], axis=1)
            fresh = self.finish(fresh)
            if self.buf is not None:
                fresh = np.concatenate([self.buf[self.pos:], fresh])
            self.buf, self.pos = fresh, 0
        self.pos += count
        return self.buf[self.pos - count:self.pos]

    def step(self, rngs) -> np.ndarray:
        """The next step of every trial, shape (T, ...): ``take(rngs, 1)[0]``."""
        pos = self.pos
        if self.buf is None or pos == self.buf.shape[0]:
            return self.take(rngs, 1)[0]
        self.pos = pos + 1
        return self.buf[pos]


def _rank_select(ranks: np.ndarray) -> np.ndarray:
    """Map ranks (..., p), entry i in [0, m - i), to distinct agents: entry i
    becomes the agent of rank ``ranks[..., i]``, counting from 0 in index
    order, among those that entries 0..i-1 did not take.

    Decoded from the last entry back: once entries i+1.. are ranks among the
    agents that entries 0..i did not take, raising by one each that is at
    least entry i's rank makes them ranks among those that entries 0..i-1
    did not take.
    """
    agents = np.moveaxis(ranks, -1, 0).copy()  # entry-major: every shift is contiguous
    for i in range(agents.shape[0] - 2, -1, -1):
        later = agents[i + 1:]
        later += later >= agents[i]
    return np.ascontiguousarray(np.moveaxis(agents, 0, -1))


def _distinct_agents(m: int, p: int) -> _BlockDraws:
    """Block draws of ``p`` distinct agents of ``m`` per step, by rank-select."""
    if not 1 <= p <= m:
        raise ValueError(f"cannot draw {p} distinct agents from a pool of {m}")
    highs = m - np.arange(p)
    return _BlockDraws(lambda rng, size: rng.integers(0, highs, size=(size, p)), _rank_select)


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
    ``sigma * N(0, 1)`` is drawn in blocks, each trial scaled by its sigma
    in place.
    """

    ROWS = ()

    def _rows(self, env: GaussianEnv, trials: int):
        self.trials = trials
        for name in ("z_bar", "epsilon", "sigma"):
            setattr(self, name, np.full(trials, getattr(env, name)))
        self._noise = _BlockDraws(_normal, lambda block: np.multiply(self.sigma, block, out=block))

    @classmethod
    def stack(cls, kernels):
        """One kernel holding the trials of ``kernels``, fresh kernels of this
        class, in order."""
        out = copy.copy(kernels[0])
        out.trials = sum(k.trials for k in kernels)
        for name in cls.ROWS:
            setattr(out, name, np.concatenate([getattr(k, name) for k in kernels]))
        out._noise = _BlockDraws(_normal, lambda block: np.multiply(out.sigma, block, out=block))
        return out


class IidGaussianKernel(_Memoryless, _GaussianRows):
    """Memoryless sampling from the shifted Gaussian law (greedy deploy).

    ``z_bar``, ``epsilon`` and ``sigma`` are (T,) rows.
    """

    ROWS = ("z_bar", "epsilon", "sigma")

    def __init__(self, env: GaussianEnv, *, trials: int = 1):
        self._rows(env, trials)

    def emit(self, theta, rngs, n: int = 1):
        mean = self.z_bar + self.epsilon * theta[:, 0]
        return mean[:, None] + self._noise.take(rngs, n).T


class ArGaussianKernel(_GaussianRows):
    """Autoregressive Gaussian chain: z' = (1 - rho) z + rho * (shifted mean + noise).

    At fixed theta the chain mixes to a Gaussian with the same mean as the
    i.i.d. law but variance reduced by rho / (2 - rho); with rho = 1 it is
    exactly the i.i.d. kernel. ``z_bar``, ``epsilon``, ``sigma``, ``rho``,
    ``1 - rho`` and the state ``z`` (from ``env.z0``) are (T,) rows.
    """

    ROWS = ("z_bar", "epsilon", "sigma", "rho", "stay", "z")

    def __init__(self, env: GaussianEnv, *, trials: int = 1):
        self._rows(env, trials)
        self.rho = np.full(trials, env.rho)
        self.stay = 1.0 - self.rho
        self.z = np.full(trials, env.z_bar if env.z0 is None else float(env.z0))

    def advance(self, theta, rngs):
        target = (self.z_bar + self.epsilon * theta[:, 0]) + self._noise.step(rngs)
        # rebound, never written in place: emit may have returned a view of the old state
        self.z = self.stay * self.z + self.rho * target
        return None

    def emit(self, theta, rngs, n: int = 1):
        return self.z[:, None] if n == 1 else self.z[:, None].repeat(n, axis=1)


class _PoolKernel:
    """Agent draws shared by both pool kernels.

    An emission of ``n`` samples per trial takes ``n`` distinct agents, uniform
    over ordered n-tuples, from a block of rank-select draws on the sample
    streams; each emission size keeps its own block.
    """

    def __init__(self, pool: AgentPool, *, trials: int = 1):
        self.pool = pool
        self.trials = trials
        self._emissions = {}

    def draw_agents(self, rngs, n: int) -> np.ndarray:
        """``n`` distinct agents per trial, shape (T, n)."""
        draws = self._emissions.get(n)
        if draws is None:
            draws = self._emissions[n] = _distinct_agents(self.pool.size, n)
        return draws.step(rngs)


class ExactBestResponseKernel(_Memoryless, _PoolKernel):
    """Memoryless pool sampling where every reply is an exact best response."""

    def emit(self, theta, rngs, n: int = 1):
        idx = self.draw_agents(rngs, n)
        labels = self.pool.labels[idx]
        X = self.pool.utility.best_response(self.pool.base_features.take(idx, axis=0), labels,
                                            theta[:, None, :])
        return X, labels


class AdaptedBestResponseKernel(_PoolKernel):
    """Stateful pool: selected agents take one utility ascent step per round.

    One transition selects ``participation`` distinct agents uniformly and
    moves their submitted features by ``alpha`` times the utility gradient
    evaluated at their current features; emission then draws agents uniformly
    from the post-update pool. A trial fails when its moved features are not
    finite. Agents are read and written through ``_flat``, a (T m, d) view of
    ``features``, at the rows ``idx + _offsets``.
    """

    # failure kind of a trial whose agent features became non-finite (response
    # rate too large)
    failure = "AgentDivergenceError"

    def __init__(self, pool: AgentPool, *, trials: int = 1):
        super().__init__(pool, trials=trials)
        self.features = np.tile(pool.base_features, (trials, 1, 1))
        self._flat = self.features.reshape(-1, pool.dim)
        self._offsets = pool.size * np.arange(trials)[:, None]
        self._participants = _distinct_agents(pool.size, pool.participation)

    def advance(self, theta, rngs):
        pool = self.pool
        idx = self._participants.step(rngs)
        rows = idx + self._offsets
        xp = self._flat.take(rows, axis=0)
        g = pool.utility.grad(xp, pool.base_features.take(idx, axis=0), pool.labels[idx],
                              theta[:, None, :])
        g *= pool.alpha
        g += xp  # now the moved features xp + alpha g
        self._flat[rows] = g
        return None if np.isfinite(g).all() else ~np.isfinite(g).all(axis=(1, 2))

    def emit(self, theta, rngs, n: int = 1):
        idx = self.draw_agents(rngs, n)
        return self._flat.take(idx + self._offsets, axis=0), self.pool.labels[idx]
