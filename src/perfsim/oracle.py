"""Ground-truth stable points and convergence-rate estimation.

The performative stable point is the fixed point at which the model
minimizes the risk under the very distribution it induces. For the scalar
Gaussian environment it is closed form; for agent pools
``theta_ps_fixed_point`` computes it by repeated risk minimization (RRM)
against exact best-response data, which contracts whenever the sensitivity
is below mu / L: each pass minimizes the empirical risk of the dataset the
current model induces, by full-batch gradient descent. The tolerances and
pass limits are the module constants ``TOL``, ``MAX_OUTER`` and
``MAX_INNER``. The response data are one-trial batches, the layout the
learner's losses take (see :mod:`perfsim.losses`).
"""
from __future__ import annotations

import numpy as np

from .core import as_param
from .losses import LossModel, mean_grad

__all__ = [
    "ConvergenceError",
    "NonContractionError",
    "minimize_empirical_risk",
    "theta_ps_gaussian",
    "theta_ps_fixed_point",
    "fit_rate",
]

# Stop test of the stable-point passes and of each inner minimization, and
# their pass limits.
TOL = 1e-10
MAX_OUTER = 500
MAX_INNER = 200_000


class ConvergenceError(RuntimeError):
    """A minimization or the stable-point iteration failed to reach its tolerance."""


class NonContractionError(RuntimeError):
    """Fixed-point iteration expanded repeatedly; sensitivity looks too large."""


def theta_ps_gaussian(env) -> float:
    """Closed-form stable point ``z_bar / (1 - epsilon)`` of the Gaussian
    environment ``env``."""
    if env.epsilon >= 1.0:
        raise ValueError("stable point requires epsilon < 1")
    return env.z_bar / (1.0 - env.epsilon)


def minimize_empirical_risk(loss: LossModel, dataset, theta0: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent on the one-trial batch ``dataset`` to
    gradient norm <= ``TOL``, within ``MAX_INNER`` steps.

    The step is the inverse of the dataset-averaged smoothness constant, so
    descent is monotone for both loss models.
    """
    theta = as_param(theta0).copy()
    step = 1.0 / loss.smoothness(dataset)
    for _ in range(MAX_INNER):
        g = loss.grad(theta[None], dataset)[0]
        if float(np.sqrt(g @ g)) <= TOL:
            return theta
        theta -= step * g
    raise ConvergenceError(f"empirical risk minimization of {loss!r} did not reach "
                           f"tol={TOL} in {MAX_INNER} steps")


def theta_ps_fixed_point(loss: LossModel, problem, theta0=None) -> np.ndarray:
    """Stable point via repeated risk minimization on exact response data.

    ``problem`` must expose the model dimension ``dim`` and
    ``response_dataset(theta)``, the one-trial batch that materializes the
    distribution induced by ``theta`` (a :class:`GaussianEnv` or an
    :class:`AgentPool`). Each pass minimizes the empirical risk of the
    dataset the current model induces, until consecutive models are within
    ``TOL``; the result additionally satisfies the self-consistency residual
    ``||mean_grad(theta*, D(theta*))|| <= 10 * TOL``.

    Raises :class:`NonContractionError` when the movement grows for five
    consecutive passes, which signals the contraction condition fails, and
    :class:`ConvergenceError` when ``MAX_OUTER`` passes do not converge.
    """
    theta = as_param(np.zeros(problem.dim) if theta0 is None else theta0)
    prev_move = np.inf
    expansions = 0
    for _ in range(MAX_OUTER):
        theta_next = minimize_empirical_risk(loss, problem.response_dataset(theta), theta)
        move = float(np.linalg.norm(theta_next - theta))
        theta = theta_next
        if move <= TOL:
            break
        expansions = expansions + 1 if move > prev_move else 0
        if expansions >= 5:
            raise NonContractionError(
                "outer movement grew for 5 consecutive steps; "
                "the problem appears outside the contraction regime")
        prev_move = move
    else:
        raise ConvergenceError(f"no fixed point within {MAX_OUTER} outer iterations")
    residual = float(np.linalg.norm(mean_grad(loss, theta, problem.response_dataset(theta))))
    if residual > 10.0 * TOL:
        raise ConvergenceError(
            f"self-consistency residual {residual:.3e} exceeds {10 * TOL:.1e}")
    return theta


def fit_rate(iterations, mean_errors, k_lo: int, k_hi: int) -> dict:
    """Fit the decay exponent of trial-averaged errors over a window.

    ``iterations`` and ``mean_errors`` are parallel arrays; the fit uses the
    entries with ``k_lo <= k <= k_hi``, which must be strictly positive.
    Returns the least-squares fit of log(mean error) against log(iteration)
    as ``{"slope", "intercept", "r2", "k_lo", "k_hi"}``, the ``rate_fit`` of
    a point in ``summary.json``.
    """
    k = np.asarray(iterations, dtype=float)
    err = np.asarray(mean_errors, dtype=float)
    if k.shape != err.shape:
        raise ValueError("iterations and mean_errors must have equal shapes")
    if not 1 <= k_lo < k_hi:
        raise ValueError("need 1 <= k_lo < k_hi")
    mask = (k >= k_lo) & (k <= k_hi)
    if mask.sum() < 2:
        raise ValueError("fewer than two trace points in the fit window")
    if np.any(err[mask] <= 0):
        raise ValueError("mean errors must be strictly positive in the fit window")
    logk = np.log(k[mask])
    loge = np.log(err[mask])
    slope, intercept = np.polyfit(logk, loge, 1)
    pred = slope * logk + intercept
    ss_res = float(np.sum((loge - pred) ** 2))
    ss_tot = float(np.sum((loge - np.mean(loge)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "k_lo": int(k_lo), "k_hi": int(k_hi)}
