"""Ground-truth stable points and convergence-rate estimation.

The performative stable point is the fixed point at which the model
minimizes the risk under the very distribution it induces. For the scalar
Gaussian environment it is closed form; for agent pools it is computed by
repeated risk minimization against exact best-response data, which contracts
whenever the sensitivity is below mu / L.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .agents import GaussianEnv
from .losses import LossModel, mean_grad
from .solver import ConvergenceError, NonContractionError, rrm_run

__all__ = [
    "NonContractionError",
    "theta_ps_gaussian",
    "theta_ps_fixed_point",
    "RateFit",
    "fit_rate",
]


def theta_ps_gaussian(env: GaussianEnv) -> float:
    """Closed-form stable point ``z_bar / (1 - epsilon)`` of the Gaussian problem."""
    if env.epsilon >= 1.0:
        raise ValueError("stable point requires epsilon < 1")
    return env.z_bar / (1.0 - env.epsilon)


def _problem_dim(problem) -> int:
    if isinstance(problem, GaussianEnv):
        return 1
    return problem.dim


def theta_ps_fixed_point(loss: LossModel, problem, theta0=None,
                         outer_tol: float = 1e-10, inner_tol: float = 1e-10,
                         max_outer: int = 500) -> np.ndarray:
    """Stable point via repeated risk minimization on exact response data.

    ``problem`` must expose ``response_dataset(theta)`` materializing the
    distribution induced by ``theta`` (a :class:`GaussianEnv` or an
    :class:`AgentPool`). Iterates until consecutive models are within
    ``outer_tol``; the result additionally satisfies the self-consistency
    residual ``||mean_grad(theta*, D(theta*))|| <= 10 * inner_tol``.

    Raises :class:`NonContractionError` when the outer movement grows for
    five consecutive steps, which signals the contraction condition fails.
    """
    if theta0 is None:
        theta0 = np.zeros(_problem_dim(problem))
    path = rrm_run(loss, problem.response_dataset, theta0, max_outer,
                   inner_tol=inner_tol, stop_tol=outer_tol)
    theta = path[-1]
    if len(path) == 1 or not float(np.linalg.norm(theta - path[-2])) <= outer_tol:
        raise ConvergenceError(f"no fixed point within {max_outer} outer iterations")
    residual = float(np.linalg.norm(mean_grad(loss, theta, problem.response_dataset(theta))))
    if residual > 10.0 * inner_tol:
        raise ConvergenceError(
            f"self-consistency residual {residual:.3e} exceeds {10 * inner_tol:.1e}")
    return theta


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(mean error) against log(iteration)."""

    slope: float
    intercept: float
    r2: float
    k_range: Tuple[int, int]


def fit_rate(iterations, mean_errors, k_lo: int, k_hi: int) -> RateFit:
    """Fit the decay exponent of trial-averaged errors over a window.

    ``iterations`` and ``mean_errors`` are parallel arrays; the fit uses the
    entries with ``k_lo <= k <= k_hi``, which must be strictly positive.
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
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2,
                   k_range=(int(k_lo), int(k_hi)))
