"""Ground-truth stable points and convergence-rate estimation.

The performative stable point is the model that minimizes the risk under
the very distribution it induces: the root of the mean field
``G(theta) = mean_grad(loss, theta, D(theta))``, where ``D(theta)`` is the
exact response dataset. For the scalar Gaussian environment it is closed
form; for agent pools ``theta_ps_fixed_point`` finds it by Newton's method
on ``G``, with the Jacobian ``stable_jacobian`` by central differences at
step ``H``. Newton needs only a nonsingular Jacobian near the root, not the
contraction (sensitivity below mu / L) that repeated risk minimization
needs. The tolerance and step limit are the module constants ``TOL`` and
``MAX_OUTER``. The response data are one-trial batches, the layout the
learner's losses take (see :mod:`perfsim.losses`).
"""
from __future__ import annotations

import numpy as np

from .core import as_param
from .losses import LossModel, mean_grad

# Newton's stop test ||G|| <= TOL, its step limit, and the central-difference
# step of the Jacobian.
TOL = 1e-10
MAX_OUTER = 500
H = 1e-6


class ConvergenceError(RuntimeError):
    """The stable-point solve failed to reach its tolerance."""


def theta_ps_gaussian(env) -> float:
    """Closed-form stable point ``z_bar / (1 - epsilon)`` of the Gaussian
    environment ``env``."""
    if env.epsilon >= 1.0:
        raise ValueError("stable point requires epsilon < 1")
    return env.z_bar / (1.0 - env.epsilon)


def _mean_field(loss: LossModel, problem, theta: np.ndarray) -> np.ndarray:
    """``G(theta)``: the mean gradient on the dataset that ``theta`` induces."""
    return mean_grad(loss, theta, problem.response_dataset(theta))


def stable_jacobian(loss: LossModel, problem, theta) -> np.ndarray:
    """The (d, d) Jacobian of the mean field ``G`` at ``theta``.

    Column j is the central difference
    ``(G(theta + H e_j) - G(theta - H e_j)) / (2 H)``, from 2 d response
    datasets. ``problem`` is as for :func:`theta_ps_fixed_point`.
    """
    theta = as_param(theta)
    columns = [_mean_field(loss, problem, theta + e) - _mean_field(loss, problem, theta - e)
               for e in H * np.eye(theta.size)]
    return np.stack(columns, axis=1) / (2.0 * H)


def theta_ps_fixed_point(loss: LossModel, problem, theta0=None) -> np.ndarray:
    """Stable point: the root of the mean field ``G`` by undamped Newton.

    ``problem`` must expose the model dimension ``dim`` and
    ``response_dataset(theta)``, the one-trial batch that materializes the
    distribution induced by ``theta`` (a :class:`GaussianEnv` or an
    :class:`AgentPool`). Starting from ``theta0`` (zeros by default), each
    step evaluates ``G`` on one response dataset and solves with
    :func:`stable_jacobian`; the result satisfies ``||G(theta*)|| <= TOL``.

    Raises :class:`ConvergenceError`, naming the loss and the last ``||G||``,
    on a singular Jacobian, a non-finite step, or ``MAX_OUTER`` steps
    without convergence.
    """
    theta = as_param(np.zeros(problem.dim) if theta0 is None else theta0)
    for _ in range(MAX_OUTER):
        g = _mean_field(loss, problem, theta)
        residual = float(np.linalg.norm(g))
        if residual <= TOL:
            return theta
        try:
            step = np.linalg.solve(stable_jacobian(loss, problem, theta), g)
        except np.linalg.LinAlgError:
            failure = "the Jacobian is singular"
            break
        if not np.all(np.isfinite(step)):
            failure = "the Newton step is not finite"
            break
        theta = theta - step
    else:
        failure = f"no convergence in {MAX_OUTER} Newton steps"
    raise ConvergenceError(f"stable point of {loss!r}: {failure} "
                           f"(||G|| = {residual:.3e}, tol {TOL:.0e})")


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
