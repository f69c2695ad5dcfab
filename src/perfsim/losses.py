"""Loss models with exact gradients and declared convexity constants.

Two losses are provided: a scalar quadratic loss for mean estimation and an
L2-regularized logistic loss for linear classification. Both expose the
constants needed by step-size selection and by the convergence diagnostics.

Every dataset is a trial batch: ``theta`` has shape (T, d), one model per
trial, and the samples carry a leading (T, n) axis pair, n samples per
trial. The quadratic loss takes the scalars as a (T, n) array; the logistic
loss takes a ``(features, labels)`` pair of shapes (T, n, d) and (T, n). The
stable-point oracle's datasets are one-trial batches (T = 1).

``grad`` returns each trial's minibatch gradient, shape (T, d): the
per-sample gradients summed left to right and divided by n. No run needs
the losses' values; the tests take them from ``tests/reference.py``. Dot
products go through :func:`dot`, one
``np.vecdot`` call (numpy >= 2.0), which gives the same bits as the 1-D
``a @ b`` of each row.
"""
from __future__ import annotations

from typing import Union

import numpy as np


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, broadcast over the leading axes.

    One ``np.vecdot`` call, which gives the same bits as the 1-D ``a @ b``
    of each row; a batched ``gemv`` does not.
    """
    return np.vecdot(a, b)


def _batch_mean(g: np.ndarray) -> np.ndarray:
    """Mean over the sample axis 1 of per-sample values, summed left to right."""
    n = g.shape[1]
    if n == 1:
        return g[:, 0]
    return np.add.accumulate(g, axis=1)[:, -1] / n


def sigmoid(u):
    """Overflow-safe logistic function, elementwise."""
    return np.exp(-np.logaddexp(0.0, -u))


class QuadraticLoss:
    """Squared-residual loss ``(z - theta)^2 / 2`` on scalar samples (d = 1)."""

    mu = 1.0
    lipschitz = 1.0

    def grad(self, theta: np.ndarray, scalars: np.ndarray) -> np.ndarray:
        if scalars.shape[1] == 1:
            return theta - scalars  # the bits of the mean of one sample
        return _batch_mean((theta - scalars)[:, :, None])

    def __repr__(self):
        return "QuadraticLoss()"


class LogisticLoss:
    """L2-regularized logistic loss on feature/label samples.

    ``l(theta; (x, y)) = beta/2 ||theta||^2 + log(1 + exp(<theta, x>)) - y <theta, x>``

    The model is ``beta``-strongly convex in theta, and its per-sample
    gradient is ``(beta + ||x||^2 / 4)``-Lipschitz.
    """

    def __init__(self, beta: float):
        if not 0 <= beta < np.inf:
            raise ValueError("beta must be finite and >= 0")
        self.beta = float(beta)

    @property
    def mu(self) -> float:
        return self.beta

    def grad(self, theta: np.ndarray, batch) -> np.ndarray:
        x, y = batch
        u = dot(x, theta[:, None, :])
        return _batch_mean(self.beta * theta[:, None, :] + (sigmoid(u) - y)[..., None] * x)

    def __repr__(self):
        return f"LogisticLoss(beta={self.beta!r})"


LossModel = Union[QuadraticLoss, LogisticLoss]


def mean_grad(model: LossModel, theta: np.ndarray, batch) -> np.ndarray:
    """Arithmetic mean of the per-sample gradient over the one-trial dataset ``batch``."""
    per_trial = batch[1] if isinstance(batch, tuple) else batch
    if per_trial.shape[1] == 0:
        raise ValueError("empty dataset")
    return model.grad(theta[None], batch)[0]


def logistic_constants(features: np.ndarray, beta: float, epsilon: float):
    """Schedule constants (L, mu_tilde) estimated from a feature matrix.

    For an m x d matrix ``X`` the global gradient-Lipschitz estimate is
    ``L = sqrt(2 beta m + ||X||_F^2 / 2)`` and the effective contraction
    modulus is ``mu_tilde = (1 - epsilon) beta - epsilon ||X||_F^2 / (4 m)``.
    These are the estimates used to set inverse schedules for the strategic
    classification presets.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be an m x d matrix")
    m = X.shape[0]
    fro2 = float(np.sum(X * X))
    lipschitz = float(np.sqrt(2.0 * beta * m + fro2 / 2.0))
    mu_tilde = (1.0 - epsilon) * beta - epsilon * fro2 / (4.0 * m)
    return lipschitz, mu_tilde
