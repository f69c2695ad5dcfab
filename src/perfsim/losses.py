"""Loss models with exact gradients and declared convexity constants.

Two losses are provided: a scalar quadratic loss for mean estimation and an
L2-regularized logistic loss for linear classification. Both expose the
constants needed by step-size selection and by the convergence diagnostics.

``grad`` works on a trial batch: ``theta`` has shape (T, d), one model per
trial, and the samples carry a leading (T, n) axis pair, n samples per
trial. The quadratic loss takes the scalars as a (T, n) array; the logistic
loss takes a ``(features, labels)`` pair of shapes (T, n, d) and (T, n). It
returns each trial's minibatch gradient, shape (T, d): the per-sample
gradients summed left to right and divided by n. Dot products go through
``matmul`` one sample at a time, which gives the same bits as a 1-D dot.
:class:`Sample` lists are the stable-point oracle's datasets; ``as_batch``
turns one into a one-trial batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Sample",
    "samples",
    "as_batch",
    "QuadraticLoss",
    "LogisticLoss",
    "LossModel",
    "mean_grad",
    "mean_loss",
    "logistic_constants",
]


@dataclass(slots=True)
class Sample:
    """One observation of a dataset handed to the stable-point oracle.

    Classification samples carry ``features`` (length-d vector) and a 0/1
    ``label``; scalar mean-estimation samples carry ``scalar`` and leave the
    other fields unset.
    """

    features: Optional[np.ndarray] = None
    label: Optional[int] = None
    scalar: Optional[float] = None


def samples(features=None, labels=None, scalars=None) -> List[Sample]:
    """Dataset of the rows of ``features`` with their ``labels``, or of ``scalars``."""
    if scalars is not None:
        return [Sample(scalar=float(z)) for z in scalars]
    return [Sample(features=x, label=int(y)) for x, y in zip(features, labels)]


def as_batch(dataset: Sequence[Sample]):
    """One-trial batch of ``dataset``: scalars of shape (1, n), or features and labels."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if dataset[0].scalar is not None:
        return np.array([[s.scalar for s in dataset]], dtype=float)
    if any(s.features is None or s.label is None for s in dataset):
        raise ValueError("samples need a scalar, or features and a label")
    return (np.array([[s.features for s in dataset]], dtype=float),
            np.array([[s.label for s in dataset]], dtype=float))


def _batch_mean(g: np.ndarray) -> np.ndarray:
    """Mean over the sample axis of per-sample gradients (T, n, d), summed left to right."""
    n = g.shape[1]
    if n == 1:
        return g[:, 0]
    return np.add.accumulate(g, axis=1)[:, -1] / n


def sigmoid(u):
    """Overflow-safe logistic function, elementwise."""
    return np.exp(-np.logaddexp(0.0, -u))


def log1pexp(u):
    """Overflow-safe ``log(1 + exp(u))``, elementwise."""
    return np.logaddexp(0.0, u)


class QuadraticLoss:
    """Squared-residual loss ``(z - theta)^2 / 2`` on scalar samples (d = 1)."""

    mu = 1.0
    lipschitz = 1.0

    def loss(self, theta: np.ndarray, sample: Sample) -> float:
        z = self._scalar(sample)
        if theta.shape != (1,):
            raise ValueError(f"quadratic loss expects theta of length 1, got {theta.shape}")
        r = z - theta[0]
        return 0.5 * r * r

    def grad(self, theta: np.ndarray, scalars: np.ndarray) -> np.ndarray:
        return _batch_mean(theta[:, None, :] - scalars[:, :, None])

    @staticmethod
    def _scalar(sample: Sample) -> float:
        if sample.scalar is None:
            raise ValueError("quadratic loss expects scalar samples")
        return sample.scalar

    def sample_smoothness(self, sample: Sample) -> float:
        return 1.0

    def __repr__(self):
        return "QuadraticLoss()"


class LogisticLoss:
    """L2-regularized logistic loss on feature/label samples.

    ``loss(theta; (x, y)) = beta/2 ||theta||^2 + log(1 + exp(<theta, x>)) - y <theta, x>``

    The model is ``beta``-strongly convex in theta; its per-sample gradient
    smoothness is ``beta + ||x||^2 / 4``.
    """

    def __init__(self, beta: float):
        if beta < 0:
            raise ValueError("beta must be >= 0")
        self.beta = float(beta)

    @property
    def mu(self) -> float:
        return self.beta

    def loss(self, theta: np.ndarray, sample: Sample) -> float:
        x, y = self._features(theta, sample)
        u = float(theta @ x)
        return 0.5 * self.beta * float(theta @ theta) + float(log1pexp(u)) - y * u

    def grad(self, theta: np.ndarray, batch) -> np.ndarray:
        x, y = batch
        u = (x[..., None, :] @ theta[:, None, :, None])[..., 0, 0]
        return _batch_mean(self.beta * theta[:, None, :] + (sigmoid(u) - y)[..., None] * x)

    @staticmethod
    def _features(theta, sample: Sample):
        if sample.features is None or sample.label is None:
            raise ValueError("samples need a scalar, or features and a label")
        x = sample.features
        if x.shape != theta.shape:
            raise ValueError(f"feature shape {x.shape} does not match theta shape {theta.shape}")
        return x, float(sample.label)

    def sample_smoothness(self, sample: Sample) -> float:
        x = sample.features
        return self.beta + float(x @ x) / 4.0

    def __repr__(self):
        return f"LogisticLoss(beta={self.beta!r})"


LossModel = Union[QuadraticLoss, LogisticLoss]


def mean_grad(model: LossModel, theta: np.ndarray, dataset: Sequence[Sample]) -> np.ndarray:
    """Arithmetic mean of the per-sample gradient over ``dataset``."""
    return model.grad(theta[None], as_batch(dataset))[0]


def mean_loss(model: LossModel, theta: np.ndarray, dataset: Sequence[Sample]) -> float:
    """Arithmetic mean of the loss over ``dataset``."""
    if len(dataset) == 0:
        raise ValueError("mean_loss requires a non-empty dataset")
    return sum(model.loss(theta, s) for s in dataset) / len(dataset)


def mean_smoothness(model: LossModel, dataset: Sequence[Sample]) -> float:
    """Smoothness constant of the dataset-averaged gradient map."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return sum(model.sample_smoothness(s) for s in dataset) / len(dataset)


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
