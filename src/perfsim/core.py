"""Shared numeric types: step-size schedules and their check.

The O(1/k) theorem assumes gamma_{k-1}/gamma_k <= 1 + gamma_k * mu_tilde / 4.
A constant schedule meets it at every k. For gamma_k = c0/(c1 + k) it reads
(c1 + k)(c0 mu_tilde - 4) >= c0 mu_tilde, whose left side never falls in k.

Conventions used throughout the package:

* a decision vector ``theta`` is a 1-D float64 array of fixed length ``d``,
* all exposed quantities are finite (NaN/Inf are rejected at boundaries),
* randomness comes from numpy generators seeded by a
  ``np.random.SeedSequence``, so that a run is reproducible from a single
  64-bit seed (a trial's streams: ``solver._trial_rngs``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


def as_param(values, d: Optional[int] = None) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float64 decision vector.

    Scalars become length-1 vectors. Raises ``ValueError`` on non-finite
    entries or on a length mismatch with ``d``.
    """
    theta = np.atleast_1d(np.asarray(values, dtype=float))
    if theta.ndim != 1:
        raise ValueError(f"decision vector must be 1-D, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("decision vector has non-finite entries")
    if d is not None and theta.shape[0] != d:
        raise ValueError(f"decision vector has length {theta.shape[0]}, expected {d}")
    return theta


@dataclass(frozen=True)
class ConstantSchedule:
    """Constant step size ``gamma_k = gamma``."""

    gamma_value: float

    def __post_init__(self):
        if not 0 < self.gamma_value < math.inf:
            raise ValueError("constant step size must be finite and positive")

    def gamma(self, k):
        return float(self.gamma_value)

    def describe(self) -> dict:
        return {"kind": "constant", "gamma": self.gamma_value}


@dataclass(frozen=True)
class InverseSchedule:
    """Diminishing step size ``gamma_k = c0 / (c1 + k)``."""

    c0: float
    c1: float

    def __post_init__(self):
        if not (0 < self.c0 < math.inf and 0 <= self.c1 < math.inf):
            raise ValueError("inverse schedule requires finite c0 > 0 and c1 >= 0")

    def gamma(self, k):
        """gamma_k for an int k >= 1 or an integer array."""
        return self.c0 / (self.c1 + k)

    def describe(self) -> dict:
        return {"kind": "inverse", "c0": self.c0, "c1": self.c1}


StepSchedule = Union[ConstantSchedule, InverseSchedule]


def check_schedule(schedule: StepSchedule, mu_tilde: float, horizon: int) -> Optional[int]:
    """The first k in 1..horizon that breaks the ratio condition
    gamma_{k-1}/gamma_k <= 1 + gamma_k * mu_tilde / 4, or None.

    The answer is 1 or None. A constant schedule's ratio is 1. For an inverse
    schedule the condition's slack grows with k, so k = 1 decides: it holds
    there, and so at every k, exactly when c1 (c0 mu_tilde - 4) >= 4.

    Raises ``ValueError`` if the horizon is below 2 or ``mu_tilde`` is not
    positive.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if not mu_tilde > 0:
        raise ValueError(f"mu_tilde must be positive, got {mu_tilde!r}")
    if isinstance(schedule, ConstantSchedule):
        return None
    return None if schedule.c1 * (schedule.c0 * mu_tilde - 4.0) >= 4.0 else 1
