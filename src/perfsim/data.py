"""Synthetic classification data and CSV ingestion for the experiment harness.

The synthetic generator stands in for real credit-scoring data: two
class-conditional Gaussians with balanced labels, standardized per feature.
``load_csv`` ingests user-provided data into the same shape.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticDataset", "generate_synthetic", "load_csv"]


@dataclass(frozen=True)
class SyntheticDataset:
    """Feature matrix (m x d, standardized) with 0/1 labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _standardize(X: np.ndarray) -> np.ndarray:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return (X - mean) / std


def generate_synthetic(d: int, m: int, seed: int, separation: float = 1.0) -> SyntheticDataset:
    """Sample a balanced two-class Gaussian dataset, standardized per feature.

    Class-conditional means sit at +/- ``separation`` per coordinate with
    unit covariance; label counts differ by at most one. Reproducible from
    ``seed``.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_pos = m // 2
    n_neg = m - n_pos
    X = rng.standard_normal((m, d))
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    X[:n_pos] += separation
    X[n_pos:] -= separation
    order = rng.permutation(m)
    X, y = X[order], y[order]
    X = _standardize(X)
    return SyntheticDataset(features=X, labels=y)


def load_csv(path, feature_columns, label_column) -> SyntheticDataset:
    """Load a dataset from a headed CSV file and standardize its features.

    ``feature_columns`` name the feature fields, ``label_column`` the 0/1
    label field. Unparseable rows and missing columns are reported by name
    and data-row number.
    """
    feature_columns = list(feature_columns)
    rows = []
    labels = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in feature_columns + [label_column] if c not in header]
        if missing:
            raise ValueError(f"missing column(s) in {path}: {', '.join(missing)}")
        for row_number, row in enumerate(reader, start=1):
            try:
                rows.append([float(row[c]) for c in feature_columns])
                label = float(row[label_column])
            except (TypeError, ValueError):
                raise ValueError(f"unparseable row {row_number} in {path}") from None
            if label not in (0.0, 1.0):
                raise ValueError(f"label not in {{0, 1}} at row {row_number} in {path}")
            labels.append(int(label))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    X = _standardize(np.asarray(rows, dtype=float))
    return SyntheticDataset(features=X, labels=np.asarray(labels, dtype=np.int64))
