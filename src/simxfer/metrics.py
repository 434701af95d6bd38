"""Correlation coefficients used for all evaluation, by name in ``METRICS``.

A correlation is a float in [-1, 1], clamped there against rounding, or a
``NumericError`` when it is undefined: an input is non-finite or constant
(every entry equals the first).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ContractError(f"inputs must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ContractError("correlation needs at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericError("correlation input is not finite")
    if (x == x[0]).all() or (y == y[0]).all():
        raise NumericError("constant input: correlation undefined")
    return x, y


def pearson(x, y) -> float:
    """Sample covariance over the product of sample standard deviations."""
    x, y = _as_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:  # deviations that underflow: 0/0 would be NaN
        raise NumericError("constant input: correlation undefined")
    return min(max(float(np.dot(dx, dy) / np.sqrt(vx * vy)), -1.0), 1.0)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their rank positions."""
    _, inv, cnt = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x, y = _as_pair(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


METRICS = {"pearson": pearson, "spearman": spearman}


def correlation(metric: str, predictions, gold) -> float:
    if metric not in METRICS:
        raise ContractError(f"unknown metric {metric!r}")
    return METRICS[metric](predictions, gold)
