"""Correlation coefficients used for all evaluation, by name in ``METRICS``.

Inputs must be finite, so a coefficient always lies in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError


@dataclass(frozen=True)
class EvaluationResult:
    metric: str
    coefficient: float
    n: int

    def __post_init__(self):
        if abs(self.coefficient) > 1.0 + 1e-12:
            raise NumericError(f"correlation {self.coefficient} outside [-1, 1]")
        if self.n < 2:
            raise ContractError("correlation needs at least 2 points")


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ContractError(f"inputs must be equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ContractError("correlation needs at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericError("correlation input is not finite")
    return x, y


def pearson(x, y) -> float:
    """Sample covariance over the product of sample standard deviations."""
    x, y = _as_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise NumericError("constant input: correlation undefined")
    return float(np.dot(dx, dy) / np.sqrt(vx * vy))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their rank positions."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x, y = _as_pair(x, y)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise NumericError("constant ranks: correlation undefined")
    return pearson(rx, ry)


METRICS = {"pearson": pearson, "spearman": spearman}


def correlation(metric: str, predictions, gold) -> EvaluationResult:
    if metric not in METRICS:
        raise ContractError(f"unknown metric {metric!r}")
    return EvaluationResult(metric, METRICS[metric](predictions, gold), len(np.asarray(predictions)))
