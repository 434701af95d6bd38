"""Tests for Pearson and Spearman against independent brute-force oracles."""

import math

import numpy as np
import pytest

from oracles import brute_force_pearson, brute_force_spearman

from simxfer.errors import ContractError, NumericError
from simxfer.metrics import EvaluationResult, correlation, pearson, spearman


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_worked_value():
    # cov 4, both variances 5 -> 0.8
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_pearson_symmetric(rng):
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


def test_pearson_constant_input_errors():
    with pytest.raises(NumericError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(NumericError):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_affine_invariance(rng):
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    base = pearson(x, y)
    for a, b in ((2.0, 3.0), (0.001, -7.0), (123.0, 0.5)):
        assert abs(pearson(x, a * y + b) - base) < 1e-12
        assert abs(pearson(a * x + b, y) - base) < 1e-12
    assert pearson(x, -2.0 * x + 1) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(x, 3.0 * x - 4) == pytest.approx(1.0, abs=1e-12)


def test_spearman_monotone_agreement():
    x = [1.0, 2.5, 7.0, 9.0]
    assert spearman(x, [v ** 3 for v in x]) == pytest.approx(1.0, abs=1e-15)


def test_spearman_worked_value_no_ties():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_spearman_worked_value_with_ties():
    # ranks (1.5, 1.5, 3) vs (1, 2, 3) -> 1.5 / sqrt(3)
    expected = 1.5 / math.sqrt(3.0)
    assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(expected, abs=1e-12)


def test_spearman_all_tied_errors():
    with pytest.raises(NumericError):
        spearman([2, 2, 2], [1, 2, 3])


def test_spearman_increasing_transform_invariance(rng):
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    base = spearman(x, y)
    assert abs(spearman(x, np.exp(y)) - base) < 1e-12
    assert abs(spearman(np.arctan(x), y) - base) < 1e-12


def test_matches_brute_force_oracles(rng):
    for _ in range(300):
        n = int(rng.integers(2, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if rng.uniform() < 0.4:  # force ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        try:
            ours_p = pearson(x, y)
            ours_s = spearman(x, y)
        except NumericError:
            continue
        assert abs(ours_p - brute_force_pearson(x.tolist(), y.tolist())) < 1e-10
        assert abs(ours_s - brute_force_spearman(x, y)) < 1e-10


def test_matches_scipy(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    for _ in range(50):
        n = int(rng.integers(3, 40))
        x = np.round(rng.normal(size=n), 1)
        y = np.round(rng.normal(size=n), 1)
        try:
            ours_p = pearson(x, y)
            ours_s = spearman(x, y)
        except NumericError:
            continue
        assert ours_p == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-12)
        assert ours_s == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)


def test_length_contracts():
    with pytest.raises(ContractError):
        pearson([1], [1])
    with pytest.raises(ContractError):
        pearson([1, 2], [1, 2, 3])


def test_correlation_wrapper():
    result = correlation("pearson", [1, 2, 3], [2, 4, 6])
    assert isinstance(result, EvaluationResult)
    assert result.coefficient == pytest.approx(1.0)
    assert result.n == 3
    with pytest.raises(ContractError):
        correlation("kendall", [1, 2], [1, 2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", ["pearson", "spearman"])
def test_non_finite_input_is_a_numeric_error(metric, bad):
    with pytest.raises(NumericError):
        correlation(metric, [1, bad, 3], [1, 2, 3])
    with pytest.raises(NumericError):
        correlation(metric, [1, 2, 3], [1, bad, 3])


def test_evaluation_result_invariants():
    with pytest.raises(NumericError):
        EvaluationResult("pearson", 1.5, 10)
    with pytest.raises(ContractError):
        EvaluationResult("pearson", 0.5, 1)
