"""Tests for Pearson and Spearman against independent brute-force oracles."""

import math

import numpy as np
import pytest

from oracles import brute_force_average_ranks, brute_force_pearson, brute_force_spearman

from simxfer.errors import ContractError, NumericError
from simxfer.metrics import _average_ranks, correlation, pearson, spearman


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
    assert type(result) is float
    assert result == pytest.approx(1.0)
    with pytest.raises(ContractError):
        correlation("kendall", [1, 2], [1, 2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", ["pearson", "spearman"])
def test_non_finite_input_is_a_numeric_error(metric, bad):
    with pytest.raises(NumericError):
        correlation(metric, [1, bad, 3], [1, 2, 3])
    with pytest.raises(NumericError):
        correlation(metric, [1, 2, 3], [1, bad, 3])


@pytest.mark.parametrize("coefficient", [pearson, spearman])
@pytest.mark.parametrize("n", [3, 7, 100])
@pytest.mark.parametrize("value", [0.1, 0.7])
def test_constant_input_is_a_numeric_error(coefficient, n, value):
    # sum([0.1] * 3) / 3 rounds away from 0.1, so the deviations from the
    # mean are tiny but not zero: constancy is an exact test on the entries
    gold = list(range(n))
    with pytest.raises(NumericError, match="constant"):
        coefficient([value] * n, gold)
    with pytest.raises(NumericError, match="constant"):
        coefficient(gold, [value] * n)


@pytest.mark.parametrize("coefficient", [pearson, spearman])
def test_correlation_never_leaves_minus_one_to_one(coefficient):
    rng = np.random.default_rng(23)
    for _ in range(2000):
        x = rng.normal(size=2) * 10.0 ** rng.integers(-8, 8)
        y = rng.normal(size=2)
        assert -1.0 <= coefficient(x, y) <= 1.0
    for _ in range(500):
        x = rng.normal(size=int(rng.integers(2, 30)))
        a, b = rng.normal(size=2)
        assert abs(coefficient(x, a * x + b)) <= 1.0


def test_average_ranks_match_brute_force_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = np.round(rng.normal(size=int(rng.integers(1, 80))), int(rng.integers(0, 3)))
        x[rng.uniform(size=x.size) < 0.1] = -0.0  # -0.0 ties with 0.0
        assert _average_ranks(x).tobytes() == brute_force_average_ranks(x).tobytes()
