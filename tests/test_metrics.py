import numpy as np
import pytest

from rebq.metrics import ap_fg, average_forgetting, average_performance, performance


def brute_force_ap(values: list, t: int) -> float:
    """Direct evaluation of the average-performance formula (1-based walk)."""
    total = 0.0
    for i in range(1, t + 1):
        total += values[i - 1][t - 1]
    return total / t


def brute_force_fg(values: list, t: int) -> float:
    """Direct evaluation of the forgetting formula, max over z in {t..T-1}."""
    total = 0.0
    for i in range(1, t):
        best = max(values[i - 1][z - 1] for z in range(i, t))
        total += best - values[i - 1][t - 1]
    return total / (t - 1)


def random_matrix(rng, t: int) -> list:
    """A session matrix: uniform values from the diagonal on, None below it."""
    return [[float(rng.uniform()) if j >= i else None for j in range(t)] for i in range(t)]


def constant_matrix(t: int, value: float) -> list:
    return [[value if j >= i else None for j in range(t)] for i in range(t)]


class TestPerformance:
    def test_all_correct(self):
        assert performance([1, 2, 3], [1, 2, 3], "accuracy") == 1.0

    def test_all_wrong(self):
        assert performance([0, 0], [1, 2], "accuracy") == 0.0

    def test_macro_f1_hand_case(self):
        # class 0: TP=1 FP=1 FN=0 -> F1 = 2/3; class 1: TP=1 FP=0 FN=1 -> 2/3
        preds = [[0], [0], [1]]
        truth = [[0], [1], [1]]
        assert performance(preds, truth, "f1_macro") == pytest.approx(2 / 3, abs=1e-12)

    def test_macro_f1_zero_denominator_class(self):
        # class 1 never predicted nor true after the union rule is applied to
        # predictions containing it with empty truth: F1 contribution 0
        preds = [[0], [1]]
        truth = [[0], []]
        # A: TP=1,FP=0,FN=0 -> 1.0; B: TP=0,FP=1,FN=0 -> 0.0
        assert performance(preds, truth, "f1_macro") == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_one_class_matches_accuracy(self):
        preds = [[0]] * 5
        truth = [[0]] * 5
        assert performance(preds, truth, "f1_macro") == 1.0
        assert performance([0] * 5, [0] * 5, "accuracy") == 1.0

    def test_f1_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            preds = [sorted(set(rng.integers(0, 4, size=rng.integers(0, 3)).tolist()))
                     for _ in range(n)]
            truth = [sorted(set(rng.integers(0, 4, size=rng.integers(1, 3)).tolist()))
                     for _ in range(n)]
            score = performance(preds, truth, "f1_macro")
            assert 0.0 <= score <= 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            performance([], [], "accuracy")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            performance([1], [1, 2], "accuracy")


class TestAveragePerformance:
    def test_single_task(self):
        assert average_performance([[0.5]]) == 0.5

    def test_hand_case(self):
        m = [[0.4, 0.7],
             [None, 0.9]]
        assert average_performance(m) == pytest.approx(0.8, abs=1e-15)

    def test_constant_matrix(self):
        assert average_performance(constant_matrix(3, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError, match="complete final column"):
            average_performance([[0.5, None], [None, None]])


class TestAverageForgetting:
    def test_hand_case_positive(self):
        m = [[0.9, 0.7],
             [None, 0.8]]
        assert average_forgetting(m) == pytest.approx(0.2, abs=1e-15)

    def test_constant_row_zero(self):
        assert average_forgetting(constant_matrix(3, 0.6)) == 0.0

    def test_negative_forgetting(self):
        m = [[0.5, 0.6],
             [None, 0.6]]
        assert average_forgetting(m) == pytest.approx(-0.1, abs=1e-15)

    def test_single_task_rejected(self):
        with pytest.raises(ValueError):
            average_forgetting([[1.0]])

    def test_max_includes_diagonal_checkpoint(self):
        # peak at z = t itself must be considered
        m = [[0.9, 0.1, 0.2],
             [None, 0.5, 0.5],
             [None, None, 0.5]]
        assert average_forgetting(m) == pytest.approx((0.9 - 0.2) / 2, abs=1e-15)


class TestApFg:
    def test_one_session_has_no_forgetting(self):
        assert ap_fg([[0.5]]) == (0.5, None)

    def test_bits_match_the_numpy_array_formulas(self):
        """The list form computes over the same float64 values in the same
        order as a NaN-padded array would: every bit is the same."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = int(rng.integers(2, 12))
            m = random_matrix(rng, t)
            a = np.array([[np.nan if v is None else v for v in row] for row in m])
            drops = [a[i, i:t - 1].max() - a[i, t - 1] for i in range(t - 1)]
            assert ap_fg(m) == (float(a[:, t - 1].mean()), float(np.mean(drops)))


class TestMetricOracle:
    def test_1000_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            t = int(rng.integers(2, 8))
            m = random_matrix(rng, t)
            assert abs(average_performance(m) - brute_force_ap(m, t)) <= 1e-12
            assert abs(average_forgetting(m) - brute_force_fg(m, t)) <= 1e-12
