"""Accuracy, per-class tables, and small-sample statistics."""
import numpy as np
import pytest

from skelact import (
    ConfigurationError,
    SkeletonSequence,
    UndefinedCorrelationError,
    classwise_table,
    confusion_matrix,
    pearson,
    sequence_confidence,
    spearman,
    top_k_accuracy,
)
from helpers import (
    confidence_interval,
    five_number_summary,
    mp_five_numbers,
    mp_interval,
    mp_pearson,
    mp_spearman,
)


# ------------------------------------------------------------- top-k accuracy

def test_top_k_basic_counting():
    logits = np.array([[0.1, 0.9, 0.0],
                       [0.8, 0.1, 0.1],
                       [0.2, 0.3, 0.5]])
    labels = np.array([1, 0, 0])
    assert top_k_accuracy(logits, labels, 1) == pytest.approx(2 / 3)
    assert top_k_accuracy(logits, labels, 2) == pytest.approx(2 / 3)
    assert top_k_accuracy(logits, labels, 3) == 1.0


def test_top_k_ties_prefer_the_lower_class_index():
    logits = np.array([[1.0, 1.0, 0.5]])
    assert top_k_accuracy(logits, np.array([0]), 1) == 1.0
    assert top_k_accuracy(logits, np.array([1]), 1) == 0.0
    assert top_k_accuracy(logits, np.array([1]), 2) == 1.0


def test_top_k_validation():
    logits = np.array([[0.5, 0.5]])
    with pytest.raises(ConfigurationError):
        top_k_accuracy(np.zeros(3), np.array([0]))
    with pytest.raises(ConfigurationError):
        top_k_accuracy(logits, np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        top_k_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ConfigurationError):
        top_k_accuracy(logits, np.array([0]), 0)
    with pytest.raises(ConfigurationError):
        top_k_accuracy(logits, np.array([0]), 3)
    with pytest.raises(ConfigurationError):
        top_k_accuracy(logits, np.array([2]), 1)


# ----------------------------------------------------------- confusion matrix

def test_confusion_matrix_counts():
    labels = np.array([0, 0, 1, 1, 2, 2, 2])
    predictions = np.array([0, 1, 1, 1, 2, 0, 2])
    matrix = confusion_matrix(predictions, labels, 3)
    expected = np.zeros((3, 3), dtype=np.int64)
    for true, guess in zip(labels, predictions):
        expected[true, guess] += 1
    assert np.array_equal(matrix, expected)
    assert matrix.trace() == 5
    assert matrix.sum() == 7


def test_confusion_matrix_validation():
    with pytest.raises(ConfigurationError):
        confusion_matrix(np.array([0]), np.array([0, 1]), 2)
    with pytest.raises(ConfigurationError):
        confusion_matrix(np.array([0]), np.array([0]), 0)
    with pytest.raises(ConfigurationError):
        confusion_matrix(np.array([2]), np.array([0]), 2)


# ------------------------------------------------------- sequence confidence

def test_sequence_confidence_averages_positive_entries():
    data = np.zeros((2, 2, 2, 3))
    data[0, 0, 0, 2] = 0.4
    data[1, 0, 1, 2] = 0.6
    # Slot 1 is never visible.
    seq = SkeletonSequence(data, "synthetic")
    assert np.array_equal(sequence_confidence(seq), [0.5, 0.0])


def test_sequence_confidence_full_visibility():
    data = np.zeros((3, 1, 4, 3))
    data[..., 2] = 0.25
    seq = SkeletonSequence(data, "synthetic")
    assert sequence_confidence(seq)[0] == pytest.approx(0.25)


# ------------------------------------------------------------ classwise table

def test_classwise_table_exact_fixture():
    labels = np.array([0, 0, 1, 1, 1, 2])
    predictions = np.array([0, 1, 1, 1, 0, 2])
    confidences = np.array([[0.2, 0.4],
                            [0.4, 0.2],
                            [0.6, 0.0],
                            [0.8, 0.2],
                            [1.0, 0.4],
                            [0.5, 0.5]])
    rows = classwise_table(labels, predictions, confidences, ["a", "b", "c"])
    assert [r.name for r in rows] == ["a", "b", "c"]
    assert [r.support for r in rows] == [2, 3, 1]
    assert rows[0].accuracy == 0.5
    assert rows[1].accuracy == pytest.approx(2 / 3)
    assert rows[2].accuracy == 1.0
    assert rows[0].confidence == (pytest.approx(0.3), pytest.approx(0.3))
    assert rows[1].confidence == (pytest.approx(0.8), pytest.approx(0.2))
    assert rows[2].confidence == (0.5, 0.5)
    assert [r.position for r in rows] == [3, 2, 1]
    assert [r.index for r in rows] == [0, 1, 2]


def test_classwise_positions_share_on_ties():
    # Accuracies 1.0, 0.5, 0.5, 0.25 rank competition style: 1, 2, 2, 4.
    labels = np.repeat([0, 1, 2, 3], 4)
    predictions = labels.copy()
    predictions[4:6] = 0
    predictions[8:10] = 0
    predictions[12:15] = 1
    confidences = np.ones((16, 1))
    rows = classwise_table(labels, predictions, confidences, list("wxyz"))
    assert [r.accuracy for r in rows] == [1.0, 0.5, 0.5, 0.25]
    assert [r.position for r in rows] == [1, 2, 2, 4]


def test_classwise_table_validation():
    with pytest.raises(ConfigurationError):
        classwise_table(np.array([0, 0]), np.array([0, 1]),
                        np.ones((2, 1)), ["a", "b"])
    with pytest.raises(ConfigurationError):
        classwise_table(np.array([0, 1]), np.array([0, 1]),
                        np.ones((3, 1)), ["a", "b"])
    with pytest.raises(ConfigurationError):
        classwise_table(np.array([0, 2]), np.array([0, 1]),
                        np.ones((2, 1)), ["a", "b"])


# ----------------------------------------------------------------- correlation

ACCURACIES = [48.0, 14.58, 36.0, 4.0, 8.0, 0.0, 48.0, 74.0]
CONFIDENCES = [0.40, 0.35, 0.39, 0.39, 0.19, 0.06, 0.40, 0.32]


def test_accuracy_confidence_fixture_correlations():
    # References computed at 60 decimal digits; the implementation may
    # differ by an ulp or two from rounding order.
    assert pearson(ACCURACIES, CONFIDENCES) == pytest.approx(
        0.505691933434053, abs=5e-15)
    assert spearman(ACCURACIES, CONFIDENCES) == pytest.approx(
        0.5091002590437844, abs=5e-15)


def test_accuracy_fixture_positions():
    accuracies = np.array(ACCURACIES)
    positions = [1 + int((accuracies > value).sum()) for value in accuracies]
    assert positions == [2, 5, 4, 7, 6, 8, 2, 1]


def test_pearson_small_fixture_and_symmetries():
    assert pearson((1, 2, 3, 4), (1, 3, 2, 5)) == 0.8315218406202999
    assert pearson((1, 2, 3, 4), (1, 3, 2, 5)) == pearson((1, 3, 2, 5),
                                                          (1, 2, 3, 4))
    x = np.array([0.3, -1.2, 2.4, 0.0, 1.1])
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -2.0 * x) == pytest.approx(-1.0)
    assert pearson(x, x + 10.0) == pytest.approx(1.0)


def test_correlations_match_high_precision_references():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        x = rng.normal(0.0, 5.0, n)
        y = rng.normal(0.0, 5.0, n) + rng.uniform(-1.0, 1.0) * x
        assert pearson(x, y) == pytest.approx(mp_pearson(x, y), abs=1e-12)
        assert spearman(x, y) == pytest.approx(mp_spearman(x, y), abs=1e-12)


def test_spearman_handles_ties_with_midranks():
    x = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
    y = np.array([0.5, 1.0, 2.0, 1.5, 2.5, 3.5])
    assert spearman(x, y) == pytest.approx(mp_spearman(x, y), abs=1e-14)


def test_spearman_is_rank_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    assert spearman(np.exp(x), y) == spearman(x, y)
    assert spearman(x, y ** 3) == spearman(x, y)


def test_correlation_validation():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman([2.0, 2.0], [1.0, 3.0])
    with pytest.raises(ConfigurationError):
        pearson([1.0], [2.0])
    with pytest.raises(ConfigurationError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError):
        pearson(np.ones((2, 2)), np.ones((2, 2)))


# --------------------------------------------------------- confidence interval

def test_confidence_interval_frozen_two_point_case():
    ci = confidence_interval([0.0, 1.0])
    assert ci.mean == 0.5
    assert ci.level == 0.95
    # Half-width z * sd / sqrt(n) = 0.692951912174839 at 60-digit
    # precision; allow rounding-order slack of a couple of ulps.
    assert ci.upper == pytest.approx(1.1929519121748389, abs=5e-15)
    assert ci.lower == pytest.approx(-0.19295191217483898, abs=5e-15)
    # Intervals are not clipped to the metric's natural range.
    assert ci.lower < 0.0
    assert ci.upper > 1.0


def test_confidence_interval_matches_high_precision_reference():
    rng = np.random.default_rng(3)
    for level in (0.5, 0.9, 0.95, 0.99):
        samples = rng.uniform(0.0, 1.0, int(rng.integers(2, 40)))
        ci = confidence_interval(samples, level)
        mean, lower, upper = mp_interval(samples, level)
        assert ci.mean == pytest.approx(mean, abs=1e-13)
        assert ci.lower == pytest.approx(lower, abs=1e-12)
        assert ci.upper == pytest.approx(upper, abs=1e-12)


def test_confidence_interval_shrinks_with_more_samples():
    wide = confidence_interval([0.0, 1.0] * 2)
    narrow = confidence_interval([0.0, 1.0] * 50)
    assert (narrow.upper - narrow.lower) < (wide.upper - wide.lower)


def test_confidence_interval_validation():
    with pytest.raises(ConfigurationError):
        confidence_interval([1.0])
    with pytest.raises(ConfigurationError):
        confidence_interval(np.ones((2, 2)))
    with pytest.raises(ConfigurationError):
        confidence_interval([0.0, 1.0], level=0.0)
    with pytest.raises(ConfigurationError):
        confidence_interval([0.0, 1.0], level=1.0)


# ---------------------------------------------------------------- five numbers

def test_five_number_summary_quartiles():
    odd = five_number_summary([9.0, 1.0, 5.0, 3.0, 7.0])
    assert (odd.minimum, odd.q1, odd.median, odd.q3, odd.maximum) == (
        1.0, 3.0, 5.0, 7.0, 9.0
    )
    even = five_number_summary([1.0, 2.0, 3.0, 4.0])
    assert even.q1 == 1.75
    assert even.median == 2.5
    assert even.q3 == 3.25
    lone = five_number_summary([42.0])
    assert lone == five_number_summary([42.0, 42.0])


def test_five_number_summary_matches_reference():
    rng = np.random.default_rng(9)
    samples = rng.normal(0.0, 2.0, 17)
    summary = five_number_summary(samples)
    reference = mp_five_numbers(samples)
    for mine, ref in zip(
        (summary.minimum, summary.q1, summary.median, summary.q3,
         summary.maximum),
        reference,
    ):
        assert mine == pytest.approx(ref, abs=1e-12)


def test_five_number_summary_validation():
    with pytest.raises(ConfigurationError):
        five_number_summary([])
    with pytest.raises(ConfigurationError):
        five_number_summary(np.ones((2, 3)))

