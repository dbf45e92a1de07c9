"""Accuracy metrics, per-class summaries, and correlations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UndefinedCorrelationError
from .sequence import SkeletonSequence


def check_logits(logits, labels, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Check (N, K) scores against N labels in [0, K) before computing ``what``."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ConfigurationError(f"logits must be 2D, got shape {logits.shape}")
    count, class_count = logits.shape
    if labels.shape != (count,):
        raise ConfigurationError(
            f"labels shape {labels.shape} does not match {count} logit rows"
        )
    if count == 0:
        raise ConfigurationError(f"{what} of an empty batch is undefined")
    if labels.min() < 0 or labels.max() >= class_count:
        raise ConfigurationError(
            f"labels must lie in [0, {class_count}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    return logits, labels


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose label is among the k best-scored classes.

    Ties are broken toward the lower class index, so results do not depend
    on float noise ordering equal scores.
    """
    logits, labels = check_logits(logits, labels, "accuracy")
    if not 1 <= k <= logits.shape[1]:
        raise ConfigurationError(f"k must lie in [1, {logits.shape[1]}], got {k}")
    # Stable argsort of the negated scores ranks equal scores by index.
    ranked = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    hits = (ranked == labels[:, None]).any(axis=1)
    return float(hits.mean())


def confusion_matrix(
    predictions: np.ndarray, labels: np.ndarray, class_count: int
) -> np.ndarray:
    """Counts indexed [true class, predicted class]."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ConfigurationError("predictions and labels must be equal 1D arrays")
    if class_count < 1:
        raise ConfigurationError("class_count must be positive")
    for name, values in (("predictions", predictions), ("labels", labels)):
        if values.size and (values.min() < 0 or values.max() >= class_count):
            raise ConfigurationError(f"{name} must lie in [0, {class_count})")
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix


def sequence_confidence(seq: SkeletonSequence) -> np.ndarray:
    """Mean positive detector confidence per person slot.

    Averaged over every frame and joint with confidence above zero; a slot
    that is never visible scores 0.0.
    """
    confidences = seq.data[..., 2]
    out = np.zeros(seq.person_slots)
    for slot in range(seq.person_slots):
        values = confidences[:, slot, :]
        mask = values > 0.0
        if mask.any():
            out[slot] = float(values[mask].mean())
    return out


@dataclass(frozen=True)
class ClassSummary:
    index: int
    name: str
    support: int
    accuracy: float
    confidence: tuple[float, ...]
    position: int


def classwise_table(
    labels: np.ndarray,
    predictions: np.ndarray,
    confidences: np.ndarray,
    class_names,
) -> list[ClassSummary]:
    """Per-class accuracy, mean slot confidences, and accuracy ranking.

    ``confidences`` has one row per sample and one column per person slot.
    Ranking is competition style: position is one plus the number of
    classes with strictly higher accuracy, so tied classes share the lower
    position index. Every class needs at least one sample.
    """
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    confidences = np.asarray(confidences, dtype=np.float64)
    class_names = list(class_names)
    count = len(class_names)
    if confidences.ndim != 2 or confidences.shape[0] != labels.shape[0]:
        raise ConfigurationError(
            "confidences must have one row per sample"
        )
    confusion_matrix(predictions, labels, count)
    accuracies = np.zeros(count)
    supports = np.zeros(count, dtype=np.int64)
    slot_means = np.zeros((count, confidences.shape[1]))
    for index in range(count):
        members = labels == index
        supports[index] = int(members.sum())
        if supports[index] == 0:
            raise ConfigurationError(
                f"class {class_names[index]!r} has no samples"
            )
        accuracies[index] = float(
            (predictions[members] == index).mean()
        )
        slot_means[index] = confidences[members].mean(axis=0)
    rows = []
    for index in range(count):
        position = 1 + int((accuracies > accuracies[index]).sum())
        rows.append(
            ClassSummary(
                index=index,
                name=class_names[index],
                support=int(supports[index]),
                accuracy=float(accuracies[index]),
                confidence=tuple(float(v) for v in slot_means[index]),
                position=position,
            )
        )
    return rows


def _clean_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ConfigurationError("inputs must be 1D arrays of equal length")
    if x.size < 2:
        raise ConfigurationError("correlation needs at least two points")
    return x, y


def pearson(x, y) -> float:
    """Pearson correlation; zero variance raises UndefinedCorrelationError."""
    x, y = _clean_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float((dx ** 2).sum())
    sy = float((dy ** 2).sum())
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError(
            "correlation is undefined for a constant input"
        )
    return float((dx * dy).sum() / np.sqrt(sx * sy))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties share their average rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    sorted_values = values[order]
    start = 0
    while start < len(sorted_values):
        stop = start
        while stop + 1 < len(sorted_values) and sorted_values[stop + 1] == sorted_values[start]:
            stop += 1
        # Average of the occupied rank positions start+1 .. stop+1.
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman correlation: Pearson over midranks."""
    x, y = _clean_pair(x, y)
    return pearson(_midranks(x), _midranks(y))
