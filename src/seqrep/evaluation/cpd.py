"""Change-point detection on window-embedding trajectories.

The detector L2-normalizes the rows, then picks the split that minimizes the
summed squared deviation of each segment from its own mean. With normalized
rows that cost is T - (|S1|^2/k + |S2|^2/(T-k)) for prefix sums S, so one
prefix-sum pass scores every admissible split exactly; no approximation is
involved, and ties go to the earliest split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_SEGMENT",
    "ChangePointResult",
    "normalize_matrix",
    "detect_change_point",
    "detection_delay",
    "detection_accuracy",
    "pair_distance_curve",
]

MIN_SEGMENT = 2
_EPS = 1e-24


def normalize_matrix(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm (zero rows stay numerically tiny)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + _EPS)
    return x / norms


@dataclass
class ChangePointResult:
    split: int
    score: float
    curve: np.ndarray


def detect_change_point(embeddings: np.ndarray,
                        min_segment: int = MIN_SEGMENT) -> ChangePointResult:
    """Best two-segment split of a (T, d) trajectory.

    Returns the first index of the second segment, the variance explained by
    the split (higher is a sharper change), and the per-split score curve.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (T, d) embeddings, got shape {x.shape}")
    t = len(x)
    if min_segment < 1:
        raise ValueError("min_segment must be at least 1")
    if t < 2 * min_segment:
        raise ValueError(
            f"need at least {2 * min_segment} rows to split, got {t}"
        )
    u = normalize_matrix(x)
    prefix = np.cumsum(u, axis=0)
    total = prefix[-1]
    splits = np.arange(min_segment, t - min_segment + 1)
    s1 = prefix[splits - 1]
    s2 = total - s1
    k = splits.astype(np.float64)
    gain = np.sum(s1 * s1, axis=1) / k + np.sum(s2 * s2, axis=1) / (t - k)
    best = int(np.argmax(gain))
    return ChangePointResult(
        split=int(splits[best]),
        score=float(gain[best] - np.sum(total * total) / t),
        curve=gain,
    )


def detection_delay(predicted: np.ndarray, true: np.ndarray) -> float:
    """Mean lateness in windows; early or exact detections count zero."""
    predicted = np.asarray(predicted, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise ValueError("predicted and true must be matching 1-d arrays")
    if predicted.size == 0:
        raise ValueError("no detections to average")
    return float(np.mean(np.maximum(predicted - true, 0.0)))


def detection_accuracy(predicted: np.ndarray, true: np.ndarray,
                       margin: int) -> float:
    """Fraction of detections within +-margin windows of the truth."""
    predicted = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise ValueError("predicted and true must be matching 1-d arrays")
    if predicted.size == 0:
        raise ValueError("no detections to average")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return float(np.mean(np.abs(predicted - true) <= margin))


def pair_distance_curve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-window cosine distance between two aligned trajectories."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("trajectories must be (T, d) with matching d")
    n = min(len(a), len(b))
    if n == 0:
        raise ValueError("no aligned windows to compare")
    ua = normalize_matrix(a[:n])
    ub = normalize_matrix(b[:n])
    return 1.0 - np.sum(ua * ub, axis=1)
