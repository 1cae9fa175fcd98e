"""Classification metrics with exact tie handling.

ROC-AUC uses average ranks, so tied score pairs count one half; PR-AUC is
average precision with tied scores processed as one threshold group. Both
therefore match direct pair counting / threshold enumeration to float
precision. Multiclass variants are one-vs-rest averages weighted by class
support in the true labels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "roc_auc",
    "pr_auc",
    "roc_auc_ovr",
    "pr_auc_ovr",
    "classification_metrics",
]


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("accuracy of an empty label set is undefined")
    return float(np.mean(y_true == y_pred))


def _check_binary(y_true: np.ndarray, scores: np.ndarray) -> None:
    if y_true.shape != scores.shape or y_true.ndim != 1:
        raise ValueError("labels and scores must be matching 1-d arrays")
    bad = set(np.unique(y_true)) - {0, 1}
    if bad:
        raise ValueError(f"binary labels must be 0/1, got extras {sorted(bad)}")


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean rank of their block."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = len(s)
    # First and last sorted position of every block of equal scores.
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def roc_auc(y_true, scores) -> float:
    """Probability a random positive outscores a random negative (ties half)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    _check_binary(y_true, scores)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    ranks = _average_ranks(scores)
    return float((ranks[y_true == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def pr_auc(y_true, scores) -> float:
    """Average precision: sum of precision-weighted recall increments."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    _check_binary(y_true, scores)
    n_pos = int(y_true.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    y = y_true[order]
    s = scores[order]
    # Inclusive end of each equal-score block: only there are P/R observable.
    ends = np.nonzero(np.diff(s))[0]
    ends = np.concatenate([ends, [len(s) - 1]])
    tp = np.cumsum(y)[ends].astype(np.float64)
    seen = ends + 1.0
    precision = tp / seen
    recall = tp / n_pos
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def _ovr_weighted(metric, y_true, prob) -> float:
    y_true = np.asarray(y_true, dtype=np.int64)
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2 or len(prob) != len(y_true):
        raise ValueError("prob must be (n, n_classes) aligned with labels")
    if y_true.min() < 0 or y_true.max() >= prob.shape[1]:
        raise ValueError("labels outside probability columns")
    classes, counts = np.unique(y_true, return_counts=True)
    if len(classes) < 2:
        raise ValueError("one-vs-rest needs at least two distinct classes")
    total = 0.0
    weight = 0.0
    for cls, cnt in zip(classes, counts):
        total += cnt * metric((y_true == cls).astype(np.int64), prob[:, cls])
        weight += cnt
    return float(total / weight)


def roc_auc_ovr(y_true, prob) -> float:
    return _ovr_weighted(roc_auc, y_true, prob)


def pr_auc_ovr(y_true, prob) -> float:
    return _ovr_weighted(pr_auc, y_true, prob)


def classification_metrics(y_true, prob) -> dict[str, float]:
    """Accuracy plus threshold-free metrics from class probabilities.

    Two probability columns are scored as a binary problem on column 1;
    wider arrays fall back to support-weighted one-vs-rest.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    prob = np.asarray(prob, dtype=np.float64)
    pred = prob.argmax(axis=1)
    out = {"accuracy": accuracy(y_true, pred)}
    if prob.shape[1] == 2:
        out["roc_auc"] = roc_auc(y_true, prob[:, 1])
        out["pr_auc"] = pr_auc(y_true, prob[:, 1])
    else:
        out["roc_auc"] = roc_auc_ovr(y_true, prob)
        out["pr_auc"] = pr_auc_ovr(y_true, prob)
    return out
