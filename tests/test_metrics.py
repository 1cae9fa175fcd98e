"""Classification metrics against brute-force oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrep.evaluation.metrics import (
    _average_ranks,
    accuracy,
    classification_metrics,
    pr_auc,
    roc_auc,
)


def roc_auc_oracle(y, s):
    """O(n^2) pair counting: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = s[y == 1]
    neg = s[y == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def pr_auc_oracle(y, s):
    """Average precision: sum over distinct thresholds of dR * precision."""
    order = np.argsort(-s, kind="stable")
    y = y[order]
    s = s[order]
    n_pos = int(y.sum())
    out = 0.0
    prev_recall = 0.0
    i = 0
    n = len(y)
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        tp = int(y[: j + 1].sum())
        precision = tp / (j + 1)
        recall = tp / n_pos
        out += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return out


def average_ranks_loop(scores):
    """The tie-block walk the vectorised ranks replace, kept as their oracle."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    n = len(s)
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and s[j + 1] == s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def labeled_scores(draw_rng, n):
    y = draw_rng.integers(0, 2, size=n)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == len(y):
        y[0] = 0
    # Coarse grid of scores forces plenty of ties.
    s = draw_rng.integers(0, 6, size=n).astype(np.float64) / 5.0
    return y, s


def test_accuracy_spot_case():
    y = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 1])
    p = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    assert accuracy(y, p) == 0.5


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 50), st.integers(0, 2**31 - 1))
def test_roc_auc_matches_pair_counting(n, seed):
    rng = np.random.default_rng(seed)
    y, s = labeled_scores(rng, n)
    assert roc_auc(y, s) == pytest.approx(roc_auc_oracle(y, s), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 50), st.integers(0, 2**31 - 1))
def test_pr_auc_matches_average_precision(n, seed):
    rng = np.random.default_rng(seed)
    y, s = labeled_scores(rng, n)
    assert pr_auc(y, s) == pytest.approx(pr_auc_oracle(y, s), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_average_ranks_equal_the_tie_block_walk(n, levels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=n).astype(np.float64) / levels
    got = _average_ranks(scores)
    assert np.array_equal(got, average_ranks_loop(scores))
    assert got.sum() == n * (n + 1) / 2


def test_roc_auc_known_values():
    y = np.array([0, 0, 1, 1])
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert roc_auc(y, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5


def test_metrics_reject_single_class():
    with pytest.raises(ValueError):
        roc_auc(np.ones(4), np.arange(4.0))
    with pytest.raises(ValueError):
        pr_auc(np.zeros(4), np.arange(4.0))


def test_classification_metrics_binary(rng):
    y = np.array([0, 1, 0, 1, 1])
    proba = np.column_stack([1 - np.linspace(0.1, 0.9, 5),
                             np.linspace(0.1, 0.9, 5)])
    out = classification_metrics(y, proba)
    assert set(out) == {"accuracy", "roc_auc", "pr_auc"}
    assert out["roc_auc"] == pytest.approx(
        roc_auc_oracle(y, np.linspace(0.1, 0.9, 5)))


def test_classification_metrics_multiclass_weighting(rng):
    n, k = 40, 3
    y = rng.integers(0, k, size=n)
    raw = rng.random((n, k))
    proba = raw / raw.sum(axis=1, keepdims=True)
    out = classification_metrics(y, proba)

    expect = 0.0
    total = 0
    for c in range(k):
        yc = (y == c).astype(int)
        if yc.sum() in (0, n):
            continue
        support = int(yc.sum())
        expect += support * roc_auc_oracle(yc, proba[:, c])
        total += support
    assert out["roc_auc"] == pytest.approx(expect / total, abs=1e-12)

    pred = proba.argmax(axis=1)
    assert out["accuracy"] == pytest.approx(float((pred == y).mean()))
