"""Training losses built from tape primitives."""

from __future__ import annotations

import numpy as np

from ..nn import (
    Tensor,
    add,
    concat,
    divide,
    log_softmax,
    matmul,
    maximum,
    multiply,
    reduce_sum,
    relu,
    reshape,
    scalar_multiply,
    sqrt,
    subtract,
    take_slice,
    transpose,
)

__all__ = [
    "normalize_rows",
    "contrastive_loss",
    "ts2vec_hierarchical_loss",
    "cross_entropy",
    "masked_joint_loss",
]

_DIST_EPS = 1e-24
_NEG_INF = -1e30


def normalize_rows(e: Tensor) -> Tensor:
    """L2-normalize the last axis; exact zero rows stay zero."""
    sq = reduce_sum(multiply(e, e), axis=-1, keepdims=True)
    return divide(e, sqrt(add(sq, Tensor(np.asarray(_DIST_EPS)))))


def contrastive_loss(embeddings: Tensor, client_ids, margin: float = 0.5) -> Tensor:
    """Margin contrastive loss over all unordered pairs in the batch.

    Same-client pairs contribute squared distance; different-client pairs
    contribute max(0, margin - d)^2. The sum is averaged over all pairs,
    so the value is invariant to batch permutation.
    """
    n = embeddings.shape[0]
    if n < 2:
        raise ValueError("need at least two embeddings for pairwise loss")
    ids = np.asarray(client_ids)
    if len(ids) != n:
        raise ValueError(f"got {n} embeddings but {len(ids)} client ids")

    d = embeddings.shape[-1]
    a = reshape(embeddings, (n, 1, d))
    b = reshape(embeddings, (1, n, d))
    diff = subtract(a, b)
    d2 = reduce_sum(multiply(diff, diff), axis=-1)
    dist = sqrt(add(d2, Tensor(np.asarray(_DIST_EPS))))

    upper = np.triu(np.ones((n, n)), k=1)
    same = (ids[:, None] == ids[None, :]).astype(np.float64)
    pos_mask = upper * same
    neg_mask = upper * (1.0 - same)
    n_pairs = n * (n - 1) // 2

    pos_term = reduce_sum(multiply(d2, Tensor(pos_mask)))
    slack = relu(subtract(Tensor(np.full((n, n), float(margin))), dist))
    neg_term = reduce_sum(multiply(multiply(slack, slack), Tensor(neg_mask)))
    return scalar_multiply(add(pos_term, neg_term), 1.0 / n_pairs)


def _paired_nce(z: Tensor, n: int) -> Tensor:
    """Dual log-softmax contrast on (G, 2n, C) with positives at (i, n+i)."""
    g, two_n, _ = z.shape
    sim = matmul(z, transpose(z, (0, 2, 1)))
    diag = np.where(np.eye(two_n, dtype=bool), _NEG_INF, 0.0)[None, :, :]
    ls = log_softmax(add(sim, Tensor(diag)))
    sel = np.zeros((1, two_n, two_n))
    idx = np.arange(n)
    sel[0, idx, idx + n] = 1.0
    sel[0, idx + n, idx] = 1.0
    picked = reduce_sum(multiply(ls, Tensor(sel)))
    return scalar_multiply(picked, -1.0 / (g * two_n))


def _instance_term(z1: Tensor, z2: Tensor) -> Tensor:
    b = z1.shape[0]
    z = concat([z1, z2], axis=0)
    return _paired_nce(transpose(z, (1, 0, 2)), b)


def _temporal_term(z1: Tensor, z2: Tensor) -> Tensor:
    t = z1.shape[1]
    return _paired_nce(concat([z1, z2], axis=1), t)


def _halve_time(z: Tensor) -> Tensor:
    """Max-pool width 2 over time, odd tail passes through (ceil halving)."""
    _, t, _ = z.shape
    m = t // 2
    even = take_slice(z, (slice(None), slice(0, 2 * m, 2)))
    odd = take_slice(z, (slice(None), slice(1, 2 * m, 2)))
    pooled = maximum(even, odd)
    if t % 2:
        pooled = concat([pooled, take_slice(z, (slice(None), slice(2 * m, t)))], axis=1)
    return pooled


def ts2vec_hierarchical_loss(z1: Tensor, z2: Tensor, alpha: float = 0.5) -> Tensor:
    """Instance + temporal contrast on aligned views, repeated across scales.

    Both inputs are (B, T, C) representations of the same overlap region
    under two crops. Each level adds alpha * instance + (1 - alpha) *
    temporal, then time is halved by width-2 max-pooling (ceil), giving
    ceil(log2 T) + 1 levels; the last level (T = 1) has no temporal term.
    The result is the per-level average.
    """
    if z1.shape != z2.shape:
        raise ValueError(f"views differ in shape: {z1.shape} vs {z2.shape}")
    if z1.ndim != 3 or z1.shape[1] < 1:
        raise ValueError(f"expected (B, T, C) with T >= 1, got {z1.shape}")
    terms: list[Tensor] = []
    while True:
        t = z1.shape[1]
        inst = scalar_multiply(_instance_term(z1, z2), alpha)
        if t == 1:
            terms.append(inst)
            break
        terms.append(add(inst, scalar_multiply(_temporal_term(z1, z2), 1.0 - alpha)))
        z1 = _halve_time(z1)
        z2 = _halve_time(z2)
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    return scalar_multiply(total, 1.0 / len(terms))


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """-(sum of log_softmax(logits) * onehot) / onehot.sum(): the mean
    cross-entropy over the rows that `onehot` marks (all-zero rows drop out)."""
    picked = reduce_sum(multiply(log_softmax(logits), Tensor(onehot)))
    return scalar_multiply(picked, -1.0 / onehot.sum())


def masked_joint_loss(
    mcc_logits: Tensor,
    amount_pred: Tensor,
    mcc_targets: np.ndarray,
    amount_targets: np.ndarray,
    valid: np.ndarray,
    weights: tuple[float, float] = (5.0, 1.0),
) -> Tensor:
    """weights[0] * mean CE over codes + weights[1] * mean squared amount error.

    Predictions are laid out (B, L, ...) and only positions where `valid` is
    set count toward either mean. Padded rows still flow through log-softmax
    (cheap, finite) but are multiplied out of both terms.
    """
    b, length, v = mcc_logits.shape
    mask = np.asarray(valid, dtype=np.float64)
    count = mask.sum()
    if count == 0:
        raise ValueError("joint loss over an empty position set")
    targets = np.asarray(mcc_targets, dtype=np.int64)
    safe = np.where(mask > 0, targets, 0)
    if safe.min() < 0 or safe.max() >= v:
        raise ValueError(f"code target outside [0, {v})")

    onehot = np.zeros((b, length, v))
    rows, cols = np.nonzero(mask)
    onehot[rows, cols, safe[rows, cols]] = 1.0
    ce = cross_entropy(mcc_logits, onehot)

    diff = subtract(reshape(amount_pred, (b, length)), Tensor(np.where(mask > 0, amount_targets, 0.0)))
    diff = multiply(diff, Tensor(mask))
    mse = scalar_multiply(reduce_sum(multiply(diff, diff)), 1.0 / count)

    return add(scalar_multiply(ce, weights[0]), scalar_multiply(mse, weights[1]))
