"""Correctness checks, each against a computation made apart from seqrep.

Every check returns a list of failure messages (empty when it passes), so a
run can report all of them at once. Float comparisons between a batched and
a one-sequence computation allow rounding (matmuls reduce in another order);
comparisons between two runs of the same computation are exact.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from seqrep.data.types import ClientSequence
from seqrep.encoders import encode_sequence, pool_global

RTOL = 1e-9
ATOL = 1e-12
SCORE_KEYS = ("accuracy", "roc_auc", "pr_auc")


def ingest_matches(generated, ingested) -> list[str]:
    """The CSV round trip loses nothing: ids, columns, labels, change points."""
    errors = []
    gen_ids = [c.client_id for c in generated.clients]
    got_ids = [c.client_id for c in ingested.clients]
    if sorted(gen_ids) != got_ids:
        return [f"ingest: client ids differ ({len(gen_ids)} generated, {len(got_ids)} read)"]
    by_id = {c.client_id: c for c in ingested.clients}
    for g in generated.clients:
        c = by_id[g.client_id]
        for col in ("timestamps", "mcc", "amounts", "local_labels"):
            if not np.array_equal(getattr(g, col), getattr(c, col)):
                errors.append(f"ingest: client {g.client_id} column {col} differs")
        if g.global_label != c.global_label:
            errors.append(f"ingest: client {g.client_id} label differs")
        if g.change_point != c.change_point:
            errors.append(f"ingest: client {g.client_id} change point differs")
    return errors[:10]


def splits_valid(splits, dataset, k: int) -> list[str]:
    """Disjoint splits covering every client; vocabulary recounted on train."""
    errors = []
    parts = [{c.client_id for c in part} for part in (splits.train, splits.val, splits.test)]
    if sum(len(p) for p in parts) != len(set().union(*parts)):
        errors.append("splits: a client is in more than one split")
    if set().union(*parts) != {c.client_id for c in dataset.clients}:
        errors.append("splits: the splits do not cover every client")
    counts = Counter()
    for seq in splits.train:
        counts.update(seq.mcc.tolist())
    ranked = sorted(counts.items(), key=lambda cf: (-cf[1], cf[0]))[:k]
    expected = {code: i + 1 for i, (code, _) in enumerate(ranked)}
    if splits.vocab.mapping != expected or splits.vocab.k != len(expected):
        errors.append("splits: vocabulary differs from a recount of the train split")
    oov = len(expected) + 1
    for seq in splits.all_clients[:: max(1, len(splits.all_clients) // 20)]:
        want = np.array([expected.get(int(m), oov) for m in seq.mcc])
        if not np.array_equal(seq.mcc_idx, want):
            errors.append(f"splits: client {seq.client_id} codes mapped wrongly")
    return errors


def _window_alone(seq: ClientSequence, end: int, window: int) -> ClientSequence:
    lo = end - window
    return ClientSequence(client_id=seq.client_id, timestamps=seq.timestamps[lo:end],
                          mcc=seq.mcc[lo:end], amounts=seq.amounts[lo:end],
                          mcc_idx=seq.mcc_idx[lo:end])


def sample_pairs(rng, windows, n: int) -> list[tuple[int, int]]:
    """Up to n distinct (client position, window row) pairs."""
    filled = [i for i, w in enumerate(windows) if len(w)]
    pairs = set()
    for _ in range(10 * n):
        if len(pairs) == n or not filled:
            break
        ci = filled[int(rng.integers(len(filled)))]
        pairs.add((ci, int(rng.integers(len(windows[ci])))))
    return sorted(pairs)


def windows_match(model, clients, windows, window: int, stride: int,
                  pairs) -> list[str]:
    """Window grid recomputed; sampled rows equal the window encoded alone."""
    errors = []
    for seq, emb in zip(clients, windows):
        ends = np.arange(window, len(seq) + 1, stride) if len(seq) >= window else []
        if not np.array_equal(emb.ends, ends) or emb.client_id != seq.client_id:
            errors.append(f"windows: client {seq.client_id} window grid differs")
        elif len(emb) and not np.array_equal(emb.timestamps, seq.timestamps[emb.ends - 1]):
            errors.append(f"windows: client {seq.client_id} window times differ")
    for ci, j in pairs:
        seq, emb = clients[ci], windows[ci]
        alone = encode_sequence(model.encoder, _window_alone(seq, int(emb.ends[j]), window))
        want = pool_global(alone, model.pool_strategy).vector
        if not np.allclose(emb.matrix[j], want, rtol=RTOL, atol=ATOL):
            errors.append(f"windows: client {seq.client_id} window {j} differs "
                          f"from the window encoded alone")
    return errors[:10]


def globals_match(model, clients, matrix, positions) -> list[str]:
    """Sampled rows equal pool_global(encode_sequence(seq))."""
    errors = []
    for i in positions:
        want = pool_global(encode_sequence(model.encoder, clients[i]),
                           model.pool_strategy).vector
        if not np.allclose(matrix[i], want, rtol=RTOL, atol=ATOL):
            errors.append(f"global: client {clients[i].client_id} differs from "
                          f"its full history encoded alone")
    return errors


def same_model(trained, loaded, embed_windows, embed_globals, clients) -> list[str]:
    """The checkpoint round trip is exact: parameters and embeddings."""
    errors = []
    got = dict(loaded.parameters())
    for name, p in trained.parameters():
        if name not in got or not np.array_equal(p.data, got[name].data):
            errors.append(f"checkpoint: parameter {name} differs after loading")
    if trained.pool_strategy != loaded.pool_strategy:
        errors.append("checkpoint: pooling strategy differs after loading")
    for a, b in zip(embed_windows(trained, clients), embed_windows(loaded, clients)):
        if not np.array_equal(a.matrix, b.matrix):
            errors.append(f"checkpoint: window embeddings of {a.client_id} differ")
    if not np.array_equal(embed_globals(trained, clients), embed_globals(loaded, clients)):
        errors.append("checkpoint: global embeddings differ")
    return errors[:10]


def _aggregate(x: np.ndarray, h: np.ndarray, method: str, a) -> np.ndarray:
    if method == "mean":
        return x.mean(axis=0)
    if method == "max":
        return x.max(axis=0)
    scores = x @ (a @ h if method == "learnable" else h)
    w = np.exp(scores - scores.max())
    return (w / w.sum()) @ x


def context_matches(store, windows, augmented, method: str, attention,
                    pairs) -> list[str]:
    """Sampled context halves equal a brute-force recomputation.

    For a window of client c at time t: from every other client in the store,
    the latest row strictly before t, in client-id order, then aggregated.
    """
    errors = []
    for ci, j in pairs:
        emb, aug = windows[ci], augmented[ci]
        h, t = emb.matrix[j], int(emb.timestamps[j])
        rows = []
        for cid in sorted(store.series):
            if cid == emb.client_id:
                continue
            ts, m = store.series[cid]
            before = np.nonzero(ts < t)[0]
            if len(before):
                rows.append(m[before[-1]])
        ctx = _aggregate(np.stack(rows), h, method, attention) if rows else np.zeros(store.dim)
        if not np.allclose(aug.matrix[j], np.concatenate([h, ctx]), rtol=RTOL, atol=ATOL):
            errors.append(f"context: client {emb.client_id} window {j} differs "
                          f"from the brute-force context")
    return errors


def scores_in_range(payload: dict) -> list[str]:
    errors = []
    for task, summary in payload["tasks"].items():
        for seed, metrics in list(summary["per_seed"].items()) + [("mean", summary["mean"])]:
            for key in SCORE_KEYS:
                v = metrics.get(key)
                if v is None or not 0.0 <= v <= 1.0:
                    errors.append(f"scores: {payload['objective']} {task} {key} "
                                  f"(seed {seed}) = {v} is outside [0, 1]")
    return errors


def middle_guess_accuracy(planted, window: int, stride: int, margin: int) -> float:
    """Accuracy of a detector that always names the middle window.

    Scored on the clients `cpd_analysis` scores: planted, with at least 4
    windows on the grid `arange(window, len + 1, stride)`.
    """
    hits = []
    for seq in planted:
        n = len(range(window, len(seq) + 1, stride))
        if n < 4:
            continue
        true = max(0, (seq.change_point - window) // stride + 1)
        hits.append(abs(n // 2 - true) <= margin)
    return float(np.mean(hits))
