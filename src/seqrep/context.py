"""Cross-client context: embedding store, queries, and aggregation.

A store holds a time-stamped embedding series per client. A query at time t
collects, from every other client, the latest embedding strictly before t;
the result is aggregated into one context vector by simple pooling or by
attention against the querying client's own embedding. Aggregation weights
always sum to one, so a context of identical vectors reduces to that vector
under every method. Clients with no usable context get a zero vector and a
raised fallback flag, and the augmented representation is the concatenation
of the client's own embedding with the context vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data.types import ClientSequence
from .encoders import embed_pooled
from .evaluation.windows import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    WindowEmbeddings,
    sliding_window_embed_many,
)
from .nn import Adam, Tape, Tensor, backward, concat, matmul, reshape, softmax, softmax_op
from .objectives.losses import contrastive_loss, normalize_rows
from .objectives.sampling import coles_sample_subsequences, pad_batch

__all__ = [
    "AGGREGATION_METHODS",
    "DEFAULT_STORE_SIZE",
    "ContextVector",
    "EmbeddingStore",
    "build_store",
    "aggregate_context",
    "augment_embedding",
    "window_augmenter",
    "global_augmenter",
    "train_attention_matrix",
]

AGGREGATION_METHODS = ("mean", "max", "attention", "learnable")
DEFAULT_STORE_SIZE = 500


@dataclass
class ContextVector:
    """Aggregated context plus how it was obtained."""

    vector: np.ndarray
    fallback: bool
    n_sources: int


@dataclass
class EmbeddingStore:
    """Per-client embedding series, each sorted by timestamp."""

    dim: int
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.series)

    def client_ids(self) -> list[str]:
        return sorted(self.series)

    def n_entries(self) -> int:
        return sum(len(ts) for ts, _ in self.series.values())

    def add_series(self, client_id: str, timestamps: np.ndarray,
                   matrix: np.ndarray) -> None:
        timestamps = np.asarray(timestamps, dtype=np.int64)
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(
                f"client {client_id}: expected (n, {self.dim}) matrix, "
                f"got {matrix.shape}"
            )
        if len(timestamps) != len(matrix):
            raise ValueError(f"client {client_id}: timestamps do not match rows")
        if len(timestamps) == 0:
            return
        if np.any(np.diff(timestamps) < 0):
            raise ValueError(f"client {client_id}: timestamps not sorted")
        if client_id in self.series:
            raise ValueError(f"client {client_id}: series already present")
        self.series[client_id] = (timestamps, matrix)

    def query(self, t: int, exclude: Optional[str] = None) -> np.ndarray:
        """Latest embedding strictly before t from every other client.

        Rows are ordered by client id, so the result is reproducible. Clients
        with no embedding before t contribute nothing; the result may have
        zero rows.
        """
        rows = []
        for cid in self.client_ids():
            if cid == exclude:
                continue
            ts, matrix = self.series[cid]
            i = int(np.searchsorted(ts, t, side="left")) - 1
            if i >= 0:
                rows.append(matrix[i])
        if not rows:
            return np.zeros((0, self.dim))
        return np.stack(rows)

    def query_many(self, times: np.ndarray, exclude: Optional[str] = None,
                   ) -> list[np.ndarray]:
        """`query` for a whole array of times with one pass per store client."""
        times = np.asarray(times, dtype=np.int64)
        picked: list[tuple[np.ndarray, np.ndarray]] = []
        for cid in self.client_ids():
            if cid == exclude:
                continue
            ts, matrix = self.series[cid]
            idx = np.searchsorted(ts, times, side="left") - 1
            picked.append((idx, matrix))
        out = []
        for j in range(len(times)):
            rows = [m[ix[j]] for ix, m in picked if ix[j] >= 0]
            out.append(np.stack(rows) if rows else np.zeros((0, self.dim)))
        return out


def build_store(model, clients: Sequence[ClientSequence],
                max_clients: int = DEFAULT_STORE_SIZE,
                window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                seed: int = 0) -> EmbeddingStore:
    """Window-embedding store over up to `max_clients` clients.

    When more clients are given than fit, a seeded sample (without
    replacement) keeps the store population stable across runs.
    """
    if max_clients < 1:
        raise ValueError("max_clients must be positive")
    clients = list(clients)
    if len(clients) > max_clients:
        rng = np.random.default_rng((seed, 31))
        keep = rng.choice(len(clients), size=max_clients, replace=False)
        clients = [clients[i] for i in sorted(keep)]
    store = EmbeddingStore(dim=model.encoder.hidden)
    embs = sliding_window_embed_many(model.encoder, clients, window, stride,
                                     model.pool_strategy)
    for emb in embs:
        if len(emb):
            store.add_series(emb.client_id, emb.timestamps, emb.matrix)
    return store


def _attention_weights(x: np.ndarray, h: np.ndarray,
                       a: Optional[np.ndarray]) -> np.ndarray:
    scores = x @ h if a is None else x @ (a @ h)
    return softmax(scores[None, :])[0]


def aggregate_context(x: np.ndarray, h: np.ndarray, method: str = "mean",
                      a: Optional[np.ndarray] = None) -> ContextVector:
    """Collapse candidate rows x (m, d) into one context vector.

    `attention` weighs rows by softmax(x h); `learnable` inserts a square
    matrix into the score, softmax(x A h), and reduces to plain attention
    when A is the identity. Mean and max ignore h.
    """
    if method not in AGGREGATION_METHODS:
        raise ValueError(f"unknown aggregation {method!r}; "
                         f"expected one of {AGGREGATION_METHODS}")
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"context rows must be (m, d), got {x.shape}")
    if h.shape != (x.shape[1],) and x.shape[1] > 0:
        raise ValueError(f"own embedding shape {h.shape} does not match "
                         f"context width {x.shape[1]}")
    m, d = x.shape
    if m == 0:
        return ContextVector(vector=np.zeros(max(d, len(h))), fallback=True,
                             n_sources=0)
    if method == "mean":
        vec = x.mean(axis=0)
    elif method == "max":
        vec = x.max(axis=0)
    else:
        if method == "learnable":
            if a is None:
                raise ValueError("learnable aggregation needs the matrix a")
            if a.shape != (d, d):
                raise ValueError(f"expected ({d}, {d}) matrix, got {a.shape}")
        weights = _attention_weights(x, h, a if method == "learnable" else None)
        vec = weights @ x
    return ContextVector(vector=vec, fallback=False, n_sources=m)


def augment_embedding(h: np.ndarray, ctx: ContextVector) -> np.ndarray:
    """Own embedding concatenated with its context vector."""
    return np.concatenate([np.asarray(h, dtype=np.float64), ctx.vector])


def window_augmenter(store: EmbeddingStore, method: str = "mean",
                     a: Optional[np.ndarray] = None):
    """Augment hook for window evaluations: concat each row with context."""

    def apply(embs: list[WindowEmbeddings]) -> list[WindowEmbeddings]:
        out = []
        for emb in embs:
            if len(emb) == 0:
                out.append(replace(emb, matrix=np.zeros((0, 2 * store.dim))))
                continue
            contexts = store.query_many(emb.timestamps, exclude=emb.client_id)
            rows = [
                augment_embedding(
                    emb.matrix[j],
                    aggregate_context(contexts[j], emb.matrix[j], method, a),
                )
                for j in range(len(emb))
            ]
            out.append(replace(emb, matrix=np.stack(rows)))
        return out

    return apply


def global_augmenter(store: EmbeddingStore, method: str = "mean",
                     a: Optional[np.ndarray] = None):
    """Augment hook for the global task: context at each client's last time."""

    def apply(clients: Sequence[ClientSequence], matrix: np.ndarray) -> np.ndarray:
        rows = []
        for seq, h in zip(clients, matrix):
            x = store.query(int(seq.timestamps[-1]), exclude=seq.client_id)
            rows.append(augment_embedding(h, aggregate_context(x, h, method, a)))
        return np.stack(rows)

    return apply


def train_attention_matrix(model, store: EmbeddingStore,
                           clients: Sequence[ClientSequence],
                           epochs: int = 3, lr: float = 1e-2, seed: int = 0,
                           n_slices: int = 2,
                           length_range: tuple[int, int] = (15, 50),
                           clients_per_batch: int = 16,
                           margin: float = 0.5) -> tuple[np.ndarray, list[float]]:
    """Fit the attention matrix A with the encoder frozen.

    Slices of training clients are embedded (no gradient), their contexts are
    attended with softmax(x A h), and A alone is updated so that augmented
    slice embeddings of one client stay close while different clients repel.
    Returns the fitted matrix and the per-epoch mean loss.
    """
    d = store.dim
    rng = np.random.default_rng((seed, 37))
    a = Tensor(np.eye(d) + 0.01 * rng.normal(size=(d, d)), requires_grad=True)
    optimizer = Adam([a], lr=lr)
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(clients))
        total, batches = 0.0, 0
        for lo in range(0, len(order), clients_per_batch):
            subset = [clients[i] for i in order[lo : lo + clients_per_batch]]
            samples = coles_sample_subsequences(
                subset, n_slices=n_slices, length_range=length_range, seed=rng)
            if len({s.client_index for s in samples}) < 2:
                continue
            own, ctxs, ids = [], [], []
            for s in samples:
                seq = subset[s.client_index]
                if seq.mcc_idx is None:
                    raise ValueError(f"client {seq.client_id}: vocabulary not applied")
                part = [(seq.mcc_idx[s.start : s.end], seq.amounts_t[s.start : s.end])]
                own.append(embed_pooled(model.encoder, *pad_batch(part),
                                        model.pool_strategy)[0])
                t = int(seq.timestamps[s.end - 1])
                ctxs.append(store.query(t, exclude=seq.client_id))
                ids.append(seq.client_id)
            with Tape() as tape:
                rows = []
                h_own = Tensor(np.stack(own))
                for h, x in zip(own, ctxs):
                    if len(x) == 0:
                        rows.append(Tensor(np.zeros((1, d))))
                        continue
                    scores = matmul(Tensor(x[None, :, :]),
                                    reshape(matmul(a, Tensor(h[:, None])), (1, d, 1)))
                    weights = softmax_op(reshape(scores, (1, len(x))))
                    rows.append(matmul(weights, Tensor(x)))
                augmented = concat([h_own, concat(rows, axis=0)], axis=1)
                loss = contrastive_loss(normalize_rows(augmented),
                                        np.array(ids), margin=margin)
            grads = backward(tape, loss)
            nid = a.maybe_node_id(tape)
            g = grads.get(nid) if nid is not None else None
            if g is not None:
                optimizer.step([g])
            total += loss.item()
            batches += 1
        if batches == 0:
            raise ValueError("no usable batches to fit the attention matrix")
        history.append(total / batches)
    return a.data.copy(), history

