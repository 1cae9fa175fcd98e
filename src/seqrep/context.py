"""Cross-client context: embedding store, queries, and aggregation.

A store holds a time-stamped embedding series per client. A lookup answers a
whole block of query times at once: for every time, each store client's
latest embedding strictly before it, with a mask that is False where a
client has no earlier row and in the querying client's own column. The
valid candidates are aggregated into one context vector by simple pooling
or by attention against the querying client's own embedding, with masked
candidates left out. Aggregation weights always sum to one, so a context of
identical vectors reduces to that vector under every method. A row with no
valid candidate gets a zero vector, and the augmented representation is the
concatenation of the client's own embedding with the context vector. The
augmenters walk their rows in chunks of a bounded row count whose
candidates fit a fixed byte budget, so memory stays bounded however many
rows are augmented.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data.types import ClientSequence
from .encoders import embed_pooled, span_columns
from .evaluation.windows import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    WindowEmbeddings,
    sliding_window_embed_many,
)
from .nn import (Adam, Tape, Tensor, add, backward, concat, matmul, multiply, reshape,
                 softmax_op, transpose)
from .objectives.losses import contrastive_loss, normalize_rows
from .objectives.sampling import coles_sample_subsequences

__all__ = [
    "AGGREGATION_METHODS",
    "CHUNK_BYTES",
    "CHUNK_ROWS",
    "DEFAULT_STORE_SIZE",
    "ContextVector",
    "EmbeddingStore",
    "build_store",
    "aggregate_many",
    "aggregate_context",
    "attention_loss",
    "chunk_rows",
    "window_augmenter",
    "global_augmenter",
    "train_attention_matrix",
]

AGGREGATION_METHODS = ("mean", "max", "attention", "learnable")
DEFAULT_STORE_SIZE = 500
# Byte budget of one chunk's candidates, chunk x store clients x d float64:
# it bounds the augmenters' memory whatever the number of rows. A chunk also
# holds at most CHUNK_ROWS rows, which already amortise the per-client
# lookup: a small store's chunks then stay small enough to be reused from
# the heap, instead of being mapped afresh, and faulted in, on every call.
CHUNK_BYTES = 4 << 20
CHUNK_ROWS = 256


@dataclass
class ContextVector:
    """Aggregated context plus how it was obtained."""

    vector: np.ndarray
    fallback: bool
    n_sources: int


@dataclass
class EmbeddingStore:
    """Per-client embedding series, each sorted by timestamp.

    `series` is the source of truth. Lookups read a padded copy of it, built
    on the first lookup and dropped by `add_series`: client ids in sorted
    order, times (C, Lmax) padded with the largest int64, and rows
    (C, Lmax + 1, d) whose slot 0 is a zero row and slot i + 1 holds row i.
    """

    dim: int
    series: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    _cache: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

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
        self._cache = None

    def _padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids (C,), times (C, Lmax), rows (C, Lmax + 1, d)), cached."""
        if self._cache is None:
            ids = self.client_ids()
            lmax = max((len(self.series[c][0]) for c in ids), default=0)
            times = np.full((len(ids), lmax), np.iinfo(np.int64).max)
            rows = np.zeros((len(ids), lmax + 1, self.dim))
            for k, cid in enumerate(ids):
                ts, matrix = self.series[cid]
                times[k, : len(ts)] = ts
                rows[k, 1 : len(ts) + 1] = matrix
            self._cache = (np.array(ids, dtype=str), times, rows)
        return self._cache

    def query(self, t: int, exclude: Optional[str] = None) -> np.ndarray:
        """Latest embedding strictly before t from every other client.

        Rows are ordered by client id; the result may have zero rows.
        """
        x, valid = self.query_many(np.array([t]), exclude)
        return x[0, valid[0]]

    def query_many(self, times: np.ndarray,
                   exclude: Optional[str | np.ndarray] = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Every store client's latest row strictly before each time.

        `exclude` is one client id, or one per time, whose column is masked.
        Returns x (n, C, d), columns in client-id order, and valid (n, C),
        False where a client has no row before the time or is excluded;
        x is zero wherever valid is False.
        """
        times = np.asarray(times, dtype=np.int64)
        ids, ts, rows = self._padded()
        # Rows of client k strictly before t: slot searchsorted(ts[k], t), so
        # a client with none lands on its zero slot 0.
        slot = np.empty((len(times), len(ids)), dtype=np.int64)
        for k in range(len(ids)):
            slot[:, k] = np.searchsorted(ts[k], times, side="left")
        if exclude is not None and len(ids):
            exclude = np.broadcast_to(np.asarray(exclude, dtype=str), times.shape)
            col = np.minimum(np.searchsorted(ids, exclude), len(ids) - 1)
            hit = np.nonzero(ids[col] == exclude)[0]
            slot[hit, col[hit]] = 0
        return rows[np.arange(len(ids)), slot], slot > 0


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


def chunk_rows(n_clients: int, dim: int, chunk_bytes: int) -> int:
    """Rows per chunk: at most CHUNK_ROWS, and few enough that chunk x
    n_clients x dim float64 fit the budget."""
    return max(1, min(CHUNK_ROWS, chunk_bytes // max(1, 8 * n_clients * dim)))


def aggregate_many(x: np.ndarray, valid: np.ndarray, h: np.ndarray,
                   method: str = "mean", a: Optional[np.ndarray] = None,
                   ) -> np.ndarray:
    """Collapse each row's valid candidates x (n, C, d) into one context (n, d).

    `attention` weighs the valid candidates by softmax(x h); `learnable`
    inserts a square matrix into the score, softmax(x A h), and reduces to
    plain attention when A is the identity. Mean and max ignore h. Masked
    candidates are left out (they must still be finite), and a row with no
    valid candidate gets a zero vector.
    """
    if method not in AGGREGATION_METHODS:
        raise ValueError(f"unknown aggregation {method!r}; "
                         f"expected one of {AGGREGATION_METHODS}")
    x = np.asarray(x, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 3 or valid.shape != x.shape[:2]:
        raise ValueError(f"context rows must be (n, C, d) with an (n, C) mask, "
                         f"got {x.shape} and {valid.shape}")
    n, _, d = x.shape
    if h.shape != (n, d):
        raise ValueError(f"own embedding shape {h.shape} does not match "
                         f"context width {d}")
    if method == "learnable":
        if a is None:
            raise ValueError("learnable aggregation needs the matrix a")
        if a.shape != (d, d):
            raise ValueError(f"expected ({d}, {d}) matrix, got {a.shape}")
    count = valid.sum(axis=1, keepdims=True)
    if method == "max":
        top = np.where(valid[:, :, None], x, -np.inf).max(axis=1, initial=-np.inf)
        return np.where(count > 0, top, 0.0)
    if method == "mean":
        w = valid / np.maximum(count, 1)
    else:
        q = h if method == "attention" else h @ a.T
        scores = np.where(valid, np.einsum("ncd,nd->nc", x, q), -np.inf)
        top = scores.max(axis=1, keepdims=True, initial=-np.inf)
        w = np.exp(scores - np.where(count > 0, top, 0.0))
        w /= np.maximum(w.sum(axis=1, keepdims=True), np.finfo(np.float64).tiny)
    return np.einsum("nc,ncd->nd", w, x)


def aggregate_context(x: np.ndarray, h: np.ndarray, method: str = "mean",
                      a: Optional[np.ndarray] = None) -> ContextVector:
    """`aggregate_many` for one row's candidates x (m, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"context rows must be (m, d), got {x.shape}")
    vec = aggregate_many(x[None], np.ones((1, len(x)), dtype=bool),
                         np.asarray(h, dtype=np.float64)[None], method, a)[0]
    return ContextVector(vector=vec, fallback=len(x) == 0, n_sources=len(x))


def _augment_rows(store: EmbeddingStore, h: np.ndarray, times: np.ndarray,
                  exclude: np.ndarray, method: str,
                  a: Optional[np.ndarray]) -> np.ndarray:
    """[h | context] for a block of rows, looked up and aggregated in chunks."""
    step = chunk_rows(len(store), store.dim, CHUNK_BYTES)
    ctx = np.zeros((len(h), store.dim))
    for lo in range(0, len(h), step):
        part = slice(lo, lo + step)
        x, valid = store.query_many(times[part], exclude[part])
        ctx[part] = aggregate_many(x, valid, h[part], method, a)
    return np.concatenate([h, ctx], axis=1)


def window_augmenter(store: EmbeddingStore, method: str = "mean",
                     a: Optional[np.ndarray] = None):
    """Augment hook for window evaluations: concat each row with context."""

    def apply(embs: list[WindowEmbeddings]) -> list[WindowEmbeddings]:
        sizes = [len(emb) for emb in embs]
        if sum(sizes) == 0:
            return [replace(emb, matrix=np.zeros((0, 2 * store.dim))) for emb in embs]
        rows = _augment_rows(
            store, np.concatenate([emb.matrix for emb in embs if len(emb)]),
            np.concatenate([emb.timestamps for emb in embs]),
            np.repeat([emb.client_id for emb in embs], sizes),
            method, a)
        parts = np.split(rows, np.cumsum(sizes)[:-1])
        return [replace(emb, matrix=part) for emb, part in zip(embs, parts)]

    return apply


def global_augmenter(store: EmbeddingStore, method: str = "mean",
                     a: Optional[np.ndarray] = None):
    """Augment hook for the global task: context at each client's last time."""

    def apply(clients: Sequence[ClientSequence], matrix: np.ndarray) -> np.ndarray:
        return _augment_rows(
            store, np.asarray(matrix, dtype=np.float64),
            np.array([seq.timestamps[-1] for seq in clients], dtype=np.int64),
            np.array([seq.client_id for seq in clients], dtype=str),
            method, a)

    return apply


# Additive score bias of a masked-out candidate: exp underflows to exactly
# zero, and unlike -inf it passes the tape's finiteness check.
MASK_BIAS = -1e30


def attention_loss(a: Tensor, own: np.ndarray, x: np.ndarray, valid: np.ndarray,
                   ids: np.ndarray, margin: float = 0.5) -> Tensor:
    """Contrastive loss of [own | softmax(x A own) x] over a batch, on the tape.

    own (B, d) are the samples' embeddings, x (B, C, d) and valid (B, C)
    their candidates from `EmbeddingStore.query_many`. A sample with no
    valid candidate gets a zero context, as in `aggregate_many`.
    """
    b, c, d = x.shape
    xt = Tensor(x)
    q = reshape(matmul(Tensor(own), transpose(a)), (b, d, 1))
    scores = add(reshape(matmul(xt, q), (b, c)),
                 Tensor(np.where(valid, 0.0, MASK_BIAS)))
    weights = reshape(softmax_op(scores), (b, 1, c))
    ctx = multiply(reshape(matmul(weights, xt), (b, d)),
                   Tensor(valid.any(axis=1, keepdims=True).astype(np.float64)))
    augmented = concat([Tensor(own), ctx], axis=1)
    return contrastive_loss(normalize_rows(augmented), ids, margin=margin)


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
    if len(store) == 0:
        raise ValueError("empty store: no context to fit the attention matrix on")
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
            seqs = [subset[s.client_index] for s in samples]
            # Each slice is a span of its client's columns.
            mcc, amt, offsets = span_columns(subset)
            own = embed_pooled(
                model.encoder, mcc, amt,
                np.array([offsets[s.client_index] + s.start for s in samples]),
                np.array([s.end - s.start for s in samples]), model.pool_strategy)
            ids = np.array([seq.client_id for seq in seqs], dtype=str)
            x, valid = store.query_many(
                np.array([seq.timestamps[s.end - 1] for seq, s in zip(seqs, samples)]),
                ids)
            with Tape() as tape:
                loss = attention_loss(a, own, x, valid, ids, margin)
            optimizer.step(backward(tape, loss, [a]))
            total += loss.item()
            batches += 1
        if batches == 0:
            raise ValueError("no usable batches to fit the attention matrix")
        history.append(total / batches)
    return a.data.copy(), history

