"""Sequence encoders over embedded transactions.

Both encoders consume the same per-transaction input: the MCC embedding row
concatenated with the transformed amount (width d_emb + 1). The GRU is
strictly causal; the transformer is bidirectional with sinusoidal positions
and a prepended CLS slot. Both share one `forward(mcc_idx, amounts_t,
lengths=None) -> (hidden, cls)`, with cls None for the GRU. Forward passes
run batched on padded arrays, and record on the active tape only when
gradients are required, so the same code serves training and inference.

Pooled inference goes through `embed_pooled`, which takes spans (start,
length) of flat code and amount columns, and each encoder gathers and
blocks its rows its own way so that memory depends on block sizes, never on
how many rows or how long the histories are. The GRU sorts rows by length
and scans row blocks a few steps at a time, time-major, gathering each time
block's steps, carrying the state from one time block to the next and
pooling as it goes; the transformer sorts rows by length and pads chunks
whose attention scores fit a byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data.types import ClientSequence
from .nn import (
    TapeError,
    Tensor,
    add,
    attention,
    concat,
    divide,
    gather,
    gru_scan,
    gru_scan_time_major,
    layer_norm,
    matmul,
    multiply,
    reduce_max,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    subtract,
    take_slice,
    tanh,
    transpose,
)
from .nn.tensor import active_tape, swap_time

__all__ = [
    "EncoderConfig",
    "HiddenSequence",
    "GlobalRepresentation",
    "Linear",
    "GruCore",
    "GruEncoder",
    "TransformerEncoder",
    "embed_batch",
    "gru_cell",
    "encode_sequence",
    "pool_global",
    "pool_batch",
    "embed_pooled",
    "span_columns",
    "zero_pinned_rows",
    "POOL_STRATEGIES",
]

POOL_STRATEGIES = ("last", "mean", "max", "first_token")

MASK_SCORE = -1e30

# GRU inference blocks: at most ROW_BLOCK rows, scanned
# max(MIN_TIME_BLOCK, TIME_BLOCK_STEPS // active rows) steps at a time.
ROW_BLOCK = 512
TIME_BLOCK_STEPS = 2048
MIN_TIME_BLOCK = 4
# Transformer inference chunks: rows x heads x (L+1)^2 float64 attention
# scores stay within this many bytes (a chunk holds at least one row).
ATTENTION_BYTES = 16 << 20


@dataclass
class EncoderConfig:
    n_indices: int
    d_emb: int = 16
    hidden: int = 64
    blocks: int = 2
    heads: int = 4
    ff: int = 128

    @property
    def input_width(self) -> int:
        return self.d_emb + 1


@dataclass
class HiddenSequence:
    """Per-timestep encoder states for one sequence (no padding)."""

    vectors: np.ndarray
    timestamps: np.ndarray
    cls: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class GlobalRepresentation:
    vector: np.ndarray
    strategy: str


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear:
    """Weight + bias pair applied to the trailing axis."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int,
                 prefix: str):
        self.w = Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)
        self.prefix = prefix

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.prefix}/w", self.w), (f"{self.prefix}/b", self.b)]


def _embedding_table(rng: np.random.Generator, config: EncoderConfig) -> Tensor:
    """The (n_indices, d_emb) code embedding, with row 0 (padding and the
    mask token) at zero."""
    table = rng.normal(0.0, 0.1, size=(config.n_indices, config.d_emb))
    table[0] = 0.0
    return Tensor(table, requires_grad=True)


def zero_pinned_rows(grads: dict[str, np.ndarray]) -> None:
    """Zero the gradient of embedding row 0, so that row stays exactly zero."""
    g = grads.get("emb/table")
    if g is not None:
        g[0] = 0.0


def embed_batch(table: Tensor, mcc_idx: np.ndarray, amounts_t: np.ndarray) -> Tensor:
    """Embedding rows concatenated with the transformed amount scalar.

    mcc_idx and amounts_t are (B, L) arrays; the result is (B, L, d_emb + 1).
    Index 0 stays the zero row by construction, so padding and masked
    positions contribute a zero embedding with whatever amount was set.
    """
    emb = gather(table, mcc_idx)
    amt = Tensor(np.ascontiguousarray(amounts_t, dtype=np.float64)[..., None])
    return concat([emb, amt], axis=-1)


def gru_cell(x: Tensor, h: Tensor, p: dict[str, Tensor]) -> Tensor:
    """One GRU step: h_next = (1 - z) * h + z * h_tilde."""
    z = sigmoid(add(add(matmul(x, p["w_z"]), matmul(h, p["u_z"])), p["b_z"]))
    r = sigmoid(add(add(matmul(x, p["w_r"]), matmul(h, p["u_r"])), p["b_r"]))
    h_tilde = tanh(
        add(add(matmul(x, p["w_h"]), matmul(multiply(r, h), p["u_h"])), p["b_h"])
    )
    one = Tensor(np.ones(()))
    return add(multiply(subtract(one, z), h), multiply(z, h_tilde))


class GruCore:
    """Gate parameters plus the scan over an embedded (B, L, d_in) block."""

    def __init__(self, rng: np.random.Generator, d_in: int, d: int):
        self.d_in = d_in
        self.d = d
        self.gates: dict[str, Tensor] = {}
        for gate in ("z", "r", "h"):
            self.gates[f"w_{gate}"] = Tensor(_glorot(rng, d_in, d), requires_grad=True)
            self.gates[f"u_{gate}"] = Tensor(_glorot(rng, d, d), requires_grad=True)
            self.gates[f"b_{gate}"] = Tensor(np.zeros(d), requires_grad=True)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}/{name}", self.gates[name]) for name in sorted(self.gates)]

    def scan(self, x: Tensor, h0: Optional[Tensor] = None,
             time_major: bool = False) -> Tensor:
        """All hidden states for embedded inputs x (B, L, d_in) -> (B, L, d).

        With nothing recording, the input projections run time-major and
        the recurrence untaped. With `time_major`, x is (L, B, d_in) and the
        states come back (L, B, d), with no transposes; that layout is for
        inference only.
        """
        g = self.gates
        b = x.shape[1] if time_major else x.shape[0]
        if h0 is None:
            h0 = Tensor(np.zeros((b, self.d)))
        recording = active_tape() is not None and any(
            t.requires_grad for t in (x, h0, *g.values()))
        if not recording:
            xt = x.data if time_major else swap_time(x.data)
            proj = self._project_time_major(xt)
            # Freed before the states are allocated, and the projections
            # before a batch-major copy of the states.
            del xt
            states = gru_scan_time_major(*proj, h0.data, g["u_z"].data,
                                         g["u_r"].data, g["u_h"].data)
            del proj
            return Tensor(states if time_major else swap_time(states))
        if time_major:
            raise TapeError("a time-major GRU scan is inference only; "
                            "record the batch-major scan")
        # Input projections for every step in three batched matmuls, so the
        # weight gradients sum over steps per client; the recurrence over
        # them is one primitive.
        xz = add(matmul(x, g["w_z"]), g["b_z"])
        xr = add(matmul(x, g["w_r"]), g["b_r"])
        xh = add(matmul(x, g["w_h"]), g["b_h"])
        return gru_scan(xz, xr, xh, h0, g["u_z"], g["u_r"], g["u_h"])

    def _project_time_major(self, x: np.ndarray) -> list[np.ndarray]:
        """x @ w + b per gate over time-major x (L, B, d_in): one product over
        all L * B rows, or for one step one product per row, the
        matrix-vector path that the batch-major projection takes then. An
        overflow is left to the scan's input screen."""
        length, b, d_in = x.shape
        rows = x.reshape(b, 1, d_in) if length == 1 else x.reshape(length * b, d_in)
        out = []
        with np.errstate(over="ignore", invalid="ignore"):
            for gate in "zrh":
                p = np.matmul(rows, self.gates[f"w_{gate}"].data)
                p += self.gates[f"b_{gate}"].data
                out.append(p.reshape(length, b, self.d))
        return out


class GruEncoder:
    """Unidirectional GRU over embedded transactions."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.emb_table = _embedding_table(rng, config)
        self.core = GruCore(rng, config.input_width, config.hidden)
        self.gates = self.core.gates

    @property
    def hidden(self) -> int:
        return self.config.hidden

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("emb/table", self.emb_table)] + self.core.parameters("gru")

    def forward(self, mcc_idx: np.ndarray, amounts_t: np.ndarray,
                lengths: Optional[np.ndarray] = None) -> tuple[Tensor, None]:
        """Encode a padded (B, L) batch into (hidden states (B, L, d), None).

        The scan is causal, so padding after a row's end never reaches its
        valid positions and `lengths` is not needed.
        """
        x = embed_batch(self.emb_table, mcc_idx, amounts_t)
        return self.core.scan(x), None

    def embed_pooled(self, mcc_idx: np.ndarray, amounts_t: np.ndarray,
                     starts: np.ndarray, lengths: np.ndarray,
                     strategy: str) -> np.ndarray:
        """Pooled (B, d) rows of spans, scanned in row and time blocks.

        Rows are sorted by length and cut into near-equal blocks of at most
        ROW_BLOCK rows. A block is scanned time-major in time blocks that
        each gather, embed and project only their own steps, for the rows
        still running, from the state the previous time block left. Pooling
        runs along, so no (B, L) input or (B, L, d) state tensor is ever
        built. Rows equal `pool_batch(forward(...))` of the padded batch
        (width max(lengths)) bit for bit (mean pooling for a hidden width of
        at least 2) wherever BLAS gives a product row the same bits at any
        row count of two or more: every product keeps the BLAS path it takes
        there, since a time block spans at least two steps and a block with
        one running row scans a finished one along. Elsewhere they agree to
        rounding. On the AVX-512 OpenBLAS 0.3.31 this was measured on, rows
        round differently for inputs of 16 or more columns into a width 1-3
        past a multiple of 8, for `(n, 128) @ (128, 100)` at 1-100 rows
        against 2,048, and for `h @ a.T` with a (32, 32) `a` at 1-37 rows;
        the program's (13, 32), (32, 32), (32, 128), (128, 32) and (64, 128)
        products do not differ.
        """
        b = len(lengths)
        out = np.empty((b, self.hidden))
        order = np.argsort(-lengths, kind="stable")
        width = int(lengths[order[0]])
        # Near-equal blocks of at least two rows, unless the batch is one row.
        n_blocks = max(1, min(-(-b // ROW_BLOCK), b // 2))
        for rows in np.array_split(order, n_blocks):
            # first_token pools each row's first state and needs nothing after it.
            span = 1 if strategy == "first_token" else int(lengths[rows[0]])
            out[rows] = self._pool_row_block(mcc_idx, amounts_t, starts[rows],
                                             lengths[rows], width, span, strategy)
        return out

    def _pool_row_block(self, mcc_idx, amounts_t, starts, lengths, width, span,
                        strategy):
        """Pooled rows of one block over its first `span` steps, rows sorted
        by descending length in a batch whose longest row is `width`."""
        nb = len(lengths)
        h = np.zeros((nb, self.hidden))
        acc = np.full((nb, self.hidden), -np.inf if strategy == "max" else 0.0)
        t0 = 0
        while t0 < span:
            n = max(int(np.count_nonzero(lengths > t0)), min(2, nb))
            t1 = min(t0 + max(MIN_TIME_BLOCK, TIME_BLOCK_STEPS // n), span)
            if span - t1 == 1:
                t1 = span
            # A one-step block would project through a matrix-vector product.
            t1 = max(t1, min(t0 + 2, width))
            # Gathered, embedded and scanned time-major: states are (steps, rows, d).
            steps = np.arange(t0, t1)[:, None]
            x = embed_batch(self.emb_table, *_read_spans(
                mcc_idx, amounts_t, starts[None, :n], lengths[None, :n], steps))
            states = self.core.scan(x, Tensor(h[:n]), time_major=True).data
            h[:n] = states[-1]
            if strategy == "first_token":
                acc[:n] = states[0]
            elif strategy == "last":
                ends = np.flatnonzero((lengths[:n] > t0) & (lengths[:n] <= t1))
                acc[ends] = states[lengths[ends] - 1 - t0, ends]
            else:
                valid = steps < lengths[None, :n]
                if strategy == "mean":
                    # In time order, as pool_batch's masked sum adds them.
                    acc[:n] = np.concatenate(
                        [acc[None, :n], states * valid[:, :, None]]).sum(axis=0)
                else:
                    acc[:n] = np.maximum(
                        acc[:n], np.where(valid[:, :, None], states, -np.inf).max(axis=0))
            t0 = t1
        if strategy == "mean":
            return acc / lengths[:, None].astype(np.float64)
        return acc


def _read_spans(mcc_idx: np.ndarray, amounts_t: np.ndarray, starts: np.ndarray,
                lengths: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes and amounts `steps` past each span's start, in the broadcast
    shape of starts + steps. A step past a span's end reads the padding
    values (index 0, amount 0), as in a padded batch."""
    past = steps >= lengths
    idx = np.where(past, 0, starts + steps)
    mcc, amt = mcc_idx[idx], amounts_t[idx]
    mcc[past] = 0
    amt[past] = 0.0
    return mcc, amt


def _sinusoidal_positions(length: int, d: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / d)
    pe = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


class TransformerEncoder:
    """Bidirectional self-attention encoder with a CLS slot at position 0."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        if config.hidden % config.heads != 0:
            raise ValueError(
                f"hidden width {config.hidden} not divisible by {config.heads} heads"
            )
        self.config = config
        rng = np.random.default_rng(seed)
        d_in, d = config.input_width, config.hidden
        self.emb_table = _embedding_table(rng, config)
        self.cls = Tensor(rng.normal(0.0, 0.1, size=(1, d_in)), requires_grad=True)
        self.proj = Linear(rng, d_in, d, "proj")
        self.blocks = []
        for bi in range(config.blocks):
            blk = {
                "wq": Linear(rng, d, d, f"block{bi}/wq"),
                "wk": Linear(rng, d, d, f"block{bi}/wk"),
                "wv": Linear(rng, d, d, f"block{bi}/wv"),
                "wo": Linear(rng, d, d, f"block{bi}/wo"),
                "ff1": Linear(rng, d, config.ff, f"block{bi}/ff1"),
                "ff2": Linear(rng, config.ff, d, f"block{bi}/ff2"),
                "ln1_g": Tensor(np.ones(d), requires_grad=True),
                "ln1_b": Tensor(np.zeros(d), requires_grad=True),
                "ln2_g": Tensor(np.ones(d), requires_grad=True),
                "ln2_b": Tensor(np.zeros(d), requires_grad=True),
            }
            self.blocks.append(blk)

    @property
    def hidden(self) -> int:
        return self.config.hidden

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [("emb/table", self.emb_table), ("emb/cls", self.cls)]
        out.extend(self.proj.parameters())
        for bi, blk in enumerate(self.blocks):
            for key in ("wq", "wk", "wv", "wo", "ff1", "ff2"):
                out.extend(blk[key].parameters())
            for key in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                out.append((f"block{bi}/{key}", blk[key]))
        return out

    def _attention(self, x: Tensor, blk: dict, mask_add: np.ndarray,
                   b: int, s: int) -> Tensor:
        d = self.config.hidden
        n_heads = self.config.heads
        dh = d // n_heads

        def split_heads(t: Tensor) -> Tensor:
            t = reshape(t, (b, s, n_heads, dh))
            t = transpose(t, (0, 2, 1, 3))
            return reshape(t, (b * n_heads, s, dh))

        q = split_heads(blk["wq"](x))
        k = split_heads(blk["wk"](x))
        v = split_heads(blk["wv"](x))
        ctx = attention(q, k, v, mask_add, 1.0 / np.sqrt(dh))
        ctx = reshape(ctx, (b, n_heads, s, dh))
        ctx = transpose(ctx, (0, 2, 1, 3))
        ctx = reshape(ctx, (b, s, d))
        return blk["wo"](ctx)

    def forward(self, mcc_idx: np.ndarray, amounts_t: np.ndarray,
                lengths: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
        """Encode a padded (B, L) batch.

        Returns (hidden (B, L, d) for the transaction positions, cls (B, d)).
        Padded positions beyond each row's length are masked out of every
        attention softmax; without `lengths` every row is full.
        """
        b, length = mcc_idx.shape
        if lengths is None:
            lengths = np.full(b, length, dtype=np.int64)
        s = length + 1
        d = self.config.hidden

        x = embed_batch(self.emb_table, mcc_idx, amounts_t)
        ones = Tensor(np.ones((b, 1)))
        cls_rows = reshape(matmul(ones, self.cls), (b, 1, self.config.input_width))
        x = concat([cls_rows, x], axis=1)
        x = self.proj(x)
        x = add(x, Tensor(_sinusoidal_positions(s, d)[None, :, :]))

        # Column j+1 is masked for rows whose length <= j; CLS never masked.
        valid = np.zeros((b, 1, s))
        pos = np.arange(length)[None, :]
        pad = pos >= np.asarray(lengths)[:, None]
        valid[:, 0, 1:] = np.where(pad, MASK_SCORE, 0.0)
        mask_add = np.repeat(valid, self.config.heads, axis=0)

        for blk in self.blocks:
            attn = self._attention(x, blk, mask_add, b, s)
            x = layer_norm(add(x, attn))
            x = add(multiply(x, blk["ln1_g"]), blk["ln1_b"])
            ff = blk["ff2"](relu(blk["ff1"](x)))
            x = layer_norm(add(x, ff))
            x = add(multiply(x, blk["ln2_g"]), blk["ln2_b"])

        cls_out = reshape(take_slice(x, (slice(None), 0)), (b, d))
        hidden = take_slice(x, (slice(None), slice(1, s)))
        return hidden, cls_out

    def embed_pooled(self, mcc_idx: np.ndarray, amounts_t: np.ndarray,
                     starts: np.ndarray, lengths: np.ndarray,
                     strategy: str) -> np.ndarray:
        """Pooled (B, d) rows of spans, in chunks of length-sorted rows.

        Each chunk is padded from the spans to its longest row and holds as
        many rows as keep its attention scores within ATTENTION_BYTES; the
        `attention` primitive then works through them in cache-sized pieces,
        and through one long row's scores in blocks of query rows. A row
        equals the forward pass of its own chunk bit for bit, except that
        blocks of query rows agree with it to rounding; against another
        padded width it agrees to rounding, since the softmax sums run over
        the padded width.
        """
        b = len(lengths)
        out = np.empty((b, self.hidden))
        order = np.argsort(-lengths, kind="stable")
        lo = 0
        while lo < b:
            width = int(lengths[order[lo]])
            per_row = 8 * self.config.heads * (width + 1) ** 2
            idx = order[lo : lo + max(1, ATTENTION_BYTES // per_row)]
            mcc, amt = _read_spans(mcc_idx, amounts_t, starts[idx, None],
                                   lengths[idx, None], np.arange(width)[None, :])
            hidden, cls_out = self.forward(mcc, amt, lengths[idx])
            out[idx] = pool_batch(hidden, lengths[idx], strategy, cls_out).data
            lo += len(idx)
        return out


def encode_sequence(encoder, seq: ClientSequence) -> HiddenSequence:
    """Per-timestep states for one full sequence (inference, no tape)."""
    if seq.mcc_idx is None:
        raise ValueError(
            f"client {seq.client_id}: vocabulary not applied (mcc_idx missing)"
        )
    hidden, cls_out = encoder.forward(seq.mcc_idx[None, :], seq.amounts_t[None, :],
                                      np.array([len(seq)]))
    return HiddenSequence(vectors=hidden.data[0], timestamps=seq.timestamps.copy(),
                          cls=None if cls_out is None else cls_out.data[0])


def pool_global(hidden: HiddenSequence, strategy: str) -> GlobalRepresentation:
    """Collapse per-timestep states into one vector."""
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    if len(hidden) == 0:
        raise ValueError("cannot pool an empty hidden sequence")
    v = hidden.vectors
    if strategy == "last":
        out = v[-1]
    elif strategy == "mean":
        out = v.mean(axis=0)
    elif strategy == "max":
        out = v.max(axis=0)
    else:
        out = hidden.cls if hidden.cls is not None else v[0]
    return GlobalRepresentation(vector=np.asarray(out, dtype=np.float64).copy(),
                                strategy=strategy)


def pool_batch(hidden: Tensor, lengths: np.ndarray, strategy: str,
               cls_out: Optional[Tensor] = None) -> Tensor:
    """Pooling of padded (B, L, d) states into (B, d), on the tape when one
    records. The rows never view `hidden`, so a caller that keeps them does
    not keep the whole batch of states alive."""
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    b, length, d = hidden.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1) or np.any(lengths > length):
        raise ValueError("lengths out of range for pooling")
    if strategy == "first_token":
        if cls_out is not None:
            return cls_out
        return reshape(take_slice(hidden, (slice(None), 0)), (b, d))
    if strategy == "last":
        return gather(reshape(hidden, (b * length, d)), np.arange(b) * length + lengths - 1)
    mask = (np.arange(length)[None, :] < lengths[:, None]).astype(np.float64)
    if strategy == "mean":
        summed = reduce_sum(multiply(hidden, Tensor(mask[:, :, None])), axis=1)
        return divide(summed, Tensor(lengths[:, None].astype(np.float64)))
    neg = Tensor(np.where(mask[:, :, None] > 0, 0.0, MASK_SCORE))
    return reduce_max(add(hidden, neg), axis=1)


def span_columns(sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sequences' code and amount columns end to end, and the offset at
    which each sequence starts: flat columns for `embed_pooled`'s spans."""
    for seq in sequences:
        if seq.mcc_idx is None:
            raise ValueError(f"client {seq.client_id}: vocabulary not applied")
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    return (np.concatenate([np.zeros(0, np.int64)] + [seq.mcc_idx for seq in sequences]),
            np.concatenate([np.zeros(0)] + [seq.amounts_t for seq in sequences]),
            np.cumsum(lengths) - lengths)


def embed_pooled(encoder, mcc_idx: np.ndarray, amounts_t: np.ndarray,
                 starts: np.ndarray, lengths: np.ndarray, strategy: str) -> np.ndarray:
    """Pooled (B, d) embeddings of spans of flat columns (inference, no tape).

    Row i embeds mcc_idx and amounts_t at starts[i], ..., starts[i] +
    lengths[i] - 1. Spans may overlap, as sliding windows do; a padded
    (B, L) batch is the case starts = i * L of its flattened arrays. Pass
    every row in one call: the encoder gathers each block's inputs from the
    columns itself, so memory is bounded by its block sizes, not by the
    number of rows or their lengths.
    """
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pooling strategy {strategy!r}")
    mcc_idx = np.asarray(mcc_idx, dtype=np.int64)
    amounts_t = np.asarray(amounts_t, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if (mcc_idx.ndim != 1 or amounts_t.shape != mcc_idx.shape
            or lengths.ndim != 1 or starts.shape != lengths.shape):
        raise ValueError(f"span shapes disagree: mcc {mcc_idx.shape}, "
                         f"amounts {amounts_t.shape}, starts {starts.shape}, "
                         f"lengths {lengths.shape}")
    if (np.any(lengths < 1) or np.any(starts < 0)
            or np.any(starts + lengths > len(mcc_idx))):
        raise ValueError("spans out of range of the columns")
    if len(lengths) == 0:
        return np.zeros((0, encoder.hidden))
    return encoder.embed_pooled(mcc_idx, amounts_t, starts, lengths, strategy)
