"""Sliding-window embeddings over client sequences.

Each window covers exactly `window` consecutive transactions; windows end at
positions window, window + stride, ... up to the sequence length. A window is
embedded from its own content alone (the encoder never sees transactions
outside it), so two sequences that agree on a stretch produce identical
window vectors there. The window's timestamp is that of its last transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.types import ClientSequence
from ..encoders import embed_pooled, span_columns

__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_STRIDE",
    "WindowEmbeddings",
    "window_ends",
    "window_index",
    "sliding_window_embed_many",
]

DEFAULT_WINDOW = 32
DEFAULT_STRIDE = 16


@dataclass
class WindowEmbeddings:
    """Window vectors for one client: matrix row i ends at position ends[i]."""

    client_id: str
    matrix: np.ndarray
    ends: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.matrix)


def window_ends(t: int, window: int = DEFAULT_WINDOW,
                stride: int = DEFAULT_STRIDE) -> np.ndarray:
    """Exclusive end offsets of every complete window in a length-t sequence."""
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be positive")
    if t < window:
        return np.zeros(0, dtype=np.int64)
    return np.arange(window, t + 1, stride, dtype=np.int64)


def window_index(tau: int, window: int = DEFAULT_WINDOW,
                 stride: int = DEFAULT_STRIDE) -> int:
    """Index of the first window whose content extends past position tau."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return max(0, (tau - window) // stride + 1)


def sliding_window_embed_many(
    encoder,
    sequences: list[ClientSequence],
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    pool: str = "last",
) -> list[WindowEmbeddings]:
    """Window embeddings for many clients in one encoder call.

    Every window is a span of the clients' own columns, laid end to end, so
    no window's content is copied out; the encoder gathers and blocks the
    rows itself. Clients shorter than `window` come back with zero rows.
    """
    mcc, amt, offsets = span_columns(sequences)
    all_ends = [window_ends(len(seq), window, stride) for seq in sequences]
    # Row i covers positions ends[i] - window ... ends[i] - 1 of its client.
    starts = np.concatenate([np.zeros(0, np.int64)] + [
        offset + ends - window for offset, ends in zip(offsets, all_ends)])
    if len(starts):
        pooled = embed_pooled(encoder, mcc, amt, starts,
                              np.full(len(starts), window, dtype=np.int64), pool)
    else:
        pooled = np.zeros((0, encoder.hidden))

    out = []
    offset = 0
    for seq, ends in zip(sequences, all_ends):
        n = len(ends)
        matrix = pooled[offset : offset + n]
        offset += n
        ts = seq.timestamps[ends - 1] if n else np.zeros(0, dtype=np.int64)
        out.append(WindowEmbeddings(
            client_id=seq.client_id,
            matrix=np.ascontiguousarray(matrix),
            ends=ends,
            timestamps=ts,
        ))
    return out
