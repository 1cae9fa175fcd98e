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
from ..encoders import embed_pooled

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
    chunk: int = 512,
) -> list[WindowEmbeddings]:
    """Window embeddings for many clients in fixed-size encoder batches.

    All windows share one length, so windows from different clients stack
    into rectangular batches. Clients shorter than `window` come back with
    zero rows.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    slices: list[tuple[int, np.ndarray]] = []
    all_mcc = []
    all_amt = []
    for ci, seq in enumerate(sequences):
        if seq.mcc_idx is None:
            raise ValueError(f"client {seq.client_id}: vocabulary not applied")
        ends = window_ends(len(seq), window, stride)
        slices.append((ci, ends))
        for end in ends:
            all_mcc.append(seq.mcc_idx[end - window : end])
            all_amt.append(seq.amounts_t[end - window : end])

    rows: list[np.ndarray] = []
    if all_mcc:
        mcc = np.stack(all_mcc)
        amt = np.stack(all_amt)
        lengths = np.full(len(mcc), window, dtype=np.int64)
        for lo in range(0, len(mcc), chunk):
            hi = lo + chunk
            rows.append(embed_pooled(encoder, mcc[lo:hi], amt[lo:hi],
                                     lengths[lo:hi], pool))
    pooled = np.concatenate(rows) if rows else np.zeros((0, encoder.hidden))

    out = []
    offset = 0
    for ci, ends in slices:
        seq = sequences[ci]
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
