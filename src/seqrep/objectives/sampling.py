"""Batch construction helpers: contrastive slices, masking corruption, padding."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..data.types import ClientSequence

__all__ = [
    "SubsequenceSample",
    "coles_sample_subsequences",
    "CorruptionPlan",
    "mlm_corrupt",
    "pad_batch",
]


@dataclass(frozen=True)
class SubsequenceSample:
    client_index: int
    start: int
    end: int


def coles_sample_subsequences(
    sequences: Sequence[ClientSequence],
    n_slices: int = 5,
    length_range: tuple[int, int] = (15, 50),
    seed: int | np.random.Generator = 0,
) -> list[SubsequenceSample]:
    """Contiguous, order-preserving random slices per client.

    Slice lengths are uniform over `length_range` capped at the client
    length; starts are uniform over the valid range. Clients shorter than
    the minimum are skipped with a warning.
    """
    lo, hi = length_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad slice length range ({lo}, {hi})")
    if n_slices < 1:
        raise ValueError("n_slices must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out: list[SubsequenceSample] = []
    skipped = 0
    for ci, seq in enumerate(sequences):
        t = len(seq)
        if t < lo:
            skipped += 1
            continue
        for _ in range(n_slices):
            length = int(rng.integers(lo, hi + 1))
            length = min(length, t)
            start = int(rng.integers(0, t - length + 1))
            out.append(SubsequenceSample(ci, start, start + length))
    if skipped:
        warnings.warn(
            f"skipped {skipped} client(s) shorter than the minimum slice length {lo}",
            stacklevel=2,
        )
    return out


@dataclass
class CorruptionPlan:
    """Selected positions with their actions and original values.

    action 0 = mask (index 0, amount zeroed), 1 = swap with a random
    transaction from the batch, 2 = keep unchanged but still predicted.
    """

    rows: np.ndarray
    cols: np.ndarray
    actions: np.ndarray
    original_mcc: np.ndarray
    original_amt: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def mlm_corrupt(
    mcc_idx: np.ndarray,
    amounts_t: np.ndarray,
    valid: np.ndarray,
    seed: int | np.random.Generator = 0,
    select_p: float = 0.1,
    action_probs: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[np.ndarray, np.ndarray, CorruptionPlan]:
    """Corrupt a padded (B, L) batch for masked reconstruction.

    Each valid position is selected independently with `select_p`; selected
    positions are masked / swapped / kept with `action_probs`. Padding is
    never selected. Returns corrupted copies plus the plan (which holds the
    originals, so the input can be reconstructed exactly).
    """
    if abs(sum(action_probs) - 1.0) > 1e-9:
        raise ValueError(f"action probabilities must sum to 1, got {action_probs}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    mcc = np.array(mcc_idx, dtype=np.int64, copy=True)
    amt = np.array(amounts_t, dtype=np.float64, copy=True)
    valid = np.asarray(valid, dtype=bool)
    if mcc.shape != amt.shape or mcc.shape != valid.shape:
        raise ValueError("batch arrays must share one (B, L) shape")

    selected = (rng.random(mcc.shape) < select_p) & valid
    rows, cols = np.nonzero(selected)
    n = len(rows)
    actions = rng.choice(3, size=n, p=list(action_probs))
    plan = CorruptionPlan(
        rows=rows,
        cols=cols,
        actions=actions,
        original_mcc=mcc[rows, cols].copy(),
        original_amt=amt[rows, cols].copy(),
    )

    vrows, vcols = np.nonzero(valid)
    for i in range(n):
        r, c = rows[i], cols[i]
        if actions[i] == 0:
            mcc[r, c] = 0
            amt[r, c] = 0.0
        elif actions[i] == 1:
            j = int(rng.integers(len(vrows)))
            mcc[r, c] = mcc_idx[vrows[j], vcols[j]]
            amt[r, c] = amounts_t[vrows[j], vcols[j]]
    return mcc, amt, plan


def pad_batch(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad (mcc_idx, amounts_t) pieces to a rectangle.

    Padding uses index 0 and amount 0, the same neutral values masking uses.
    Returns (mcc (B, L), amounts (B, L), lengths (B,)).
    """
    if not parts:
        raise ValueError("empty batch")
    lengths = np.array([len(m) for m, _ in parts], dtype=np.int64)
    if np.any(lengths == 0):
        raise ValueError("empty sequence in batch")
    width = int(lengths.max())
    b = len(parts)
    mcc = np.zeros((b, width), dtype=np.int64)
    amt = np.zeros((b, width), dtype=np.float64)
    for i, (m, a) in enumerate(parts):
        mcc[i, : len(m)] = m
        amt[i, : len(a)] = a
    return mcc, amt, lengths
