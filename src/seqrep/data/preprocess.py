"""Vocabulary fitting, client-level splits, and label derivation."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .types import ClientSequence, Dataset, MccVocab

__all__ = ["fit_mcc_vocab", "split_dataset", "derive_local_labels"]

DAY_SECONDS = 86400


def fit_mcc_vocab(sequences: Iterable[ClientSequence], k: int = 100) -> MccVocab:
    """Rank MCC codes by frequency over `sequences` and keep the top `k`.

    Kept codes map to 1..k in descending-frequency order; frequency ties
    break by ascending raw code. Everything else maps to the OOV index.
    """
    if k < 1:
        raise ValueError(f"vocabulary size must be >= 1, got {k}")
    columns = [seq.mcc for seq in sequences]
    if not columns:
        raise ValueError("no transactions to fit a vocabulary on")
    codes, counts = np.unique(np.concatenate(columns), return_counts=True)
    # Codes come ascending, so a stable sort by falling count breaks ties by code.
    kept = codes[np.argsort(-counts, kind="stable")[:k]]
    mapping = {code: i + 1 for i, code in enumerate(kept.tolist())}
    return MccVocab(mapping=mapping, k=len(kept))


def split_dataset(
    dataset: Dataset,
    ratios: Sequence[float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Client-level train/validation/test partition.

    Sizes are floor(ratio * n) with the remainder going to test; any part
    whose ratio is positive but floored to zero steals one client from the
    largest part, so no requested part comes back empty.
    """
    if len(ratios) != 3:
        raise ValueError("expected exactly three split ratios")
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must be nonnegative and sum to 1, got {ratios}")
    n = len(dataset)
    wanted = sum(1 for r in ratios if r > 0)
    if n < wanted:
        raise ValueError(f"cannot split {n} clients into {wanted} nonempty parts")

    sizes = [int(np.floor(r * n)) for r in ratios[:2]]
    sizes.append(n - sizes[0] - sizes[1])
    for i, r in enumerate(ratios):
        if r > 0 and sizes[i] == 0:
            donor = int(np.argmax(sizes))
            sizes[donor] -= 1
            sizes[i] += 1

    order = sorted(range(n), key=lambda i: dataset.clients[i].client_id)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    shuffled = [dataset.clients[order[p]] for p in perm]

    parts = []
    start = 0
    for sz in sizes:
        parts.append(Dataset(shuffled[start : start + sz]))
        start += sz
    return parts[0], parts[1], parts[2]


def derive_local_labels(dataset: Dataset, horizon_days: float = 30.0) -> Dataset:
    """Churn-style local labels from binary global labels.

    For a client with global label 1, transactions with timestamp strictly
    inside the final `horizon_days` window get label 1; everything else 0.
    """
    horizon = int(round(horizon_days * DAY_SECONDS))
    out = []
    for seq in dataset.clients:
        labels = np.zeros(len(seq), dtype=np.int64)
        if seq.global_label == 1:
            cutoff = int(seq.timestamps[-1]) - horizon
            labels[seq.timestamps > cutoff] = 1
        out.append(seq.annotated(local_labels=labels))
    return Dataset(out)
