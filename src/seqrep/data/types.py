"""Columnar transaction containers shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

__all__ = ["ClientSequence", "Dataset", "MccVocab", "transform_amount"]


def transform_amount(a):
    """Signed log compression: sign(a) * ln(1 + |a|). Odd and monotone."""
    arr = np.asarray(a, dtype=np.float64)
    return np.sign(arr) * np.log1p(np.abs(arr))


@dataclass
class ClientSequence:
    """All transactions of one client, time-ordered, stored as columns.

    `mcc_idx` stays None until a vocabulary is applied. `local_labels` and
    `change_point` are optional task annotations; `amounts_t` is always the
    signed-log transform of `amounts`.
    """

    client_id: str
    timestamps: np.ndarray
    mcc: np.ndarray
    amounts: np.ndarray
    mcc_idx: Optional[np.ndarray] = None
    global_label: Optional[int] = None
    local_labels: Optional[np.ndarray] = None
    change_point: Optional[int] = None
    amounts_t: np.ndarray = field(init=False)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.mcc = np.asarray(self.mcc, dtype=np.int64)
        self.amounts = np.asarray(self.amounts, dtype=np.float64)
        n = len(self.timestamps)
        if not (len(self.mcc) == len(self.amounts) == n):
            raise ValueError(
                f"client {self.client_id}: column lengths differ "
                f"({n}, {len(self.mcc)}, {len(self.amounts)})"
            )
        if n == 0:
            raise ValueError(f"client {self.client_id}: empty sequence")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError(f"client {self.client_id}: timestamps not sorted")
        if self.mcc_idx is not None:
            self.mcc_idx = np.asarray(self.mcc_idx, dtype=np.int64)
        if self.local_labels is not None:
            self.local_labels = np.asarray(self.local_labels, dtype=np.int64)
        self.amounts_t = transform_amount(self.amounts)

    def __len__(self) -> int:
        return len(self.timestamps)

    def with_vocab(self, vocab: "MccVocab") -> "ClientSequence":
        return replace(self, mcc_idx=vocab.lookup(self.mcc))


@dataclass
class Dataset:
    """A set of client sequences plus the fitted vocabulary, if any."""

    clients: list[ClientSequence]
    vocab: Optional["MccVocab"] = None
    provenance: str = "unknown"

    def __len__(self) -> int:
        return len(self.clients)

    def __iter__(self) -> Iterator[ClientSequence]:
        return iter(self.clients)

    def by_id(self) -> dict[str, ClientSequence]:
        return {c.client_id: c for c in self.clients}

    def client_ids(self) -> list[str]:
        return [c.client_id for c in self.clients]

    def with_vocab(self, vocab: "MccVocab") -> "Dataset":
        return Dataset(
            clients=[c.with_vocab(vocab) for c in self.clients],
            vocab=vocab,
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class MccVocab:
    """Frequency-ranked MCC index map.

    Index 0 is reserved for padding and the mask token, 1..k are the kept
    codes in descending train frequency (ties by ascending raw code), and
    k+1 catches everything else.
    """

    mapping: dict[int, int]
    k: int

    @property
    def oov_index(self) -> int:
        return self.k + 1

    @property
    def n_indices(self) -> int:
        """Total index space: padding + k kept codes + OOV."""
        return self.k + 2

    def lookup(self, raw) -> np.ndarray:
        arr = np.asarray(raw, dtype=np.int64)
        codes = np.fromiter(sorted(self.mapping), dtype=np.int64, count=len(self.mapping))
        vals = np.array([self.mapping[int(c)] for c in codes], dtype=np.int64)
        if len(codes) == 0:
            return np.full(arr.shape, self.oov_index, dtype=np.int64)
        pos = np.clip(np.searchsorted(codes, arr), 0, len(codes) - 1)
        return np.where(codes[pos] == arr, vals[pos], self.oov_index)
