"""Task evaluation protocol for frozen encoders.

Three tasks, all probed with small classifiers over fixed embeddings:

* global: one vector per client, client-level label, probe fit on the train
  and validation splits together, scored on test.
* local binary: sliding-window vectors, window labeled by the state of its
  last transaction, probe fit on train windows only.
* next code: sliding-window vectors, label is the code of the transaction
  immediately after the window; windows at the sequence end and windows whose
  target falls outside the known vocabulary are dropped.

The tasks take fixed embeddings, never a model. One evaluation embeds each
split once: `EmbeddedSplits` holds one frozen model's window embeddings of
the train and test splits and whole-history vectors of the fit (train +
validation) and test clients, each made on first use, so a task filter that
needs no windows embeds none. Optional augmenters widen them (e.g. with
pooled context from other clients) once per matrix, without the protocol
knowing how. The dataset builders pair those embeddings with labels, and the
`eval_*` tasks only fit and score a probe, so another probe seed costs a
probe fit, never another embedding pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..data.types import ClientSequence
from ..encoders import embed_pooled, span_columns
from .heads import MlpProbe, ProbeConfig
from .metrics import classification_metrics
from .windows import (
    DEFAULT_STRIDE,
    DEFAULT_WINDOW,
    WindowEmbeddings,
    sliding_window_embed_many,
)

__all__ = [
    "FrozenModel",
    "EmbeddedSplits",
    "global_embeddings",
    "eval_from_matrices",
    "global_dataset",
    "eval_global",
    "local_window_dataset",
    "eval_local_binary",
    "next_code_dataset",
    "eval_next_mcc",
]

GlobalAugment = Callable[[Sequence[ClientSequence], np.ndarray], np.ndarray]
WindowAugment = Callable[[list[WindowEmbeddings]], list[WindowEmbeddings]]
# Probe inputs: an embedding matrix and one integer label per row.
Data = tuple[np.ndarray, np.ndarray]


@dataclass
class FrozenModel:
    """Minimal encoder + pooling bundle the protocol understands."""

    encoder: object
    pool_strategy: str


def global_embeddings(model, clients: Sequence[ClientSequence]) -> np.ndarray:
    """One pooled vector per client, in the given client order.

    Every history goes to the encoder as a span of the clients' columns,
    laid end to end, in one call; the encoder gathers and blocks the rows
    itself, so its working memory depends on its block sizes, not on how
    many clients or how long their histories are.
    """
    if not clients:
        raise ValueError("no clients to embed")
    mcc, amt, starts = span_columns(clients)
    return embed_pooled(model.encoder, mcc, amt, starts,
                        np.array([len(seq) for seq in clients]), model.pool_strategy)


def eval_from_matrices(fit_x: np.ndarray, fit_y: np.ndarray,
                       test_x: np.ndarray, test_y: np.ndarray,
                       n_classes: int, probe_cfg: Optional[ProbeConfig] = None,
                       seed: int = 0) -> dict[str, float]:
    """Fit a probe on one matrix, score it on another."""
    probe = MlpProbe(fit_x.shape[1], n_classes, probe_cfg, seed)
    probe.fit(fit_x, fit_y, seed)
    return classification_metrics(test_y, probe.predict_proba(test_x))


class EmbeddedSplits:
    """One frozen model's embeddings of the evaluation splits, each made once.

    `windows(split)` embeds the "train" or "test" clients' sliding windows;
    `globals(split)` embeds the "fit" (train + validation) or "test" clients'
    whole histories. With `context=True` both return the plain embeddings
    widened by the matching augmenter, applied once per split. Nothing is
    embedded before it is asked for, and nothing twice.
    """

    def __init__(self, model, train: Sequence[ClientSequence],
                 val: Sequence[ClientSequence], test: Sequence[ClientSequence],
                 window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                 window_augment: Optional[WindowAugment] = None,
                 global_augment: Optional[GlobalAugment] = None):
        self.model = model
        self.window = window
        self.stride = stride
        self.clients = {"train": list(train), "fit": list(train) + list(val),
                        "test": list(test)}
        self.window_augment = window_augment
        self.global_augment = global_augment
        self._made: dict[tuple[str, str, bool], object] = {}

    def windows(self, split: str, context: bool = False) -> list[WindowEmbeddings]:
        key = ("windows", split, context)
        if key not in self._made:
            if context:
                if self.window_augment is None:
                    raise ValueError("no window augmenter to widen windows with")
                self._made[key] = self.window_augment(self.windows(split))
            else:
                self._made[key] = sliding_window_embed_many(
                    self.model.encoder, self.clients[split], self.window,
                    self.stride, self.model.pool_strategy)
        return self._made[key]

    def globals(self, split: str, context: bool = False) -> np.ndarray:
        key = ("globals", split, context)
        if key not in self._made:
            if context:
                if self.global_augment is None:
                    raise ValueError("no global augmenter to widen embeddings with")
                self._made[key] = self.global_augment(self.clients[split],
                                                      self.globals(split))
            else:
                self._made[key] = global_embeddings(self.model, self.clients[split])
        return self._made[key]

    def datasets(self, task: str, n_codes: Optional[int] = None) -> tuple[Data, Data]:
        """(fit, test) inputs of one task: "global", "local_binary" or
        "next_mcc", the first two also with a "_context" suffix."""
        context = task.endswith("_context")
        base = task.removesuffix("_context")
        if base == "global":
            return tuple(global_dataset(self.clients[s], self.globals(s, context))
                         for s in ("fit", "test"))
        if base == "local_binary":
            return tuple(local_window_dataset(self.clients[s], self.windows(s, context))
                         for s in ("train", "test"))
        if task == "next_mcc":
            return tuple(next_code_dataset(self.clients[s], self.windows(s), n_codes)
                         for s in ("train", "test"))
        raise ValueError(f"unknown task {task!r}")


def global_dataset(clients: Sequence[ClientSequence], matrix: np.ndarray) -> Data:
    """Whole-history embeddings paired with each client's global label."""
    labels = []
    for c in clients:
        if c.global_label is None:
            raise ValueError(f"client {c.client_id}: no global label")
        labels.append(c.global_label)
    return matrix, np.asarray(labels, dtype=np.int64)


def eval_global(fit: Data, test: Data, probe_cfg: Optional[ProbeConfig] = None,
                seed: int = 0) -> dict[str, float]:
    """Client-level classification from pooled whole-sequence embeddings."""
    n_classes = int(max(fit[1].max(), test[1].max())) + 1
    return eval_from_matrices(*fit, *test, max(n_classes, 2), probe_cfg, seed)


def local_window_dataset(clients: Sequence[ClientSequence],
                         window_embeddings: Sequence[WindowEmbeddings]) -> Data:
    """Window embeddings paired with the label of each window's last txn."""
    xs, ys = [], []
    for seq, emb in zip(clients, window_embeddings):
        if len(emb) == 0:
            continue
        if seq.local_labels is None:
            raise ValueError(f"client {seq.client_id}: no local labels")
        xs.append(emb.matrix)
        ys.append(seq.local_labels[emb.ends - 1])
    if not xs:
        raise ValueError("no client is as long as a window; no windows to score")
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def eval_local_binary(fit: Data, test: Data,
                      probe_cfg: Optional[ProbeConfig] = None,
                      seed: int = 0) -> dict[str, float]:
    """Window-level binary state classification."""
    return eval_from_matrices(*fit, *test, 2, probe_cfg, seed)


def next_code_dataset(clients: Sequence[ClientSequence],
                      window_embeddings: Sequence[WindowEmbeddings],
                      n_codes: int) -> Data:
    """Window embeddings labeled with the following transaction's code.

    Labels are vocabulary indices shifted down by one (index 1 -> class 0).
    Windows whose target is the out-of-vocabulary bucket are skipped.
    """
    if n_codes is None or n_codes < 2:
        raise ValueError("need at least two code classes")
    xs, ys = [], []
    for seq, emb in zip(clients, window_embeddings):
        if len(emb) == 0:
            continue
        keep = emb.ends < len(seq)
        if not np.any(keep):
            continue
        targets = seq.mcc_idx[emb.ends[keep]]
        in_vocab = (targets >= 1) & (targets <= n_codes)
        if not np.any(in_vocab):
            continue
        xs.append(emb.matrix[keep][in_vocab])
        ys.append(targets[in_vocab] - 1)
    if not xs:
        raise ValueError("no windows with an in-vocabulary next code")
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def eval_next_mcc(fit: Data, test: Data, n_codes: int,
                  probe_cfg: Optional[ProbeConfig] = None,
                  seed: int = 0) -> dict[str, float]:
    """Next-transaction code prediction from window embeddings."""
    return eval_from_matrices(*fit, *test, n_codes, probe_cfg, seed)
