"""Task evaluation protocol for frozen encoders.

Three tasks, all probed with small classifiers over fixed embeddings:

* global: one vector per client, client-level label, probe fit on the train
  and validation splits together, scored on test.
* local binary: sliding-window vectors, window labeled by the state of its
  last transaction, probe fit on train windows only.
* next code: sliding-window vectors, label is the code of the transaction
  immediately after the window; windows at the sequence end and windows whose
  target falls outside the known vocabulary are dropped.

Optional `augment` hooks let callers widen embeddings (e.g. with pooled
context from other clients) without the protocol knowing how.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..data.types import ClientSequence
from ..encoders import embed_pooled
from ..objectives.sampling import pad_batch
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
    "global_embeddings",
    "eval_from_matrices",
    "eval_global",
    "local_window_dataset",
    "eval_local_binary",
    "next_code_dataset",
    "eval_next_mcc",
]

GlobalAugment = Callable[[Sequence[ClientSequence], np.ndarray], np.ndarray]
WindowAugment = Callable[[list[WindowEmbeddings]], list[WindowEmbeddings]]


@dataclass
class FrozenModel:
    """Minimal encoder + pooling bundle the protocol understands."""

    encoder: object
    pool_strategy: str


def global_embeddings(model, clients: Sequence[ClientSequence],
                      chunk: int = 64) -> np.ndarray:
    """One pooled vector per client, in the given client order."""
    if not clients:
        raise ValueError("no clients to embed")
    encoder = model.encoder
    order = np.argsort([-len(c) for c in clients], kind="stable")
    out = np.zeros((len(clients), encoder.hidden))
    for lo in range(0, len(order), chunk):
        idx = order[lo : lo + chunk]
        parts = []
        for i in idx:
            seq = clients[i]
            if seq.mcc_idx is None:
                raise ValueError(f"client {seq.client_id}: vocabulary not applied")
            parts.append((seq.mcc_idx, seq.amounts_t))
        out[idx] = embed_pooled(encoder, *pad_batch(parts), model.pool_strategy)
    return out


def eval_from_matrices(fit_x: np.ndarray, fit_y: np.ndarray,
                       test_x: np.ndarray, test_y: np.ndarray,
                       n_classes: int, probe_cfg: Optional[ProbeConfig] = None,
                       seed: int = 0) -> dict[str, float]:
    """Fit a probe on one matrix, score it on another."""
    probe = MlpProbe(fit_x.shape[1], n_classes, probe_cfg, seed)
    probe.fit(fit_x, fit_y, seed)
    return classification_metrics(test_y, probe.predict_proba(test_x))


def _global_labels(clients: Sequence[ClientSequence]) -> np.ndarray:
    labels = []
    for c in clients:
        if c.global_label is None:
            raise ValueError(f"client {c.client_id}: no global label")
        labels.append(c.global_label)
    return np.asarray(labels, dtype=np.int64)


def eval_global(model, train_clients, val_clients, test_clients,
                probe_cfg: Optional[ProbeConfig] = None, seed: int = 0,
                augment: Optional[GlobalAugment] = None) -> dict[str, float]:
    """Client-level classification from pooled whole-sequence embeddings."""
    fit_clients = list(train_clients) + list(val_clients)
    if not fit_clients or not test_clients:
        raise ValueError("need non-empty fit and test splits")
    fit_x = global_embeddings(model, fit_clients)
    test_x = global_embeddings(model, test_clients)
    if augment is not None:
        fit_x = augment(fit_clients, fit_x)
        test_x = augment(list(test_clients), test_x)
    fit_y = _global_labels(fit_clients)
    test_y = _global_labels(test_clients)
    n_classes = int(max(fit_y.max(), test_y.max())) + 1
    return eval_from_matrices(fit_x, fit_y, test_x, test_y,
                              max(n_classes, 2), probe_cfg, seed)


def local_window_dataset(model, clients: Sequence[ClientSequence],
                         window: int = DEFAULT_WINDOW,
                         stride: int = DEFAULT_STRIDE,
                         augment: Optional[WindowAugment] = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Window embeddings paired with the label of each window's last txn."""
    embs = sliding_window_embed_many(model.encoder, list(clients), window,
                                     stride, model.pool_strategy)
    if augment is not None:
        embs = augment(embs)
    xs, ys = [], []
    for seq, emb in zip(clients, embs):
        if len(emb) == 0:
            continue
        if seq.local_labels is None:
            raise ValueError(f"client {seq.client_id}: no local labels")
        xs.append(emb.matrix)
        ys.append(seq.local_labels[emb.ends - 1])
    if not xs:
        raise ValueError(f"no client has {window} transactions; no windows to score")
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def eval_local_binary(model, train_clients, test_clients,
                      window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                      probe_cfg: Optional[ProbeConfig] = None, seed: int = 0,
                      augment: Optional[WindowAugment] = None) -> dict[str, float]:
    """Window-level binary state classification."""
    fit_x, fit_y = local_window_dataset(model, train_clients, window, stride, augment)
    test_x, test_y = local_window_dataset(model, test_clients, window, stride, augment)
    return eval_from_matrices(fit_x, fit_y, test_x, test_y, 2, probe_cfg, seed)


def next_code_dataset(model, clients: Sequence[ClientSequence], n_codes: int,
                      window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                      augment: Optional[WindowAugment] = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Window embeddings labeled with the following transaction's code.

    Labels are vocabulary indices shifted down by one (index 1 -> class 0).
    Windows whose target is the out-of-vocabulary bucket are skipped.
    """
    if n_codes < 2:
        raise ValueError("need at least two code classes")
    embs = sliding_window_embed_many(model.encoder, list(clients), window,
                                     stride, model.pool_strategy)
    if augment is not None:
        embs = augment(embs)
    xs, ys = [], []
    for seq, emb in zip(clients, embs):
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


def eval_next_mcc(model, train_clients, test_clients, n_codes: int,
                  window: int = DEFAULT_WINDOW, stride: int = DEFAULT_STRIDE,
                  probe_cfg: Optional[ProbeConfig] = None, seed: int = 0,
                  augment: Optional[WindowAugment] = None) -> dict[str, float]:
    """Next-transaction code prediction from window embeddings."""
    fit_x, fit_y = next_code_dataset(model, train_clients, n_codes, window,
                                     stride, augment)
    test_x, test_y = next_code_dataset(model, test_clients, n_codes, window,
                                       stride, augment)
    return eval_from_matrices(fit_x, fit_y, test_x, test_y, n_codes,
                              probe_cfg, seed)
