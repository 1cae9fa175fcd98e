"""Objective-agnostic training loop.

A model supplies `parameters()`, `iter_batches(clients, rng)` and
`loss(batch)`; the embedding table's pinned row is kept at zero by
`encoders.zero_pinned_rows`. The loop runs Adam over materialized batches,
tracks a fixed validation loss every epoch, and restores the parameters from
the best validation epoch before returning. All randomness is derived from
the seed, so a rerun reproduces the run bit for bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..data.types import ClientSequence
from ..encoders import zero_pinned_rows
from ..nn import Adam, NonFiniteError, Tape, backward

__all__ = ["EpochStats", "TrainResult", "train"]

logger = logging.getLogger("seqrep.train")

# Distinct sub-streams of the training seed.
_BATCH_STREAM = 11
_VAL_STREAM = 17


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: Optional[float]
    seconds: float


@dataclass
class TrainResult:
    model: object
    history: list[EpochStats]
    best_epoch: int
    best_val: Optional[float]


def _mean_loss(model, batches: Sequence[dict]) -> float:
    total = 0.0
    for batch in batches:
        total += model.loss(batch).item()
    return total / len(batches)


def train(model, train_clients: Sequence[ClientSequence],
          val_clients: Sequence[ClientSequence], epochs: int, lr: float = 1e-3,
          seed: int = 0) -> TrainResult:
    """Fit `model` in place and return it with its training history."""
    if not train_clients:
        raise ValueError("no training clients")
    named = model.parameters()
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names in model")
    tensors = [p for _, p in named]
    optimizer = Adam(tensors, lr=lr)

    batch_rng = np.random.default_rng((seed, _BATCH_STREAM))
    val_batches = None
    if val_clients:
        val_batches = model.iter_batches(
            list(val_clients), np.random.default_rng((seed, _VAL_STREAM))
        )

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = -1
    best_snapshot: Optional[list[np.ndarray]] = None

    for epoch in range(epochs):
        t0 = time.perf_counter()
        batches = model.iter_batches(list(train_clients), batch_rng)
        running = 0.0
        for bi, batch in enumerate(batches):
            try:
                with Tape() as tape:
                    loss = model.loss(batch)
                grads = backward(tape, loss, tensors)
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"epoch {epoch} batch {bi}: {err}"
                ) from err
            zero_pinned_rows(dict(zip(names, grads)))
            optimizer.step(grads)
            running += loss.item()
        train_loss = running / len(batches)

        val_loss = None
        if val_batches:
            val_loss = _mean_loss(model, val_batches)
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_snapshot = [p.data.copy() for p in tensors]
        history.append(EpochStats(
            epoch=epoch, train_loss=train_loss, val_loss=val_loss,
            seconds=time.perf_counter() - t0,
        ))
        logger.info(
            "epoch %d train %.6f val %s (%.1fs)", epoch, train_loss,
            f"{val_loss:.6f}" if val_loss is not None else "-",
            history[-1].seconds,
        )

    if best_snapshot is not None:
        for p, data in zip(tensors, best_snapshot):
            p.data = data
        return TrainResult(model=model, history=history, best_epoch=best_epoch,
                           best_val=float(best_val))
    return TrainResult(model=model, history=history, best_epoch=epochs - 1,
                       best_val=None)
