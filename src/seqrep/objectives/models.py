"""One model class per pretraining objective.

Each model owns its parameters, turns a client list into materialized
batches (all randomness lives there), and maps a batch to a scalar loss
tensor on the active tape. Evaluation code only touches `encoder` and
`pool_strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..data.types import ClientSequence
from ..encoders import (
    POOL_STRATEGIES,
    EncoderConfig,
    GruCore,
    GruEncoder,
    Linear,
    TransformerEncoder,
    embed_batch,
    pool_batch,
)
from ..nn import Tensor, matmul, relu, reshape
from .losses import (
    contrastive_loss,
    cross_entropy,
    masked_joint_loss,
    normalize_rows,
    ts2vec_hierarchical_loss,
)
from .sampling import coles_sample_subsequences, mlm_corrupt, pad_batch

__all__ = [
    "TrainConfig",
    "OBJECTIVES",
    "SupervisedModel",
    "ColesModel",
    "Ts2VecModel",
    "ArModel",
    "AeModel",
    "MlmModel",
    "build_model",
]

OBJECTIVES = ("supervised", "coles", "ts2vec", "ae", "mlm", "ar")


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-3
    max_len: int = 100
    pool: str = "auto"
    margin: float = 0.5
    slices_per_client: int = 5
    slice_min: int = 15
    slice_max: int = 50
    clients_per_batch: int = 16
    ts2vec_overlap_min: int = 8
    ts2vec_overlap_max: int = 40
    ts2vec_extend_max: int = 24
    ts2vec_alpha: float = 0.5
    mlm_select_p: float = 0.1
    mlm_mask_p: float = 0.8
    mlm_swap_p: float = 0.1
    ce_weight: float = 5.0
    mse_weight: float = 1.0
    head_hidden: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size < 1 or self.clients_per_batch < 1:
            raise ValueError("batch sizes must be positive")
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")
        if self.pool != "auto" and self.pool not in POOL_STRATEGIES:
            raise ValueError(f"train.pool must be 'auto' or one of {POOL_STRATEGIES}, "
                             f"got {self.pool!r}")

    @property
    def mlm_action_probs(self) -> tuple[float, float, float]:
        keep = 1.0 - self.mlm_mask_p - self.mlm_swap_p
        if keep < -1e-9:
            raise ValueError("mask and swap probabilities exceed 1")
        return (self.mlm_mask_p, self.mlm_swap_p, max(keep, 0.0))

    @property
    def joint_weights(self) -> tuple[float, float]:
        return (self.ce_weight, self.mse_weight)


def _resolve_pool(objective: str, pool: str) -> str:
    if pool != "auto":
        return pool
    if objective == "mlm":
        return "first_token"
    if objective == "ts2vec":
        return "max"
    return "last"


def _shuffled_chunks(n: int, size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + size] for i in range(0, n, size)]


def _crop(seq: ClientSequence, max_len: int, rng: np.random.Generator,
          anchor: str = "random") -> tuple[np.ndarray, np.ndarray]:
    t = len(seq)
    if seq.mcc_idx is None:
        raise ValueError(f"client {seq.client_id}: vocabulary not applied")
    if t <= max_len:
        return seq.mcc_idx, seq.amounts_t
    if anchor == "tail":
        start = t - max_len
    else:
        start = int(rng.integers(0, t - max_len + 1))
    return seq.mcc_idx[start : start + max_len], seq.amounts_t[start : start + max_len]


class _Objective:
    """Shared plumbing: one encoder of `encoder_class`, and its pooling."""

    objective = "base"
    encoder_class = GruEncoder

    def __init__(self, encoder_cfg: EncoderConfig, cfg: TrainConfig, seed: int):
        self.cfg = cfg
        self.encoder = self.encoder_class(encoder_cfg, seed=seed)
        self.pool_strategy = _resolve_pool(self.objective, cfg.pool)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.encoder.parameters()


class SupervisedModel(_Objective):
    """GRU, pooled state, two-layer perceptron over class logits."""

    objective = "supervised"

    def __init__(self, encoder_cfg: EncoderConfig, cfg: TrainConfig, seed: int,
                 n_classes: int):
        super().__init__(encoder_cfg, cfg, seed)
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        self.n_classes = n_classes
        rng = np.random.default_rng((seed, 1))
        d = encoder_cfg.hidden
        self.fc1 = Linear(rng, d, cfg.head_hidden, "head/fc1")
        self.fc2 = Linear(rng, cfg.head_hidden, n_classes, "head/fc2")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return super().parameters() + self.fc1.parameters() + self.fc2.parameters()

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        labeled = [c for c in clients if c.global_label is not None]
        if not labeled:
            raise ValueError("supervised objective needs global labels")
        batches = []
        for chunk in _shuffled_chunks(len(labeled), self.cfg.batch_size, rng):
            parts = [_crop(labeled[i], self.cfg.max_len, rng, anchor="tail") for i in chunk]
            mcc, amt, lengths = pad_batch(parts)
            labels = np.array([labeled[i].global_label for i in chunk], dtype=np.int64)
            batches.append({"mcc": mcc, "amt": amt, "lengths": lengths, "labels": labels})
        return batches

    def loss(self, batch: dict) -> Tensor:
        hidden, _ = self.encoder.forward(batch["mcc"], batch["amt"])
        pooled = pool_batch(hidden, batch["lengths"], self.pool_strategy)
        logits = self.fc2(relu(self.fc1(pooled)))
        n, v = logits.shape
        onehot = np.zeros((n, v))
        onehot[np.arange(n), batch["labels"]] = 1.0
        return cross_entropy(logits, onehot)


class ColesModel(_Objective):
    """Contrastive slices: same client together, different clients apart."""

    objective = "coles"

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        batches = []
        for chunk in _shuffled_chunks(len(clients), self.cfg.clients_per_batch, rng):
            subset = [clients[i] for i in chunk]
            samples = coles_sample_subsequences(
                subset,
                n_slices=self.cfg.slices_per_client,
                length_range=(self.cfg.slice_min, self.cfg.slice_max),
                seed=rng,
            )
            if len({s.client_index for s in samples}) < 2:
                continue
            parts = []
            ids = []
            for s in samples:
                seq = subset[s.client_index]
                if seq.mcc_idx is None:
                    raise ValueError(f"client {seq.client_id}: vocabulary not applied")
                parts.append((seq.mcc_idx[s.start : s.end], seq.amounts_t[s.start : s.end]))
                ids.append(seq.client_id)
            mcc, amt, lengths = pad_batch(parts)
            batches.append({"mcc": mcc, "amt": amt, "lengths": lengths,
                            "ids": np.array(ids)})
        if not batches:
            raise ValueError("no usable contrastive batches (clients too short?)")
        return batches

    def loss(self, batch: dict) -> Tensor:
        hidden, _ = self.encoder.forward(batch["mcc"], batch["amt"])
        pooled = pool_batch(hidden, batch["lengths"], "last")
        pooled = normalize_rows(pooled)
        return contrastive_loss(pooled, batch["ids"], margin=self.cfg.margin)


class Ts2VecModel(_Objective):
    """Two overlapping crops per client, hierarchical consistency loss."""

    objective = "ts2vec"

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        usable = [c for c in clients if len(c) >= 2]
        if not usable:
            raise ValueError("no clients long enough for crop pairs")
        batches = []
        for chunk in _shuffled_chunks(len(usable), self.cfg.clients_per_batch, rng):
            subset = [usable[i] for i in chunk]
            min_len = min(len(c) for c in subset)
            o_hi = max(2, min(self.cfg.ts2vec_overlap_max, min_len))
            o_lo = min(self.cfg.ts2vec_overlap_min, o_hi)
            t_o = int(rng.integers(o_lo, o_hi + 1))
            parts1, parts2, off1, off2 = [], [], [], []
            for seq in subset:
                if seq.mcc_idx is None:
                    raise ValueError(f"client {seq.client_id}: vocabulary not applied")
                t = len(seq)
                o1 = int(rng.integers(0, t - t_o + 1))
                o2 = o1 + t_o
                ext = self.cfg.ts2vec_extend_max
                a1 = int(rng.integers(max(0, o1 - ext), o1 + 1))
                b2 = int(rng.integers(o2, min(t, o2 + ext) + 1))
                parts1.append((seq.mcc_idx[a1:o2], seq.amounts_t[a1:o2]))
                parts2.append((seq.mcc_idx[o1:b2], seq.amounts_t[o1:b2]))
                off1.append(o1 - a1)
                off2.append(0)
            mcc1, amt1, len1 = pad_batch(parts1)
            mcc2, amt2, len2 = pad_batch(parts2)
            batches.append({
                "mcc1": mcc1, "amt1": amt1, "len1": len1, "off1": np.array(off1),
                "mcc2": mcc2, "amt2": amt2, "len2": len2, "off2": np.array(off2),
                "t_o": t_o,
            })
        return batches

    @staticmethod
    def _select_overlap(hidden: Tensor, offsets: np.ndarray, t_o: int) -> Tensor:
        b, length, d = hidden.shape
        sel = np.zeros((b, t_o, length))
        for i, off in enumerate(offsets):
            sel[i, np.arange(t_o), off + np.arange(t_o)] = 1.0
        return matmul(Tensor(sel), hidden)

    def loss(self, batch: dict) -> Tensor:
        h1, _ = self.encoder.forward(batch["mcc1"], batch["amt1"])
        h2, _ = self.encoder.forward(batch["mcc2"], batch["amt2"])
        z1 = self._select_overlap(h1, batch["off1"], batch["t_o"])
        z2 = self._select_overlap(h2, batch["off2"], batch["t_o"])
        return ts2vec_hierarchical_loss(z1, z2, alpha=self.cfg.ts2vec_alpha)


class _PredictionHeads:
    """Linear code/amount readouts shared by the generative objectives."""

    def __init__(self, rng: np.random.Generator, d: int, n_codes: int, prefix: str):
        self.mcc = Linear(rng, d, n_codes, f"{prefix}/mcc")
        self.amount = Linear(rng, d, 1, f"{prefix}/amount")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.mcc.parameters() + self.amount.parameters()


class ArModel(_Objective):
    """Next-transaction prediction from the causal hidden state."""

    objective = "ar"

    def __init__(self, encoder_cfg: EncoderConfig, cfg: TrainConfig, seed: int):
        super().__init__(encoder_cfg, cfg, seed)
        rng = np.random.default_rng((seed, 2))
        self.heads = _PredictionHeads(rng, encoder_cfg.hidden, encoder_cfg.n_indices, "head")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return super().parameters() + self.heads.parameters()

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        usable = [c for c in clients if len(c) >= 2]
        if not usable:
            raise ValueError("next-step objective needs length >= 2")
        batches = []
        for chunk in _shuffled_chunks(len(usable), self.cfg.batch_size, rng):
            crops = [_crop(usable[i], self.cfg.max_len, rng) for i in chunk]
            # Feed positions 0..T-2; the final transaction is only a target.
            inputs = [(m[:-1], a[:-1]) for m, a in crops]
            mcc, amt, lengths = pad_batch(inputs)
            b, width = mcc.shape
            tgt_mcc = np.zeros((b, width), dtype=np.int64)
            tgt_amt = np.zeros((b, width))
            for i, (m, a) in enumerate(crops):
                tgt_mcc[i, : len(m) - 1] = m[1:]
                tgt_amt[i, : len(a) - 1] = a[1:]
            valid = np.arange(width)[None, :] < lengths[:, None]
            batches.append({"mcc": mcc, "amt": amt, "valid": valid,
                            "tgt_mcc": tgt_mcc, "tgt_amt": tgt_amt})
        return batches

    def loss(self, batch: dict) -> Tensor:
        hidden, _ = self.encoder.forward(batch["mcc"], batch["amt"])
        logits = self.heads.mcc(hidden)
        amounts = self.heads.amount(hidden)
        return masked_joint_loss(
            logits, amounts, batch["tgt_mcc"], batch["tgt_amt"], batch["valid"],
            weights=self.cfg.joint_weights,
        )


class AeModel(_Objective):
    """Sequence autoencoder: pooled state seeds a double-width decoder."""

    objective = "ae"

    def __init__(self, encoder_cfg: EncoderConfig, cfg: TrainConfig, seed: int):
        super().__init__(encoder_cfg, cfg, seed)
        rng = np.random.default_rng((seed, 3))
        d = encoder_cfg.hidden
        self.bridge = Linear(rng, d, 2 * d, "dec/bridge")
        self.decoder = GruCore(rng, encoder_cfg.input_width, 2 * d)
        self.heads = _PredictionHeads(rng, 2 * d, encoder_cfg.n_indices, "dec/head")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return (super().parameters() + self.bridge.parameters()
                + self.decoder.parameters("dec/gru") + self.heads.parameters())

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        batches = []
        for chunk in _shuffled_chunks(len(clients), self.cfg.batch_size, rng):
            crops = [_crop(clients[i], self.cfg.max_len, rng) for i in chunk]
            mcc, amt, lengths = pad_batch(crops)
            valid = np.arange(mcc.shape[1])[None, :] < lengths[:, None]
            batches.append({"mcc": mcc, "amt": amt, "lengths": lengths, "valid": valid})
        return batches

    def loss(self, batch: dict) -> Tensor:
        mcc, amt, lengths = batch["mcc"], batch["amt"], batch["lengths"]
        b, width = mcc.shape
        hidden, _ = self.encoder.forward(mcc, amt)
        pooled = pool_batch(hidden, lengths, "last")
        h0 = self.bridge(pooled)
        # Teacher forcing: the decoder sees the true previous transaction.
        dec_mcc = np.zeros_like(mcc)
        dec_mcc[:, 1:] = mcc[:, :-1]
        dec_amt = np.zeros_like(amt)
        dec_amt[:, 1:] = amt[:, :-1]
        x = embed_batch(self.encoder.emb_table, dec_mcc, dec_amt)
        states = self.decoder.scan(x, h0=h0)
        logits = self.heads.mcc(states)
        amounts = self.heads.amount(states)
        return masked_joint_loss(
            logits, amounts, mcc, amt, batch["valid"], weights=self.cfg.joint_weights
        )


class MlmModel(_Objective):
    """Masked reconstruction with the bidirectional attention encoder."""

    objective = "mlm"
    encoder_class = TransformerEncoder

    def __init__(self, encoder_cfg: EncoderConfig, cfg: TrainConfig, seed: int):
        super().__init__(encoder_cfg, cfg, seed)
        rng = np.random.default_rng((seed, 4))
        self.heads = _PredictionHeads(rng, encoder_cfg.hidden, encoder_cfg.n_indices, "head")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return super().parameters() + self.heads.parameters()

    def iter_batches(self, clients: Sequence[ClientSequence],
                     rng: np.random.Generator) -> list[dict]:
        batches = []
        for chunk in _shuffled_chunks(len(clients), self.cfg.batch_size, rng):
            crops = [_crop(clients[i], self.cfg.max_len, rng) for i in chunk]
            mcc, amt, lengths = pad_batch(crops)
            valid = np.arange(mcc.shape[1])[None, :] < lengths[:, None]
            for _ in range(100):
                cor_mcc, cor_amt, plan = mlm_corrupt(
                    mcc, amt, valid, seed=rng,
                    select_p=self.cfg.mlm_select_p,
                    action_probs=self.cfg.mlm_action_probs,
                )
                if len(plan) > 0:
                    break
            else:
                raise ValueError("corruption selected no positions after 100 draws")
            batches.append({"mcc": cor_mcc, "amt": cor_amt, "lengths": lengths,
                            "plan": plan})
        return batches

    def loss(self, batch: dict) -> Tensor:
        plan = batch["plan"]
        hidden, _ = self.encoder.forward(batch["mcc"], batch["amt"], batch["lengths"])
        b, width, d = hidden.shape
        flat = reshape(hidden, (b * width, d))
        n = len(plan)
        sel = np.zeros((n, b * width))
        sel[np.arange(n), plan.rows * width + plan.cols] = 1.0
        picked = matmul(Tensor(sel), flat)
        # The picked positions form one all-valid row of the padded layout.
        logits = reshape(self.heads.mcc(picked), (1, n, -1))
        amounts = reshape(self.heads.amount(picked), (1, n, 1))
        return masked_joint_loss(
            logits, amounts, plan.original_mcc[None, :], plan.original_amt[None, :],
            np.ones((1, n), dtype=bool), weights=self.cfg.joint_weights,
        )


def build_model(objective: str, encoder_cfg: EncoderConfig, cfg: TrainConfig,
                seed: int, n_classes: Optional[int] = None):
    """The objective's model. It alone picks the encoder: masked reconstruction
    needs bidirectional attention (the transformer); every other objective
    runs on the causal GRU."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if objective == "supervised":
        if n_classes is None:
            raise ValueError("supervised objective needs n_classes")
        return SupervisedModel(encoder_cfg, cfg, seed, n_classes)
    if objective == "coles":
        return ColesModel(encoder_cfg, cfg, seed)
    if objective == "ts2vec":
        return Ts2VecModel(encoder_cfg, cfg, seed)
    if objective == "ar":
        return ArModel(encoder_cfg, cfg, seed)
    if objective == "ae":
        return AeModel(encoder_cfg, cfg, seed)
    return MlmModel(encoder_cfg, cfg, seed)
