"""Frozen-representation probes and multi-seed aggregation.

A probe is a small two-layer classifier trained on fixed embedding matrices.
Probes never touch the encoder, so probe quality measures the representation,
not further feature learning. `run_seeds` evaluates one function per seed
and collects the results in seed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..encoders import Linear
from ..nn import Adam, Tape, Tensor, relu, softmax
from ..objectives.losses import cross_entropy
from ..objectives.train import named_grads

__all__ = [
    "ProbeConfig",
    "MlpProbe",
    "MetricReport",
    "run_seeds",
]


@dataclass
class ProbeConfig:
    hidden: int = 128
    epochs: int = 10
    batch_size: int = 512
    lr: float = 1e-3

    def __post_init__(self):
        if self.hidden < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("probe sizes and epochs must be positive")


class MlpProbe:
    """Two-layer softmax classifier over fixed input vectors."""

    def __init__(self, d_in: int, n_classes: int,
                 config: ProbeConfig | None = None, seed: int = 0):
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        self.config = config or ProbeConfig()
        self.n_classes = n_classes
        rng = np.random.default_rng((seed, 23))
        self.fc1 = Linear(rng, d_in, self.config.hidden, "probe/fc1")
        self.fc2 = Linear(rng, self.config.hidden, n_classes, "probe/fc2")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.fc1.parameters() + self.fc2.parameters()

    def _logits(self, x: np.ndarray) -> Tensor:
        return self.fc2(relu(self.fc1(Tensor(x))))

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "MlpProbe":
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, d) aligned with labels")
        if len(x) == 0:
            raise ValueError("cannot fit a probe on zero examples")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError("labels outside configured class range")
        cfg = self.config
        named = self.parameters()
        names = [n for n, _ in named]
        optimizer = Adam([p for _, p in named], lr=cfg.lr)
        rng = np.random.default_rng((seed, 29))
        onehot = np.zeros((len(y), self.n_classes))
        onehot[np.arange(len(y)), y] = 1.0
        for _ in range(cfg.epochs):
            order = rng.permutation(len(x))
            for lo in range(0, len(x), cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                with Tape() as tape:
                    loss = cross_entropy(self._logits(x[idx]), onehot[idx])
                grads = named_grads(self, tape, loss)
                optimizer.step([grads[n] for n in names])
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        return softmax(self._logits(x).data)


@dataclass
class MetricReport:
    """Per-seed metric dictionaries plus mean/std aggregation."""

    per_seed: dict[int, dict[str, float]] = field(default_factory=dict)

    def add(self, seed: int, metrics: dict[str, float]) -> None:
        self.per_seed[int(seed)] = dict(metrics)

    def _keys(self) -> list[str]:
        keys = set()
        for m in self.per_seed.values():
            keys.update(m)
        return sorted(keys)

    def mean(self) -> dict[str, float]:
        return {
            k: float(np.mean([m[k] for m in self.per_seed.values() if k in m]))
            for k in self._keys()
        }

    def std(self) -> dict[str, float]:
        return {
            k: float(np.std([m[k] for m in self.per_seed.values() if k in m]))
            for k in self._keys()
        }

    def summary(self) -> dict:
        return {
            "seeds": sorted(self.per_seed),
            "per_seed": {str(s): self.per_seed[s] for s in sorted(self.per_seed)},
            "mean": self.mean(),
            "std": self.std(),
        }


def run_seeds(fn: Callable[[int], dict[str, float]],
              seeds: Sequence[int]) -> MetricReport:
    """Evaluate `fn(seed)` for every seed, in order."""
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seeds")
    report = MetricReport()
    for s in seeds:
        report.add(s, fn(s))
    return report
