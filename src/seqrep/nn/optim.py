"""Bias-corrected Adam on the float64 arrays of parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = ["Adam"]


class Adam:
    """Optimizer bound to a fixed, ordered list of parameter tensors.

    Parameters are visited in list order, so the update sequence is
    deterministic. A zero gradient leaves the matching parameter unchanged
    on the first step (bias correction cancels).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        """One update of every parameter from its gradient, in list order."""
        if len(self.params) != len(grads):
            raise ShapeError(
                f"Adam.step got {len(self.params)} params but {len(grads)} grads"
            )
        for p, g in zip(self.params, grads):
            if p.data.shape != g.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter {p.data.shape}"
                )
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
