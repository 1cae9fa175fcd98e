"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tape, Tensor, backward

__all__ = ["grad_check"]

EPS_MACHINE = float(np.finfo(np.float64).eps)


def grad_check(
    fn: Callable[..., Tensor],
    points: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape and central-difference gradients.

    `fn` maps one Tensor per entry of `points` to a scalar Tensor. The tape
    gradient is compared coordinate-by-coordinate against
    (f(x+eps) - f(x-eps)) / (2 eps). Relative error uses
    |a - n| / max(|a|, |n|, 1e-6), so a constant function scores 0. The part
    of |a - n| within the difference's own rounding bound,
    4 eps_machine max(|f(x+eps)|, |f(x-eps)|) / (2 eps), is not counted: a
    gradient near zero would otherwise fail on rounding alone.
    """
    arrays = [np.asarray(p, dtype=np.float64) for p in points]
    with Tape() as tape:
        xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = fn(*xs)
        if loss.size != 1:
            raise ValueError(f"grad_check needs a scalar function, got {loss.shape}")
        analytic = backward(tape, loss, xs)

    def eval_at(vals: list[np.ndarray]) -> float:
        return fn(*[Tensor(v) for v in vals]).item()

    worst = 0.0
    for i, a in enumerate(arrays):
        flat = a.reshape(-1)
        ana = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = eval_at(arrays)
            flat[j] = orig - eps
            down = eval_at(arrays)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            rounding = 4.0 * EPS_MACHINE * max(abs(up), abs(down)) / (2.0 * eps)
            excess = max(abs(ana[j] - numeric) - rounding, 0.0)
            err = excess / max(abs(ana[j]), abs(numeric), 1e-6)
            if err > worst:
                worst = err
    return worst
