"""Synthetic transaction streams with planted local, global, and shared structure.

Each client follows a per-regime Markov chain over MCC codes. The planted
signals, each tunable from config:

* local: next-code structure from the per-regime transition rows;
* global: the client's base regime drives its global label;
* change points: some clients switch to a new regime (possibly the designated
  "distress" regime, which also sets post-switch local labels) at a recorded
  index;
* shared: a dataset-wide two-state exogenous process perturbs every client's
  transitions and amounts while active, and change points prefer to land
  inside active periods, so the population state carries information a single
  client's window does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .types import ClientSequence, Dataset

__all__ = ["SyntheticConfig", "generate_synthetic"]

DAY_SECONDS = 86400.0


@dataclass
class SyntheticConfig:
    n_clients: int = 1000
    length_min: int = 100
    length_max: int = 300
    n_mcc: int = 20
    n_regimes: int = 5
    label_coupling: float = 0.9
    transition_sharpness: float = 0.12
    exo_switch_rate: float = 1.0 / 45.0
    exo_strength: float = 0.25
    cp_probability: float = 0.3
    cp_distress_prob: float = 0.5
    distress_blend: float = 0.6
    amount_sigma: float = 0.6
    distress_amount_shift: float = -0.4
    exo_amount_shift: float = 0.15
    refund_prob: float = 0.03
    gap_mean_days: float = 1.0
    start_window_days: float = 30.0
    base_time: int = 1577836800
    seed: int = 0
    transition_matrices: Optional[np.ndarray] = None


def _validate_matrices(mats: np.ndarray, n_mcc: int) -> np.ndarray:
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != n_mcc or mats.shape[2] != n_mcc:
        raise ValueError(
            f"transition matrices must have shape (R, {n_mcc}, {n_mcc}), got {mats.shape}"
        )
    if np.any(mats < 0):
        raise ValueError("transition matrices contain negative entries")
    rows = mats.sum(axis=2)
    if not np.allclose(rows, 1.0, atol=1e-9):
        raise ValueError("transition matrix rows must sum to 1")
    return mats


def _random_stochastic(rng: np.random.Generator, n_rows: int, n_cols: int,
                       sharpness: float) -> np.ndarray:
    alpha = np.full(n_cols, max(sharpness, 1e-3))
    rows = rng.dirichlet(alpha, size=n_rows)
    # Floor keeps every row ergodic so bigram statistics stay estimable.
    rows = 0.97 * rows + 0.03 / n_cols
    return rows / rows.sum(axis=1, keepdims=True)


def _exo_switch_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Alternating-state switch times (seconds) of the shared process."""
    if rate <= 0:
        return np.empty(0, dtype=np.float64)
    times = []
    t = 0.0
    mean_sojourn = 1.0 / rate * DAY_SECONDS
    while True:
        t += rng.exponential(mean_sojourn)
        if t >= horizon:
            break
        times.append(t)
    return np.asarray(times, dtype=np.float64)


def generate_synthetic(config: SyntheticConfig, seed: Optional[int] = None) -> Dataset:
    """Generate a Dataset as a pure function of (config, seed)."""
    if seed is None:
        seed = config.seed
    if config.n_mcc < 2:
        raise ValueError("need at least 2 MCC codes")
    if config.n_regimes < 2:
        raise ValueError("need at least 2 regimes (one base plus distress)")
    if not 0 <= config.label_coupling <= 1:
        raise ValueError("label coupling must lie in [0, 1]")
    if config.length_min < 2 or config.length_max < config.length_min:
        raise ValueError(
            f"bad length range ({config.length_min}, {config.length_max})"
        )

    rng = np.random.default_rng(seed)
    m = config.n_mcc
    n_regimes = config.n_regimes
    distress = n_regimes - 1
    codes = 4000 + np.arange(m, dtype=np.int64)

    if config.transition_matrices is not None:
        mats = _validate_matrices(config.transition_matrices, m)
        if mats.shape[0] != n_regimes:
            raise ValueError(
                f"got {mats.shape[0]} transition matrices for {n_regimes} regimes"
            )
    else:
        mats = np.stack(
            [_random_stochastic(rng, m, m, config.transition_sharpness)
             for _ in range(n_regimes)]
        )
    exo_matrix = _random_stochastic(rng, m, m, config.transition_sharpness)
    log_mu = rng.normal(3.0, 0.8, size=m)

    horizon = (config.start_window_days
               + (config.length_max + 1) * config.gap_mean_days * 8.0) * DAY_SECONDS
    switch_times = _exo_switch_times(rng, config.exo_switch_rate, horizon)

    def exo_state(ts: np.ndarray) -> np.ndarray:
        if len(switch_times) == 0:
            return np.zeros(len(ts), dtype=np.int64)
        return np.searchsorted(switch_times, ts.astype(np.float64)) % 2

    n_base = n_regimes - 1
    width = len(str(max(config.n_clients - 1, 1)))
    clients = []
    for ci in range(config.n_clients):
        length = int(rng.integers(config.length_min, config.length_max + 1))
        base = int(rng.integers(n_base))

        group = 1 if base >= n_base / 2 else 0
        label = group if rng.random() < (1.0 + config.label_coupling) / 2.0 else 1 - group

        start = config.base_time + rng.uniform(0.0, config.start_window_days * DAY_SECONDS)
        gaps = rng.exponential(config.gap_mean_days * DAY_SECONDS, size=length - 1)
        gaps = np.maximum(np.round(gaps), 1.0)
        ts = (start + np.concatenate([[0.0], np.cumsum(gaps)])).astype(np.int64)
        exo = exo_state(ts)

        tau: Optional[int] = None
        target: Optional[int] = None
        if rng.random() < config.cp_probability:
            lo, hi = length // 4, (3 * length) // 4
            candidates = np.arange(lo, hi)
            active = candidates[exo[candidates] == 1]
            pool = active if len(active) > 0 else candidates
            tau = int(pool[rng.integers(len(pool))])
            if rng.random() < config.cp_distress_prob:
                target = distress
            else:
                others = [r for r in range(n_base) if r != base]
                target = int(others[rng.integers(len(others))]) if others else distress

        blend = config.distress_blend
        post_mat = None
        if tau is not None:
            post_mat = (1.0 - blend) * mats[base] + blend * mats[target]

        beta = config.exo_strength
        plain_cum = {}
        exo_cum = {}
        plain_cum[0] = np.cumsum(mats[base], axis=1)
        exo_cum[0] = np.cumsum((1.0 - beta) * mats[base] + beta * exo_matrix, axis=1)
        if post_mat is not None:
            plain_cum[1] = np.cumsum(post_mat, axis=1)
            exo_cum[1] = np.cumsum((1.0 - beta) * post_mat + beta * exo_matrix, axis=1)

        mcc_ix = np.empty(length, dtype=np.int64)
        mcc_ix[0] = rng.integers(m)
        u = rng.random(length - 1)
        for j in range(1, length):
            phase = 1 if (tau is not None and j >= tau) else 0
            table = exo_cum[phase] if exo[j] == 1 else plain_cum[phase]
            mcc_ix[j] = np.searchsorted(table[mcc_ix[j - 1]], u[j - 1], side="right")
        mcc_ix = np.minimum(mcc_ix, m - 1)

        in_distress = np.zeros(length, dtype=bool)
        if tau is not None and target == distress:
            in_distress[tau:] = True
        shift = (config.distress_amount_shift * in_distress
                 + config.exo_amount_shift * (exo == 1))
        amounts = np.exp(log_mu[mcc_ix] + shift
                         + rng.normal(0.0, config.amount_sigma, size=length))
        refunds = rng.random(length) < config.refund_prob
        amounts = np.where(refunds, -amounts, amounts)

        local = np.zeros(length, dtype=np.int64)
        if tau is not None and target == distress:
            local[tau:] = 1

        clients.append(
            ClientSequence(
                client_id=f"c{ci:0{width}d}",
                timestamps=ts,
                mcc=codes[mcc_ix],
                amounts=amounts,
                global_label=int(label),
                local_labels=local,
                change_point=tau,
            )
        )
    return Dataset(clients)
