"""Acceptance suite: one test per shipped guarantee, run in order.

1. Gradient correctness of every primitive and composite block.
2. Metric and change-point detectors match brute-force oracles.
3. Masked-corruption statistics hit their nominal rates.
4. Closed-form spot checks and aggregation identities.
5. Local/global trade-off between the AR and contrastive objectives.
6. Cross-client mean context improves local-state detection.
7. Change-point dynamics: splice distance curves and planted-point recall.
8. Every objective can overfit one batch; the pipeline is bit-deterministic.

Tests 5-7 regenerate data and retrain encoders from scratch at the stated
budgets, so this module doubles as an end-to-end soak test.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from seqrep.config import (
    config_from_values,
    default_config,
    make_encoder_config,
    make_probe_config,
)
from seqrep.context import aggregate_context, build_store, window_augmenter
from seqrep.data.types import transform_amount
from seqrep.encoders import EncoderConfig, TransformerEncoder, gru_cell, zero_pinned_rows
from seqrep.evaluation.cpd import detect_change_point
from seqrep.evaluation.metrics import accuracy, pr_auc, roc_auc
from seqrep.evaluation.protocol import EmbeddedSplits, eval_local_binary
from seqrep.nn import (
    Adam,
    Tape,
    Tensor,
    add,
    concat,
    divide,
    gather,
    grad_check,
    gru_scan,
    layer_norm,
    log_softmax,
    matmul,
    maximum,
    multiply,
    reduce_max,
    reduce_sum,
    relu,
    reshape,
    scalar_multiply,
    sigmoid,
    softmax_op,
    sqrt,
    subtract,
    take_slice,
    tanh,
    transpose,
)
from seqrep.objectives.models import OBJECTIVES, TrainConfig, build_model
from seqrep.objectives.sampling import mlm_corrupt
from seqrep.objectives.train import named_grads
from seqrep.pipeline import (
    build_context,
    compare_objectives,
    cpd_analysis,
    evaluate_model,
    load_dataset,
    prepare_splits,
    splice_analysis,
    train_model,
)
from seqrep.report import canonical_json
from conftest import small_config

GRAD_TOL = 1e-4
EPS = 1e-5
N_POINTS = 20


def _wsum(t: Tensor, r: np.ndarray) -> Tensor:
    return reduce_sum(multiply(t, Tensor(r)))


def _signed_away_from_zero(rng, shape, lo=0.1, hi=1.0):
    return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _distinct_rows(rng, rows, cols, spacing=1.0):
    """Rows whose entries are pairwise separated, so max is FD-safe."""
    base = np.tile(np.arange(cols) * spacing, (rows, 1))
    base = rng.permuted(base, axis=1)
    return base + rng.uniform(-0.2, 0.2, size=(rows, cols))


def _primitive_cases(rng):
    """One scalar composite per primitive, freshly drawn inputs.

    Every loss weight is drawn up front: the closures must be pure functions
    of their Tensor arguments or finite differences see a moving target.
    """
    r34 = rng.normal(size=(3, 4))
    r32 = rng.normal(size=(3, 2))
    r26 = rng.normal(size=(2, 6))
    r33 = rng.normal(size=(3, 3))
    r223 = rng.normal(size=(2, 2, 3))
    r3 = rng.normal(size=3)
    r43 = rng.normal(size=(4, 3))
    r35 = rng.normal(size=(3, 5))
    r36 = rng.normal(size=(3, 6))
    r232 = rng.normal(size=(2, 3, 2))
    cases = {
        "add": (lambda a, b: _wsum(add(a, b), r34),
                [rng.normal(size=(3, 4)), rng.normal(size=4)]),
        "subtract": (lambda a, b: _wsum(subtract(a, b), r34),
                     [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]),
        "multiply": (lambda a, b: _wsum(multiply(a, b), r34),
                     [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]),
        "scalar_multiply": (lambda a: _wsum(scalar_multiply(a, -2.5), r34),
                            [rng.normal(size=(3, 4))]),
        "divide": (lambda a, b: _wsum(divide(a, b), r34),
                   [rng.normal(size=(3, 4)), rng.uniform(1.0, 2.0, size=(3, 4))]),
        "matmul": (lambda a, b: _wsum(matmul(a, b), r32),
                   [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
        "tanh": (lambda a: _wsum(tanh(a), r34), [1.5 * rng.normal(size=(3, 4))]),
        "sigmoid": (lambda a: _wsum(sigmoid(a), r34),
                    [1.5 * rng.normal(size=(3, 4))]),
        "relu": (lambda a: _wsum(relu(a), r34),
                 [_signed_away_from_zero(rng, (3, 4))]),
        "sqrt": (lambda a: _wsum(sqrt(a), r34),
                 [rng.uniform(0.5, 3.0, size=(3, 4))]),
        "maximum": (lambda a, b: _wsum(maximum(a, b), r34),
                    [rng.normal(size=(3, 4)),
                     rng.normal(size=(3, 4))
                     + _signed_away_from_zero(rng, (3, 4), lo=0.3)]),
        "concat": (lambda a, b: _wsum(concat([a, b], axis=1), r26),
                   [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]),
        "slice": (lambda x: _wsum(take_slice(x, (slice(1, 4), slice(0, 5, 2))),
                                  r33),
                  [rng.normal(size=(4, 5))]),
        "gather": (lambda t: _wsum(gather(t, np.array([[0, 2], [5, 3]])), r223),
                   [rng.normal(size=(6, 3))]),
        "reduce_sum": (lambda x: _wsum(reduce_sum(x, axis=1), r3),
                       [rng.normal(size=(3, 4))]),
        "reduce_max": (lambda x: _wsum(reduce_max(x, axis=1), r3),
                       [_distinct_rows(rng, 3, 4)]),
        "transpose": (lambda x: _wsum(transpose(x, (1, 0)), r43),
                      [rng.normal(size=(3, 4))]),
        "reshape": (lambda x: _wsum(reshape(x, (2, 6)), r26),
                    [rng.normal(size=(3, 4))]),
        "softmax": (lambda x: _wsum(softmax_op(x), r35),
                    [2.0 * rng.normal(size=(3, 5))]),
        "log_softmax": (lambda x: _wsum(log_softmax(x), r35),
                        [2.0 * rng.normal(size=(3, 5))]),
        "layer_norm": (lambda x: _wsum(layer_norm(x), r36),
                       [2.0 * rng.normal(size=(3, 6))]),
        # h0 is an input, as when the autoencoder's decoder starts from a
        # bridged state.
        "gru_scan": (lambda *a: _wsum(gru_scan(*a), r232),
                     [rng.normal(size=(2, 3, 2)) for _ in range(3)]
                     + [rng.uniform(-0.9, 0.9, size=(2, 2))]
                     + [0.8 * rng.normal(size=(2, 2)) for _ in range(3)]),
    }
    return cases


GRU_KEYS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def _gru_case(rng):
    b, d_in, d = 2, 3, 4
    r = rng.normal(size=(b, d))
    shapes = {"w": (d_in, d), "u": (d, d), "b": (d,)}
    points = [rng.normal(size=(b, d_in)), rng.normal(size=(b, d))]
    points += [0.8 * rng.normal(size=shapes[k[0]]) for k in GRU_KEYS]

    def fn(x, h, *ps):
        return _wsum(gru_cell(x, h, dict(zip(GRU_KEYS, ps))), r)

    return fn, points


def _set_transformer_param(enc, name, tensor):
    if name == "emb/table":
        enc.emb_table = tensor
    elif name == "emb/cls":
        enc.cls = tensor
    elif name.startswith("proj/"):
        setattr(enc.proj, name.split("/")[1], tensor)
    else:
        block, key, *leaf = name.split("/")
        blk = enc.blocks[int(block.removeprefix("block"))]
        if leaf:
            setattr(blk[key], leaf[0], tensor)
        else:
            blk[key] = tensor


def _transformer_case(rng):
    cfg = EncoderConfig(n_indices=6, d_emb=3, hidden=4, blocks=1, heads=2, ff=6)
    enc = TransformerEncoder(cfg, seed=0)
    names = [n for n, _ in enc.parameters()]
    shapes = [t.data.shape for _, t in enc.parameters()]
    mcc = np.array([[1, 2, 3], [4, 5, 0]])
    amt = rng.normal(size=(2, 3))
    amt[1, 2] = 0.0
    lengths = np.array([3, 2])
    rh = rng.normal(size=(2, 3, 4))
    rc = rng.normal(size=(2, 4))
    points = []
    for name, shape in zip(names, shapes):
        if name.endswith(("_g",)):
            points.append(1.0 + 0.15 * rng.normal(size=shape))
        else:
            points.append(0.3 * rng.normal(size=shape))

    def fn(*ps):
        for name, p in zip(names, ps):
            _set_transformer_param(enc, name, p)
        hidden, cls = enc.forward(mcc, amt, lengths)
        return add(_wsum(hidden, rh), _wsum(cls, rc))

    return fn, points


def _attention_case(rng):
    m, d = 5, 4
    r = rng.normal(size=(1, d))

    def fn(x, h, a):
        scores = matmul(x, matmul(a, reshape(h, (d, 1))))
        weights = softmax_op(reshape(scores, (1, m)))
        return _wsum(matmul(weights, x), r)

    return fn, [rng.normal(size=(m, d)), rng.normal(size=d),
                np.eye(d) + 0.3 * rng.normal(size=(d, d))]


def test_01_gradient_correctness():
    """Every primitive plus GRU cell, transformer block, and attention
    aggregation (through its matrix) pass finite differences at 20 points."""
    from seqrep.nn.tensor import _FORWARD

    t0 = time.perf_counter()
    case_names = sorted(_primitive_cases(np.random.default_rng(0)))
    assert set(case_names) == set(_FORWARD), "a primitive is missing its check"

    worst = 0.0
    for op_i, op in enumerate(case_names):
        for point in range(N_POINTS):
            rng = np.random.default_rng((op_i, point))
            fn, points = _primitive_cases(rng)[op]
            err = grad_check(fn, points, eps=EPS)
            worst = max(worst, err)
            assert err < GRAD_TOL, f"{op}: relative error {err:.3e}"

    for label, case in (("gru_cell", _gru_case),
                        ("transformer_block", _transformer_case),
                        ("attention_aggregator", _attention_case)):
        for point in range(N_POINTS):
            fn, points = case(np.random.default_rng((1000, point)))
            err = grad_check(fn, points, eps=EPS)
            worst = max(worst, err)
            assert err < GRAD_TOL, f"{label}: relative error {err:.3e}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s (budget 30s)"


def _roc_oracle(y, s):
    pos, neg = s[y == 1], s[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _pr_oracle(y, s):
    order = np.argsort(-s, kind="stable")
    y, s = y[order], s[order]
    n_pos = int(y.sum())
    out = prev_recall = 0.0
    i = 0
    while i < len(y):
        j = i
        while j + 1 < len(y) and s[j + 1] == s[i]:
            j += 1
        tp = int(y[: j + 1].sum())
        out += (tp / n_pos - prev_recall) * (tp / (j + 1))
        prev_recall = tp / n_pos
        i = j + 1
    return out


def _exhaustive_split(emb, min_segment=2):
    x = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    t = len(x)
    best_k, best_gain = None, -np.inf
    for k in range(min_segment, t - min_segment + 1):
        s1, s2 = x[:k].sum(axis=0), x[k:].sum(axis=0)
        gain = s1 @ s1 / k + s2 @ s2 / (t - k)
        if gain > best_gain:
            best_gain, best_k = gain, k
    return best_k


def test_02_metric_and_detector_oracles():
    """roc/pr match pair-counting oracles to 1e-12 on 1000 tied instances;
    the change-point split matches exhaustive search on 200 sequences."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, size=n)
        y[0], y[-1] = 1, 0
        s = rng.integers(0, 6, size=n).astype(np.float64) / 5.0
        assert abs(roc_auc(y, s) - _roc_oracle(y, s)) < 1e-12
        assert abs(pr_auc(y, s) - _pr_oracle(y, s)) < 1e-12

    for case in range(200):
        t = int(rng.integers(4, 61))
        emb = rng.normal(size=(t, int(rng.integers(2, 9))))
        if case % 2 == 0:
            emb[int(rng.integers(1, t)):] += 2.0 * rng.normal(size=emb.shape[1])
        assert detect_change_point(emb).split == _exhaustive_split(emb)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s (budget 60s)"


def test_03_corruption_statistics():
    """Over 40k tokens: 10% +- 1% selected; actions split 80/10/10 +- 2%."""
    rng = np.random.default_rng(3)
    b, length = 100, 400
    mcc_idx = rng.integers(1, 11, size=(b, length))
    amounts = rng.normal(size=(b, length))
    valid = np.ones((b, length), dtype=bool)
    _, _, plan = mlm_corrupt(mcc_idx, amounts, valid, seed=0)

    n_tokens = b * length
    assert n_tokens >= 10_000
    selected = len(plan.rows) / n_tokens
    assert abs(selected - 0.10) <= 0.01, f"selected fraction {selected:.4f}"
    for action, target in enumerate((0.80, 0.10, 0.10)):
        frac = float(np.mean(plan.actions == action))
        assert abs(frac - target) <= 0.02, f"action {action}: {frac:.4f}"


def test_04_formula_spot_checks():
    """Fixed-value identities for the amount transform, accuracy, and
    context aggregation."""
    assert transform_amount(np.e - 1.0) == 1.0

    y_true = np.array([1] * 3 + [0] * 2 + [0] * 1 + [1] * 4)
    y_pred = np.array([1] * 3 + [0] * 2 + [1] * 1 + [0] * 4)
    assert accuracy(y_true, y_pred) == 0.5

    rng = np.random.default_rng(4)
    row = rng.normal(size=6)
    x = np.tile(row, (9, 1))
    h = rng.normal(size=6)
    for method in ("mean", "max", "attention", "learnable"):
        a = rng.normal(size=(6, 6)) if method == "learnable" else None
        vec = aggregate_context(x, h, method, a).vector
        assert np.max(np.abs(vec - row)) < 1e-12, method

    x = rng.normal(size=(5, 6))
    plain = aggregate_context(x, h, "attention").vector
    with_eye = aggregate_context(x, h, "learnable", np.eye(6)).vector
    np.testing.assert_array_equal(plain, with_eye)


def test_05_local_global_tradeoff():
    """On the default 1000-client benchmark (3 seeds): the autoregressive
    objective beats the contrastive one on next-code ROC-AUC by >= 0.03
    while staying within 0.05 of it on the global task."""
    t0 = time.perf_counter()
    values = dict(default_config().values)
    values.update({
        "encoder.d_emb": 12,
        "encoder.hidden": 32,
        "train.epochs": 12,
        "train.lr": 0.003,
        "train.batch_size": 16,
        "train.max_len": 100,
        "train.clients_per_batch": 12,
        "train.slices_per_client": 4,
    })
    cfg = config_from_values(values)
    splits = prepare_splits(cfg, load_dataset(cfg))
    res = compare_objectives(cfg, splits, ["ar", "coles"], [0, 1, 2],
                             tasks=("global", "next_mcc"))

    ar_next = res["ar"]["next_mcc"].mean()["roc_auc"]
    co_next = res["coles"]["next_mcc"].mean()["roc_auc"]
    ar_glob = res["ar"]["global"].mean()["roc_auc"]
    co_glob = res["coles"]["global"].mean()["roc_auc"]
    elapsed = time.perf_counter() - t0

    assert ar_next >= co_next + 0.03, (
        f"next-code: ar {ar_next:.4f} vs coles {co_next:.4f}")
    assert co_glob >= ar_glob - 0.05, (
        f"global: coles {co_glob:.4f} vs ar {ar_glob:.4f}")
    assert elapsed < 900.0, f"benchmark took {elapsed:.1f}s (budget 15 min)"


def test_06_context_gain():
    """With a shared exogenous regime, mean-context augmentation lifts
    local-binary ROC-AUC by >= 0.02 (3-seed mean)."""
    t0 = time.perf_counter()
    values = dict(default_config().values)
    values.update({
        "data.n_clients": 600,
        "data.length_min": 200,
        "data.length_max": 350,
        "data.n_mcc": 15,
        "data.n_regimes": 4,
        "data.cp_probability": 0.7,
        "data.cp_distress_prob": 1.0,
        "data.distress_blend": 0.15,
        "data.distress_amount_shift": -0.05,
        "data.exo_strength": 0.5,
        "data.exo_amount_shift": 0.4,
        "data.exo_switch_rate": 1.0 / 30.0,
        "vocab.k": 15,
        "encoder.d_emb": 12,
        "encoder.hidden": 32,
        "train.epochs": 10,
        "train.lr": 0.003,
        "train.batch_size": 16,
        "train.max_len": 100,
        "train.clients_per_batch": 12,
        "train.slices_per_client": 4,
        "context.store_size": 400,
    })
    cfg = config_from_values(values)
    splits = prepare_splits(cfg, load_dataset(cfg))
    probe_cfg = make_probe_config(cfg)

    gains = []
    for seed in (0, 1, 2):
        model = train_model(cfg, splits, seed=seed, objective="ar").model
        store = build_store(model, splits.train, max_clients=400, seed=seed)
        emb = EmbeddedSplits(model, splits.train, splits.val, splits.test,
                             window_augment=window_augmenter(store, method="mean"))
        base = eval_local_binary(*emb.datasets("local_binary"),
                                 probe_cfg=probe_cfg, seed=seed)
        ctx = eval_local_binary(*emb.datasets("local_binary_context"),
                                probe_cfg=probe_cfg, seed=seed)
        gains.append(ctx["roc_auc"] - base["roc_auc"])

    mean_gain = float(np.mean(gains))
    elapsed = time.perf_counter() - t0
    assert mean_gain >= 0.02, f"mean context gain {mean_gain:+.4f}, per-seed {gains}"
    assert elapsed < 600.0, f"context benchmark took {elapsed:.1f}s (budget 10 min)"


def test_07_change_point_dynamics():
    """Splice curves: converging pairs approach the donor (distance at the
    boundary halves within 40 windows), diverging pairs drift away; planted
    change points are recovered within 10 windows >= 80% of the time."""
    t0 = time.perf_counter()
    values = dict(default_config().values)
    values.update({
        "data.n_clients": 240,
        "data.length_min": 1400,
        "data.length_max": 1600,
        "data.n_mcc": 15,
        "data.n_regimes": 4,
        "data.cp_probability": 0.45,
        "data.cp_distress_prob": 0.5,
        "data.distress_blend": 0.7,
        "data.distress_amount_shift": -0.5,
        "vocab.k": 15,
        "encoder.d_emb": 12,
        "encoder.hidden": 40,
        "train.epochs": 30,
        "train.pool": "mean",
        "train.lr": 0.003,
        "train.batch_size": 16,
        "train.max_len": 100,
    })
    cfg = config_from_values(values)
    splits = prepare_splits(cfg, load_dataset(cfg))
    model = train_model(cfg, splits, seed=0, objective="ar").model

    payload, _ = cpd_analysis(cfg, model, splits.all_clients)
    a10 = payload["accuracy_by_margin"]["10"]
    assert a10 >= 0.8, f"A_10 = {a10:.3f} over {payload['n_clients']} clients"

    clean = [c for c in splits.all_clients if c.change_point is None]
    rep = splice_analysis(cfg, model, clean, n_pairs=100, seed=0)
    conv = rep["converge_mean_distance"]
    div = rep["diverge_mean_distance"]
    assert conv["0"] is not None and conv["40"] is not None
    assert conv["40"] < 0.5 * conv["0"], (
        f"converge: d(tau)={conv['0']:.4f} d(tau+40)={conv['40']:.4f}")
    assert div["40"] > 2.0 * div["0"], (
        f"diverge: d(tau)={div['0']:.4f} d(tau+40)={div['40']:.4f}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"dynamics took {elapsed:.1f}s (budget 10 min)"


def _overfit_one_batch(objective, cfg, splits, steps=500, lr=1e-2):
    tc = TrainConfig(batch_size=8, max_len=40, clients_per_batch=6,
                     slices_per_client=3)
    enc = replace(make_encoder_config(cfg, splits.vocab.n_indices),
                  d_emb=8, hidden=24)
    model = build_model(objective, enc, tc, n_classes=2, seed=0)
    batch = model.iter_batches(splits.train, np.random.default_rng(0))[0]
    names = [n for n, _ in model.parameters()]
    opt = Adam([t for _, t in model.parameters()], lr=lr)
    first = best = None
    for _ in range(steps):
        with Tape() as tape:
            loss = model.loss(batch)
        val = float(loss.data)
        first = val if first is None else first
        best = val if best is None else min(best, val)
        if best <= 0.1 * first:
            return first, best
        grads = named_grads(model, tape, loss)
        zero_pinned_rows(grads)
        opt.step([grads[n] for n in names])
    return first, best


def _tiny_pipeline_fingerprint():
    cfg = small_config()
    splits = prepare_splits(cfg, load_dataset(cfg))
    model = train_model(cfg, splits, seed=0, objective="ar").model
    store, attention = build_context(cfg, model, splits, seed=0)
    payload, _ = evaluate_model(cfg, model, splits, store=store,
                                attention=attention)
    cpd_payload, _ = cpd_analysis(cfg, model, splits.all_clients,
                                  margins=(0, 5, 10))
    return canonical_json({"eval": payload, "cpd": cpd_payload})


def test_08_training_sanity_and_determinism():
    """Every objective cuts its loss by >= 90% on one repeated batch within
    500 steps, and two fresh pipeline runs produce byte-identical reports."""
    values = dict(default_config().values)
    values.update({
        "data.n_clients": 60,
        "data.length_min": 60,
        "data.length_max": 120,
        "data.n_mcc": 12,
        "data.n_regimes": 3,
        "vocab.k": 12,
    })
    cfg = config_from_values(values)
    splits = prepare_splits(cfg, load_dataset(cfg))
    for objective in OBJECTIVES:
        first, best = _overfit_one_batch(objective, cfg, splits)
        assert best <= 0.1 * first, (
            f"{objective}: loss {first:.4f} -> {best:.4f} "
            f"({best / first:.1%} of start)")

    assert _tiny_pipeline_fingerprint() == _tiny_pipeline_fingerprint()
