"""Objectives: samplers, loss functions, model batch plumbing, training loop."""
import tracemalloc

import numpy as np
import pytest

from seqrep.config import make_encoder_config
from seqrep.encoders import EncoderConfig, GruEncoder, TransformerEncoder
from seqrep.nn import NonFiniteError, Tape, Tensor, backward, matmul, multiply, reduce_sum
from seqrep.objectives import (
    OBJECTIVES,
    TrainConfig,
    build_model,
    coles_sample_subsequences,
    contrastive_loss,
    masked_joint_loss,
    mlm_corrupt,
    normalize_rows,
    pad_batch,
    train,
    ts2vec_hierarchical_loss,
)
from seqrep.objectives.models import Ts2VecModel, _resolve_pool
from seqrep.objectives.train import named_grads


# ---------------------------------------------------------------- sampling

def test_coles_slices_are_in_bounds(tiny_clients, rng):
    samples = coles_sample_subsequences(tiny_clients[:6], n_slices=4,
                                        length_range=(10, 30), seed=rng)
    assert len(samples) == 24
    for s in samples:
        seq = tiny_clients[s.client_index]
        assert 0 <= s.start < s.end <= len(seq)
        assert 10 <= s.end - s.start <= 30


def test_coles_skips_short_clients_with_warning(tiny_clients):
    from seqrep.data import ClientSequence
    short = ClientSequence(client_id="s", timestamps=np.array([1, 2]),
                           mcc=np.array([1, 1]), amounts=np.ones(2))
    with pytest.warns(UserWarning, match="skipped"):
        samples = coles_sample_subsequences([short, tiny_clients[0]],
                                            n_slices=2, length_range=(10, 20))
    assert {s.client_index for s in samples} == {1}


def test_coles_rejects_bad_ranges(tiny_clients):
    with pytest.raises(ValueError):
        coles_sample_subsequences(tiny_clients, length_range=(0, 5))
    with pytest.raises(ValueError):
        coles_sample_subsequences(tiny_clients, n_slices=0)


def test_mlm_corrupt_actions(rng):
    b, length = 8, 40
    mcc = rng.integers(1, 9, size=(b, length))
    amt = rng.normal(size=(b, length))
    valid = np.ones((b, length), dtype=bool)
    valid[:, 30:] = False
    cm, ca, plan = mlm_corrupt(mcc, amt, valid, seed=rng, select_p=0.3)
    assert len(plan) > 0
    # Padding is never selected.
    assert np.all(plan.cols < 30)
    # Original values are preserved in the plan.
    np.testing.assert_array_equal(plan.original_mcc, mcc[plan.rows, plan.cols])
    for i in range(len(plan)):
        r, c = plan.rows[i], plan.cols[i]
        if plan.actions[i] == 0:
            assert cm[r, c] == 0 and ca[r, c] == 0.0
        elif plan.actions[i] == 2:
            assert cm[r, c] == mcc[r, c] and ca[r, c] == amt[r, c]
    # Unselected positions never change.
    sel = np.zeros((b, length), dtype=bool)
    sel[plan.rows, plan.cols] = True
    np.testing.assert_array_equal(cm[~sel], mcc[~sel])


def test_mlm_corrupt_validates():
    with pytest.raises(ValueError):
        mlm_corrupt(np.ones((2, 3), dtype=np.int64), np.ones((2, 3)),
                    np.ones((2, 3), dtype=bool), action_probs=(0.9, 0.2, 0.1))
    with pytest.raises(ValueError):
        mlm_corrupt(np.ones((2, 3), dtype=np.int64), np.ones((2, 4)),
                    np.ones((2, 3), dtype=bool))


def test_pad_batch_rectangles(rng):
    parts = [(np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3])),
             (np.array([4]), np.array([0.4]))]
    mcc, amt, lengths = pad_batch(parts)
    assert mcc.shape == (2, 3)
    np.testing.assert_array_equal(lengths, [3, 1])
    np.testing.assert_array_equal(mcc[1], [4, 0, 0])
    np.testing.assert_array_equal(amt[1], [0.4, 0.0, 0.0])
    with pytest.raises(ValueError):
        pad_batch([])


# ---------------------------------------------------------------- losses

def test_contrastive_loss_hand_case():
    # Two identical same-client rows: positive distance 0. One far-away
    # client beyond the margin: no negative slack. Loss is exactly 0.
    e = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
    loss = contrastive_loss(e, np.array([0, 0, 1]), margin=0.5)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-15)


def test_contrastive_loss_manual_value():
    # Unit vectors at 90 degrees, one pair per class relationship.
    e = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # Same client: loss = d^2 = 2. One pair total.
    same = contrastive_loss(e, np.array([0, 0]), margin=0.5)
    assert float(same.data) == pytest.approx(2.0, rel=1e-12)
    # Different clients: d = sqrt(2) > margin, slack clips to zero.
    diff = contrastive_loss(e, np.array([0, 1]), margin=0.5)
    assert float(diff.data) == pytest.approx(0.0, abs=1e-15)
    # Larger margin: (margin - sqrt(2))^2.
    big = contrastive_loss(e, np.array([0, 1]), margin=2.0)
    assert float(big.data) == pytest.approx((2.0 - np.sqrt(2.0)) ** 2, rel=1e-12)


def test_normalize_rows_unit_norm(rng):
    e = normalize_rows(Tensor(rng.normal(size=(5, 4)) * 3)).data
    np.testing.assert_allclose(np.linalg.norm(e, axis=1), np.ones(5), rtol=1e-12)


def test_ts2vec_loss_prefers_aligned_views(rng):
    t, d = 8, 6
    base = rng.normal(size=(2, t, d))
    aligned = ts2vec_hierarchical_loss(Tensor(base), Tensor(base.copy()))
    shuffled = ts2vec_hierarchical_loss(
        Tensor(base), Tensor(base[:, ::-1].copy()))
    assert float(aligned.data) < float(shuffled.data)


def test_ts2vec_loss_requires_3d(rng):
    with pytest.raises(ValueError):
        ts2vec_hierarchical_loss(Tensor(rng.normal(size=(4, 3))),
                                 Tensor(rng.normal(size=(4, 3))))


def test_joint_loss_weights_and_value(rng):
    n, k = 6, 5
    logits = rng.normal(size=(1, n, k))
    targets = rng.integers(0, k, size=(1, n))
    amount_pred = rng.normal(size=(1, n, 1))
    amount_true = rng.normal(size=(1, n))

    total = masked_joint_loss(Tensor(logits), Tensor(amount_pred), targets,
                              amount_true, np.ones((1, n), dtype=bool),
                              weights=(5.0, 1.0))
    z = logits[0] - logits[0].max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    ce = -logp[np.arange(n), targets[0]].mean()
    mse = np.mean((amount_pred[0, :, 0] - amount_true[0]) ** 2)
    assert float(total.data) == pytest.approx(5 * ce + mse, rel=1e-12)
    half = masked_joint_loss(Tensor(logits), Tensor(amount_pred), targets,
                             amount_true, np.ones((1, n), dtype=bool),
                             weights=(2.5, 0.5))
    assert float(half.data) == pytest.approx(float(total.data) / 2, rel=1e-12)


def test_masked_joint_loss_ignores_invalid(rng):
    b, length, k = 3, 7, 4
    logits = rng.normal(size=(b, length, k))
    targets = rng.integers(0, k, size=(b, length))
    amount_pred = rng.normal(size=(b, length, 1))
    amount_true = rng.normal(size=(b, length))
    mask = np.ones((b, length))

    full = masked_joint_loss(Tensor(logits), Tensor(amount_pred), targets,
                              amount_true, mask, weights=(5.0, 1.0))

    # Corrupt the masked-out region: loss must not move.
    mask2 = mask.copy()
    mask2[:, 5:] = 0.0
    ref = masked_joint_loss(Tensor(logits), Tensor(amount_pred), targets,
                            amount_true, mask2, weights=(5.0, 1.0))
    targets_bad = targets.copy()
    targets_bad[:, 5:] = 0
    amount_bad = amount_true.copy()
    amount_bad[:, 5:] = 99.0
    out = masked_joint_loss(Tensor(logits), Tensor(amount_pred), targets_bad,
                            amount_bad, mask2, weights=(5.0, 1.0))
    assert float(out.data) == pytest.approx(float(ref.data), rel=1e-12)
    assert float(full.data) != pytest.approx(float(ref.data), rel=1e-3)


# ---------------------------------------------------------------- models

def enc_cfg(tiny_cfg, tiny_splits):
    return make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)


def test_pool_resolution():
    assert _resolve_pool("mlm", "auto") == "first_token"
    assert _resolve_pool("ts2vec", "auto") == "max"
    assert _resolve_pool("coles", "auto") == "last"
    assert _resolve_pool("mlm", "mean") == "mean"


def test_build_model_coerces_arch(tiny_cfg, tiny_splits):
    tc = TrainConfig()
    # The objective alone picks the encoder from one shared config.
    mlm = build_model("mlm", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    assert isinstance(mlm.encoder, TransformerEncoder)
    for objective in OBJECTIVES:
        if objective != "mlm":
            model = build_model(objective, enc_cfg(tiny_cfg, tiny_splits), tc, seed=0,
                                n_classes=2)
            assert isinstance(model.encoder, GruEncoder)
    with pytest.raises(ValueError):
        build_model("diffusion", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)


def test_ar_batches_shift_targets(tiny_cfg, tiny_splits):
    tc = TrainConfig(batch_size=8, max_len=10_000)
    model = build_model("ar", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    rows = []
    for batch in model.iter_batches(tiny_splits.train, np.random.default_rng(3)):
        valid = batch["valid"]
        assert not batch["tgt_mcc"][~valid].any() and not batch["tgt_amt"][~valid].any()
        # Position j's target is the transaction fed at position j + 1.
        follow = valid[:, 1:]
        np.testing.assert_array_equal(batch["tgt_mcc"][:, :-1][follow],
                                      batch["mcc"][:, 1:][follow])
        np.testing.assert_array_equal(batch["tgt_amt"][:, :-1][follow],
                                      batch["amt"][:, 1:][follow])
        for i, length in enumerate(valid.sum(axis=1)):
            rows.append(tuple(batch["mcc"][i, :length])
                        + (batch["tgt_mcc"][i, length - 1],))
    # Without cropping, inputs plus the last target rebuild every history.
    assert sorted(rows) == sorted(tuple(c.mcc_idx) for c in tiny_splits.train)


def test_ts2vec_batches_share_the_overlap(tiny_cfg, tiny_splits):
    tc = TrainConfig(clients_per_batch=6, ts2vec_extend_max=5)
    model = build_model("ts2vec", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    for batch in model.iter_batches(tiny_splits.train, np.random.default_rng(4)):
        t_o = batch["t_o"]
        assert t_o >= 1
        assert not batch["off2"].any()
        for i, off in enumerate(batch["off1"]):
            # View 1 extends the overlap leftwards only, view 2 rightwards only.
            assert batch["len1"][i] == off + t_o <= t_o + tc.ts2vec_extend_max
            assert t_o <= batch["len2"][i] <= t_o + tc.ts2vec_extend_max
            np.testing.assert_array_equal(batch["mcc1"][i, off : off + t_o],
                                          batch["mcc2"][i, :t_o])
            np.testing.assert_array_equal(batch["amt1"][i, off : off + t_o],
                                          batch["amt2"][i, :t_o])


def test_ts2vec_overlap_gather_matches_the_one_hot_product(rng):
    b, length, d, t_o = 3, 9, 4, 5
    offsets = np.array([0, 4, 2])
    r = rng.normal(size=(b, t_o, d))

    def one_hot(hidden, offsets, t_o):
        sel = np.zeros((b, t_o, length))
        for i, off in enumerate(offsets):
            sel[i, np.arange(t_o), off + np.arange(t_o)] = 1.0
        return matmul(Tensor(sel), hidden)

    def run(select):
        with Tape() as tape:
            hidden = Tensor(rng.normal(size=(b, length, d)), requires_grad=True)
            z = select(hidden, offsets, t_o)
            loss = reduce_sum(multiply(z, Tensor(r)))
        return z.data, backward(tape, loss)[hidden.node_id_on(tape)]

    state = rng.bit_generator.state
    z, g = run(Ts2VecModel._select_overlap)
    rng.bit_generator.state = state
    ref_z, ref_g = run(one_hot)
    assert np.array_equal(z, ref_z) and np.array_equal(g, ref_g)


def test_supervised_needs_classes(tiny_cfg, tiny_splits):
    with pytest.raises(ValueError):
        build_model("supervised", enc_cfg(tiny_cfg, tiny_splits), TrainConfig(),
                    seed=0, n_classes=None)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_model_loss_is_finite_scalar(objective, tiny_cfg, tiny_splits):
    tc = TrainConfig(batch_size=8, max_len=40, clients_per_batch=6,
                     slices_per_client=3)
    model = build_model(objective, enc_cfg(tiny_cfg, tiny_splits), tc,
                        n_classes=2, seed=0)
    batches = model.iter_batches(tiny_splits.train, np.random.default_rng(0))
    assert len(batches) > 0
    with Tape():
        loss = model.loss(batches[0])
    assert loss.data.shape == ()
    assert np.isfinite(loss.data)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_model_parameters_unique_names(objective, tiny_cfg, tiny_splits):
    model = build_model(objective, enc_cfg(tiny_cfg, tiny_splits), TrainConfig(),
                        n_classes=2, seed=0)
    names = [n for n, _ in model.parameters()]
    assert len(names) == len(set(names))


def test_iter_batches_is_seed_deterministic(tiny_cfg, tiny_splits):
    tc = TrainConfig(batch_size=8, max_len=40)
    model = build_model("ar", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    b1 = model.iter_batches(tiny_splits.train, np.random.default_rng(5))
    b2 = model.iter_batches(tiny_splits.train, np.random.default_rng(5))
    assert len(b1) == len(b2)
    for x, y in zip(b1, b2):
        for k in x:
            np.testing.assert_array_equal(np.asarray(x[k]), np.asarray(y[k]))


# ---------------------------------------------------------------- training

def test_train_improves_and_restores_best(tiny_cfg, tiny_splits):
    tc = TrainConfig(batch_size=8, max_len=40, clients_per_batch=6,
                     slices_per_client=3)
    model = build_model("ar", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    result = train(model, tiny_splits.train, tiny_splits.val, epochs=3,
                   lr=3e-3, seed=0)
    assert len(result.history) == 3
    assert result.history[-1].train_loss < result.history[0].train_loss
    vals = [e.val_loss for e in result.history]
    assert result.best_val == pytest.approx(min(vals))
    assert result.best_epoch == int(np.argmin(vals))


def test_train_is_bit_deterministic(tiny_cfg, tiny_splits):
    def run():
        tc = TrainConfig(batch_size=8, max_len=40)
        model = build_model("coles", enc_cfg(tiny_cfg, tiny_splits), tc, seed=1)
        train(model, tiny_splits.train, tiny_splits.val, epochs=2, lr=1e-3,
              seed=1)
        return {n: t.data.copy() for n, t in model.parameters()}

    p1, p2 = run(), run()
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k], p2[k]), k


def test_mlm_training_step_memory_is_bounded(rng):
    # One step at the benchmark's shape: 16 rows of 100, width 32, 4 heads.
    # Attention records keep q, k^T, v and the mask and recompute the
    # (64, 101, 101) weights in chunks, relu keeps the output the next
    # product saves anyway, and backward frees each record once replayed:
    # about 13.5 MiB at peak, where saved weights reached 30 MiB and records
    # that kept every output and six primitives per attention block 93 MiB.
    b, length = 16, 100
    model = build_model("mlm", EncoderConfig(n_indices=101, d_emb=12, hidden=32),
                        TrainConfig(), seed=0)
    mcc = rng.integers(1, 101, size=(b, length))
    cor_mcc, cor_amt, plan = mlm_corrupt(mcc, rng.normal(size=(b, length)),
                                         np.ones((b, length), dtype=bool), seed=rng)
    batch = {"mcc": cor_mcc, "amt": cor_amt, "lengths": np.full(b, length),
             "plan": plan}
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = model.loss(batch)
        named_grads(model, tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_train_requires_clients(tiny_cfg, tiny_splits):
    model = build_model("coles", enc_cfg(tiny_cfg, tiny_splits), TrainConfig(),
                        seed=0)
    with pytest.raises(ValueError):
        train(model, [], tiny_splits.val, epochs=1)


def test_train_reports_non_finite_gru_scan(tiny_cfg, tiny_splits):
    tc = TrainConfig(batch_size=8, max_len=40)
    model = build_model("ar", enc_cfg(tiny_cfg, tiny_splits), tc, seed=0)
    model.encoder.gates["u_z"].data[0, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"^epoch 0 batch 0: .*'gru_scan'"):
        train(model, tiny_splits.train, tiny_splits.val, epochs=1)
