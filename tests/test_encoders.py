"""Encoders: causality, padding neutrality, pooling oracles, pinned rows."""
import numpy as np
import pytest

from seqrep.data import ClientSequence
from seqrep.encoders import (
    POOL_STRATEGIES,
    EncoderConfig,
    GruEncoder,
    TransformerEncoder,
    build_encoder,
    embed_pooled,
    encode_sequence,
    pool_batch,
    pool_global,
    pool_padded,
)
from seqrep.evaluation.protocol import FrozenModel, global_embeddings
from seqrep.evaluation.windows import sliding_window_embed_many
from seqrep.nn import Tape, Tensor, backward


def batch_inputs(rng, b=3, length=12, n_indices=9):
    mcc = rng.integers(1, n_indices, size=(b, length))
    amt = rng.normal(size=(b, length))
    lengths = np.array([length, length - 3, length - 7])
    for i, n in enumerate(lengths):
        mcc[i, n:] = 0
        amt[i, n:] = 0.0
    return mcc, amt, lengths


@pytest.fixture(scope="module")
def gru():
    return GruEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=10), seed=0)


@pytest.fixture(scope="module")
def txf():
    return TransformerEncoder(
        EncoderConfig(n_indices=9, d_emb=6, hidden=8, arch="transformer",
                      blocks=2, heads=2, ff=16), seed=0)


def test_gru_output_shape(gru, rng):
    mcc, amt, _ = batch_inputs(rng)
    out, cls = gru.forward(mcc, amt)
    assert out.shape == (3, 12, 10)
    assert cls is None


def test_gru_is_causal(gru, rng):
    mcc, amt, _ = batch_inputs(rng)
    base, _ = gru.forward(mcc, amt)
    mcc2 = mcc.copy()
    amt2 = amt.copy()
    mcc2[:, 8] = (mcc2[:, 8] % 8) + 1
    amt2[:, 8] += 5.0
    bumped, _ = gru.forward(mcc2, amt2)
    np.testing.assert_array_equal(base.data[:, :8], bumped.data[:, :8])
    assert not np.allclose(base.data[:, 8:], bumped.data[:, 8:])


def test_gru_padding_row_is_zero(gru):
    np.testing.assert_array_equal(gru.emb_table.data[0], np.zeros(6))


def test_gru_zero_pinned_rows(gru):
    grads = {name: np.ones_like(t.data) for name, t in gru.parameters()}
    gru.zero_pinned_rows(grads)
    emb_name = next(n for n in grads if "emb" in n)
    np.testing.assert_array_equal(grads[emb_name][0], np.zeros(6))
    assert np.all(grads[emb_name][1:] == 1.0)


def test_gru_deterministic_construction():
    a = GruEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=10), seed=3)
    b = GruEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=10), seed=3)
    for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_transformer_shapes_and_cls(txf, rng):
    mcc, amt, lengths = batch_inputs(rng)
    hidden, cls = txf.forward(mcc, amt, lengths)
    assert hidden.shape == (3, 12, 8)
    assert cls.shape == (3, 8)


def test_transformer_padding_is_inert(txf, rng):
    mcc, amt, lengths = batch_inputs(rng)
    hidden, cls = txf.forward(mcc, amt, lengths)
    # Appending extra pad columns must not change any valid position.
    pad = np.zeros((3, 4), dtype=mcc.dtype)
    mcc2 = np.concatenate([mcc, pad], axis=1)
    amt2 = np.concatenate([amt, pad.astype(np.float64)], axis=1)
    hidden2, cls2 = txf.forward(mcc2, amt2, lengths)
    for i, n in enumerate(lengths):
        np.testing.assert_allclose(hidden2.data[i, :n], hidden.data[i, :n],
                                   atol=1e-10)
    np.testing.assert_allclose(cls2.data, cls.data, atol=1e-10)


def test_transformer_sees_both_directions(txf, rng):
    mcc, amt, lengths = batch_inputs(rng)
    base, _ = txf.forward(mcc, amt, lengths)
    mcc2 = mcc.copy()
    mcc2[:, 3] = (mcc2[:, 3] % 8) + 1
    bumped, _ = txf.forward(mcc2, amt, lengths)
    # Position 0 attends to position 3: early states change too.
    assert not np.allclose(base.data[:, 0], bumped.data[:, 0])


def test_pool_batch_matches_numpy_oracles(rng):
    b, length, d = 4, 7, 5
    hidden = rng.normal(size=(b, length, d))
    lengths = np.array([7, 3, 5, 1])
    mask = np.arange(length)[None, :] < lengths[:, None]

    last = pool_batch(Tensor(hidden), lengths, "last").data
    np.testing.assert_allclose(
        last, hidden[np.arange(b), lengths - 1], atol=1e-12)

    mean = pool_batch(Tensor(hidden), lengths, "mean").data
    expect = np.stack([hidden[i, :n].mean(axis=0) for i, n in enumerate(lengths)])
    np.testing.assert_allclose(mean, expect, atol=1e-12)

    mx = pool_batch(Tensor(hidden), lengths, "max").data
    expect = np.stack([hidden[i, :n].max(axis=0) for i, n in enumerate(lengths)])
    np.testing.assert_allclose(mx, expect, atol=1e-12)


def test_pool_batch_first_token_prefers_cls(rng):
    hidden = Tensor(rng.normal(size=(2, 4, 3)))
    cls = Tensor(rng.normal(size=(2, 3)))
    np.testing.assert_array_equal(
        pool_batch(hidden, np.array([4, 4]), "first_token", cls_out=cls).data,
        cls.data)
    np.testing.assert_array_equal(
        pool_batch(hidden, np.array([4, 4]), "first_token").data,
        hidden.data[:, 0])


def test_pool_batch_validates(rng):
    hidden = Tensor(rng.normal(size=(2, 4, 3)))
    with pytest.raises(ValueError):
        pool_batch(hidden, np.array([4, 5]), "last")
    with pytest.raises(ValueError):
        pool_batch(hidden, np.array([4, 4]), "middle")


def test_pool_batch_gradients_flow(rng):
    with Tape() as tape:
        hidden = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        pooled = pool_batch(hidden, np.array([5, 2]), "mean")
        loss = pooled.sum() if hasattr(pooled, "sum") else None
        if loss is None:
            from seqrep.nn import reduce_sum
            loss = reduce_sum(pooled)
    g = backward(tape, loss)[hidden.node_id_on(tape)]
    # Positions past each length get zero gradient.
    np.testing.assert_array_equal(g[1, 2:], np.zeros((3, 3)))
    assert np.all(g[0] != 0)


def test_encode_sequence_and_pool_global(gru, tiny_splits):
    seq = tiny_splits.train[0]
    hs = encode_sequence(gru, ClientSequence(
        client_id=seq.client_id,
        timestamps=seq.timestamps[:20],
        mcc=seq.mcc[:20],
        amounts=seq.amounts[:20],
        mcc_idx=np.clip(seq.mcc_idx[:20], 0, 8),
    ))
    assert hs.vectors.shape == (20, 10)
    np.testing.assert_array_equal(hs.timestamps, seq.timestamps[:20])
    for strategy in POOL_STRATEGIES:
        if strategy == "first_token":
            continue
        rep = pool_global(hs, strategy)
        assert rep.vector.shape == (10,)
    np.testing.assert_allclose(
        pool_global(hs, "last").vector, hs.vectors[-1], atol=1e-12)
    np.testing.assert_allclose(
        pool_global(hs, "mean").vector, hs.vectors.mean(axis=0), atol=1e-12)


def mixed_clients(rng, lengths=(5, 23, 40, 17, 9), n_indices=9):
    out = []
    for i, n in enumerate(lengths):
        mcc_idx = rng.integers(1, n_indices, size=n)
        out.append(ClientSequence(
            client_id=f"m{i}",
            timestamps=np.arange(n, dtype=np.int64) * 60 + 1_600_000_000,
            mcc=mcc_idx + 4000,
            amounts=rng.normal(size=n) * 50.0,
            mcc_idx=mcc_idx,
        ))
    return out


def piece(seq, lo, hi):
    return ClientSequence(client_id=seq.client_id, timestamps=seq.timestamps[lo:hi],
                          mcc=seq.mcc[lo:hi], amounts=seq.amounts[lo:hi],
                          mcc_idx=seq.mcc_idx[lo:hi])


@pytest.mark.parametrize("strategy", POOL_STRATEGIES)
@pytest.mark.parametrize("arch", ["gru", "transformer"])
def test_inference_paths_match_single_sequence_reference(arch, strategy, gru, txf, rng):
    """Global rows, window rows and a pooled slice each equal the sequence
    encoded alone through encode_sequence + pool_global."""
    encoder = gru if arch == "gru" else txf
    clients = mixed_clients(rng)

    def reference(seq):
        return pool_global(encode_sequence(encoder, seq), strategy).vector

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    rows = global_embeddings(FrozenModel(encoder, strategy), clients, chunk=3)
    for seq, row in zip(clients, rows):
        close(row, reference(seq))

    window, stride = 8, 5
    embs = sliding_window_embed_many(encoder, clients, window, stride, strategy, chunk=4)
    for seq, emb in zip(clients, embs):
        assert len(emb) == len(range(window, len(seq) + 1, stride))
        for end, row in zip(emb.ends, emb.matrix):
            close(row, reference(piece(seq, end - window, end)))

    seq, lo, hi = clients[2], 7, 26
    got = embed_pooled(encoder, seq.mcc_idx[None, lo:hi], seq.amounts_t[None, lo:hi],
                       [hi - lo], strategy)
    assert got.shape == (1, encoder.hidden)
    close(got[0], reference(piece(seq, lo, hi)))


def test_pool_padded_returns_fresh_rows(rng):
    hidden = rng.normal(size=(3, 6, 4))
    lengths = np.array([6, 2, 4])
    for strategy in POOL_STRATEGIES:
        out = pool_padded(hidden, lengths, strategy)
        assert out.shape == (3, 4)
        assert not np.shares_memory(out, hidden)
    with pytest.raises(ValueError):
        pool_padded(hidden, lengths, "middle")


def test_build_encoder_dispatches():
    assert isinstance(build_encoder(EncoderConfig(n_indices=5)), GruEncoder)
    assert isinstance(
        build_encoder(EncoderConfig(n_indices=5, hidden=8, arch="transformer",
                                    heads=2)),
        TransformerEncoder)


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(n_indices=5, arch="rnn")
    with pytest.raises(ValueError):
        EncoderConfig(n_indices=5, arch="transformer", hidden=10, heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(n_indices=5, pool="none")
