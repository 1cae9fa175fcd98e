"""Sliding windows: grid arithmetic and content-local re-encoding."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrep.evaluation.windows as windows
from seqrep.data import ClientSequence
from seqrep.encoders import EncoderConfig, GruEncoder
from seqrep.evaluation.windows import (
    sliding_window_embed_many,
    window_ends,
    window_index,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.integers(2, 50), st.integers(1, 30))
def test_window_ends_grid(t, w, s):
    ends = window_ends(t, w, s)
    if t < w:
        assert len(ends) == 0
        return
    assert ends[0] == w
    assert ends[-1] <= t
    np.testing.assert_array_equal(np.diff(ends), s)
    assert ends[-1] + s > t


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 400), st.integers(2, 50), st.integers(1, 30))
def test_window_index_points_at_first_affected_window(tau, w, s):
    idx = window_index(tau, w, s)
    ends = window_ends(tau + w + s, w, s)
    assert idx >= 0
    # The indexed window is the first whose coverage [end-w, end) includes tau.
    assert ends[idx] > tau or idx == 0
    if idx > 0:
        assert ends[idx - 1] <= tau


def test_window_index_spot_values():
    assert window_index(0, 32, 16) == 0
    assert window_index(31, 32, 16) == 0
    assert window_index(32, 32, 16) == 1
    assert window_index(48, 32, 16) == 2
    assert window_index(100, 32, 16) == (100 - 32) // 16 + 1


@pytest.fixture(scope="module")
def encoder():
    return GruEncoder(EncoderConfig(n_indices=10, d_emb=6, hidden=8), seed=0)


def seq_of(mcc_idx, cid="w", t0=1_600_000_000):
    mcc_idx = np.asarray(mcc_idx, dtype=np.int64)
    n = len(mcc_idx)
    return ClientSequence(
        client_id=cid,
        timestamps=np.arange(n, dtype=np.int64) * 60 + t0,
        mcc=mcc_idx + 4000,
        amounts=np.ones(n),
        mcc_idx=mcc_idx,
    )


def test_window_embedding_shapes(encoder, rng):
    seq = seq_of(rng.integers(1, 10, size=50))
    emb = sliding_window_embed_many(encoder, [seq], window=16, stride=8,
                                    pool="last")[0]
    ends = window_ends(50, 16, 8)
    assert emb.matrix.shape == (len(ends), 8)
    np.testing.assert_array_equal(emb.ends, ends)
    np.testing.assert_array_equal(emb.timestamps, seq.timestamps[ends - 1])


def test_window_embedding_depends_on_window_content_only(encoder, rng):
    """Same 16 transactions in different sequences embed identically."""
    content = rng.integers(1, 10, size=16)
    a = seq_of(np.concatenate([rng.integers(1, 10, size=24), content]), "a")
    b = seq_of(np.concatenate([rng.integers(1, 10, size=8), content]), "b")
    ea = sliding_window_embed_many(encoder, [a], window=16, stride=8, pool="last")[0]
    eb = sliding_window_embed_many(encoder, [b], window=16, stride=8, pool="last")[0]
    np.testing.assert_allclose(ea.matrix[-1], eb.matrix[-1], atol=1e-12)


def test_batched_embed_matches_single(encoder, rng):
    seqs = [seq_of(rng.integers(1, 10, size=n), f"c{n}")
            for n in (20, 33, 47, 15)]
    many = sliding_window_embed_many(encoder, seqs, 16, 8, pool="mean")
    for seq, got in zip(seqs, many):
        solo = sliding_window_embed_many(encoder, [seq], 16, 8, pool="mean")[0]
        # Batching does not move a row, but a client with one window is a
        # one-row batch on its own, and a one-row scan goes through BLAS's
        # matrix-vector product, which rounds differently: equal to rounding.
        np.testing.assert_allclose(got.matrix, solo.matrix, atol=1e-12)
        np.testing.assert_array_equal(got.ends, solo.ends)
    # The same call twice is bit-identical.
    again = sliding_window_embed_many(encoder, seqs, 16, 8, pool="mean")
    for got, rep in zip(many, again):
        np.testing.assert_array_equal(got.matrix, rep.matrix)


def test_short_sequence_yields_empty_embedding(encoder):
    emb = sliding_window_embed_many(encoder, [seq_of(np.array([1, 2, 3]))], 16, 8,
                                    "last")[0]
    assert emb.matrix.shape == (0, 8)
    assert len(emb.ends) == 0


def loop_window_batch(seqs, window, stride):
    """The window contents built one slice per window: the == oracle."""
    mcc, amt = [], []
    for seq in seqs:
        for end in window_ends(len(seq), window, stride):
            mcc.append(seq.mcc_idx[end - window : end])
            amt.append(seq.amounts_t[end - window : end])
    return np.stack(mcc), np.stack(amt)


@pytest.mark.parametrize("window, stride", [(16, 8), (5, 9), (7, 1), (6, 6)])
def test_window_batch_equals_per_window_slices(window, stride, encoder, rng,
                                              monkeypatch):
    """The spans over the clients' columns hold what the per-window slices
    give, with clients shorter than the window and strides past it."""
    seqs = []
    for i, n in enumerate((3, 40, 16, 29, 5, 17, 6)):
        seq = seq_of(rng.integers(1, 10, size=n), f"c{i}")
        seqs.append(ClientSequence(client_id=seq.client_id, timestamps=seq.timestamps,
                                   mcc=seq.mcc, amounts=rng.normal(size=n) * 40.0,
                                   mcc_idx=seq.mcc_idx))
    batches = []
    real = windows.embed_pooled

    def spy(enc, mcc, amt, starts, lengths, pool):
        batches.append((mcc, amt, starts, lengths))
        return real(enc, mcc, amt, starts, lengths, pool)

    monkeypatch.setattr(windows, "embed_pooled", spy)
    embs = sliding_window_embed_many(encoder, seqs, window, stride, "last")
    (mcc, amt, starts, lengths), = batches
    # The columns are the clients' own, end to end, never one window's copy.
    assert len(mcc) == len(amt) == sum(len(seq) for seq in seqs)
    want_mcc, want_amt = loop_window_batch(seqs, window, stride)
    idx = starts[:, None] + np.arange(window)
    assert mcc.dtype == want_mcc.dtype and np.array_equal(mcc[idx], want_mcc)
    assert amt.dtype == want_amt.dtype and np.array_equal(amt[idx], want_amt)
    assert np.array_equal(lengths, np.full(len(want_mcc), window))
    for seq, emb in zip(seqs, embs):
        np.testing.assert_array_equal(emb.ends, window_ends(len(seq), window, stride))
    assert sum(len(emb) for emb in embs) == len(want_mcc)


def test_no_complete_window_makes_no_encoder_call(encoder, monkeypatch):
    monkeypatch.setattr(windows, "embed_pooled", None)
    embs = sliding_window_embed_many(encoder, [seq_of([1, 2, 3]), seq_of([4])], 5, 2)
    assert [emb.matrix.shape for emb in embs] == [(0, 8), (0, 8)]


def test_window_embedding_memory_is_the_result_plus_one_block(rng):
    """Stride-2 windows of 200 clients, about 17,000 rows: the peak is the
    pooled result plus a few MiB of one row block's working set. Copying out
    each window's codes and amounts, then joining the copies, would add
    16 bytes per step of every window twice (about 17 MiB)."""
    clients = []
    for i, n in enumerate(rng.integers(150, 250, size=200)):
        m = rng.integers(1, 100, size=n)
        clients.append(ClientSequence(client_id=f"c{i}", timestamps=np.arange(n),
                                      mcc=m + 4000, amounts=rng.normal(size=n) * 50.0,
                                      mcc_idx=m))
    gru = GruEncoder(EncoderConfig(n_indices=101, d_emb=12, hidden=32), seed=0)
    tracemalloc.start()
    try:
        embs = sliding_window_embed_many(gru, clients, 32, 2, "last")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = sum(emb.matrix.nbytes for emb in embs)
    assert result > 4 * 2**20
    assert peak < result + 6 * 2**20, (peak - result) / 2**20
