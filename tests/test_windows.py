"""Sliding windows: grid arithmetic and content-local re-encoding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # Different chunkings reorder BLAS sums; equality is to rounding.
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
