"""Encoders: causality, padding neutrality, pooling oracles, pinned rows,
blocked inference, and the fused GRU scan against its composed reference."""
import tracemalloc

import numpy as np
import pytest

import seqrep.encoders as encoders
import seqrep.nn.tensor as tensor_module
from seqrep.config import make_encoder_config
from seqrep.data import ClientSequence
from seqrep.encoders import (
    POOL_STRATEGIES,
    EncoderConfig,
    GruCore,
    GruEncoder,
    TransformerEncoder,
    embed_pooled,
    encode_sequence,
    gru_cell,
    pool_batch,
    pool_global,
    zero_pinned_rows,
)
from seqrep.evaluation.protocol import FrozenModel, global_embeddings
from seqrep.evaluation.windows import sliding_window_embed_many
from seqrep.nn import (
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    concat,
    gru_scan,
    matmul,
    multiply,
    reduce_sum,
    reshape,
    sigmoid,
    subtract,
    take_slice,
    tanh,
)
from seqrep.objectives import TrainConfig, build_model
from seqrep.objectives.sampling import pad_batch


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
        EncoderConfig(n_indices=9, d_emb=6, hidden=8, blocks=2, heads=2, ff=16),
        seed=0)


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
    zero_pinned_rows(grads)
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
    (g,) = backward(tape, loss, [hidden])
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


def small_blocks(monkeypatch, rows=2, steps=6, min_steps=2, attention_bytes=4096):
    """Block constants small enough that a test batch spans many blocks."""
    monkeypatch.setattr(encoders, "ROW_BLOCK", rows)
    monkeypatch.setattr(encoders, "TIME_BLOCK_STEPS", steps)
    monkeypatch.setattr(encoders, "MIN_TIME_BLOCK", min_steps)
    monkeypatch.setattr(encoders, "ATTENTION_BYTES", attention_bytes)


@pytest.mark.parametrize("strategy", POOL_STRATEGIES)
@pytest.mark.parametrize("arch", ["gru", "transformer"])
def test_inference_paths_match_single_sequence_reference(arch, strategy, gru, txf, rng,
                                                         monkeypatch):
    """Global rows, window rows and a pooled slice each equal the sequence
    encoded alone through encode_sequence + pool_global, with the batches
    cut into several row and time blocks (transformer: several chunks)."""
    encoder = gru if arch == "gru" else txf
    clients = mixed_clients(rng)
    small_blocks(monkeypatch)

    def reference(seq):
        return pool_global(encode_sequence(encoder, seq), strategy).vector

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    rows = global_embeddings(FrozenModel(encoder, strategy), clients)
    for seq, row in zip(clients, rows):
        close(row, reference(seq))

    window, stride = 8, 5
    embs = sliding_window_embed_many(encoder, clients, window, stride, strategy)
    for seq, emb in zip(clients, embs):
        assert len(emb) == len(range(window, len(seq) + 1, stride))
        for end, row in zip(emb.ends, emb.matrix):
            close(row, reference(piece(seq, end - window, end)))

    seq, lo, hi = clients[2], 7, 26
    # A span inside one client's own columns.
    got = embed_pooled(encoder, seq.mcc_idx, seq.amounts_t, [lo], [hi - lo], strategy)
    assert got.shape == (1, encoder.hidden)
    close(got[0], reference(piece(seq, lo, hi)))


def padded(rng, lengths, n_indices=9):
    lengths = np.asarray(lengths, dtype=np.int64)
    mcc = rng.integers(1, n_indices, size=(len(lengths), lengths.max()))
    amt = rng.normal(size=mcc.shape)
    for i, n in enumerate(lengths):
        mcc[i, n:] = 0
        amt[i, n:] = 0.0
    return mcc, amt, lengths


def embed_padded(encoder, mcc, amt, lengths, strategy):
    """embed_pooled of a padded (B, L) batch: spans starting at i * L of the
    flattened arrays."""
    b, width = mcc.shape
    return embed_pooled(encoder, mcc.ravel(), amt.ravel(), np.arange(b) * width,
                        lengths, strategy)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("strategy", POOL_STRATEGIES)
@pytest.mark.parametrize("arch", ["gru", "transformer"])
def test_spans_equal_their_padded_batch(arch, strategy, small, gru, txf, rng,
                                        monkeypatch):
    """Overlapping spans anywhere in one pair of columns, the last one ending
    at the columns' end, give the rows of the padded batch of their contents
    bit for bit, at the default block sizes and at small ones."""
    encoder = gru if arch == "gru" else txf
    if small:
        small_blocks(monkeypatch)
    mcc, amt = rng.integers(1, 9, size=120), rng.normal(size=120)
    lengths = np.array([40, 33, 20, 13, 9, 3, 1, 7, 7, 2, 25, 40])
    starts = rng.integers(0, 120 - lengths + 1)
    starts[-1] = 120 - lengths[-1]
    pm, pa, _ = pad_batch([(mcc[lo : lo + n], amt[lo : lo + n])
                           for lo, n in zip(starts, lengths)])
    want = embed_padded(encoder, pm, pa, lengths, strategy)
    assert np.array_equal(embed_pooled(encoder, mcc, amt, starts, lengths, strategy), want)


# Mixed, equal, length-1 and time-block-boundary lengths (a block of 4 or 6
# steps ends at 4, 6, 8, 12, 24); the last case has more rows than one
# default row block.
BLOCK_CASES = {
    "mixed": [40, 33, 20, 13, 9, 3, 1],
    "equal": [7] * 6,
    "ones": [1, 1, 1],
    "one_row": [9],
    "one_long_row": [30, 2],
    "boundaries": [24, 12, 8, 7, 6, 5, 4, 3, 2],
    "many_rows": list(np.random.default_rng(5).integers(1, 12, size=600)),
}


@pytest.mark.parametrize("strategy", POOL_STRATEGIES)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.parametrize("arch", ["gru", "transformer"])
def test_blocked_pooling_equals_the_padded_forward(arch, case, strategy, gru, txf, rng):
    """At the default block sizes every row equals pool_batch of one forward
    pass over the whole padded batch, bit for bit."""
    encoder = gru if arch == "gru" else txf
    mcc, amt, lengths = padded(rng, BLOCK_CASES[case])
    hidden, cls_out = encoder.forward(mcc, amt, lengths)
    want = pool_batch(hidden, lengths, strategy, cls_out).data
    got = embed_padded(encoder, mcc, amt, lengths, strategy)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("strategy", POOL_STRATEGIES)
@pytest.mark.parametrize("blocks", [(2, 6, 2), (3, 4, 4), (5, 1, 2), (1, 100, 4)])
@pytest.mark.parametrize("lengths", [[40, 33, 20, 13, 9, 3, 1, 7, 7, 2, 25],
                                     # Four-step blocks leave one step over.
                                     [41, 41, 17, 9]])
def test_gru_rows_do_not_depend_on_block_sizes(lengths, blocks, strategy, gru, rng,
                                               monkeypatch):
    mcc, amt, lengths = padded(rng, lengths)
    want = embed_padded(gru, mcc, amt, lengths, strategy)
    rows, steps, min_steps = blocks
    small_blocks(monkeypatch, rows, steps, min_steps)
    assert np.array_equal(embed_padded(gru, mcc, amt, lengths, strategy), want)


def test_transformer_chunks_fit_their_budget(txf, rng, monkeypatch):
    """Each chunk is cut to its longest row, and its attention scores fit the
    budget unless the chunk is one row; rows agree with one unchunked pass
    to rounding, since softmax sums run over the padded width."""
    mcc, amt, lengths = padded(rng, [40, 33, 20, 13, 9, 3, 1, 7, 7, 2, 25])
    hidden, cls_out = txf.forward(mcc, amt, lengths)
    budget = 8 * txf.config.heads * 21 ** 2 * 3
    small_blocks(monkeypatch, attention_bytes=budget)
    shapes = []
    real = TransformerEncoder.forward

    def forward(self, m, a, n=None):
        shapes.append(m.shape)
        assert m.shape[1] == n.max()
        return real(self, m, a, n)

    monkeypatch.setattr(TransformerEncoder, "forward", forward)
    for strategy in POOL_STRATEGIES:
        got = embed_padded(txf, mcc, amt, lengths, strategy)
        np.testing.assert_allclose(
            got, pool_batch(hidden, lengths, strategy, cls_out).data,
            rtol=1e-12, atol=1e-14)
    assert sum(b for b, _ in shapes) == 4 * len(lengths)
    for b, width in shapes:
        assert b == 1 or b * txf.config.heads * (width + 1) ** 2 * 8 <= budget


def blas_rows_are_independent(k, d):
    """Whether each row of an (m, k) @ (k, d) product has the same bits at
    every row count m >= 2. OpenBLAS's AVX-512 kernels round a row
    differently by where the row count leaves it for some shapes (k >= 16
    with d % 8 in 1-3, or k >= 8 with d == 1); blocked rows can only match
    the padded forward bit for bit where this holds."""
    rng = np.random.default_rng(0)
    a, w = rng.normal(size=(48, k)), rng.normal(size=(k, d))
    full = a @ w
    return all(np.array_equal(a[:m] @ w, full[:m]) for m in range(2, 48))


def sweep_case(seed):
    """Widths cycle through hidden 1-40 and d_in 1-16; every sixth batch is
    one row and every fifth one step wide."""
    rng = np.random.default_rng((91, seed))
    strategy = POOL_STRATEGIES[seed % 4]
    hidden = 1 + (7 * seed) % 40
    if strategy == "mean":
        # A width-1 mean sums its steps pairwise in pool_batch.
        hidden = max(hidden, 2)
    d_in = 1 + (5 * seed) % 16
    b = 1 if seed % 6 == 0 else int(rng.integers(2, 80))
    width = 1 if seed % 5 == 0 else int(rng.integers(2, 60))
    lengths = rng.integers(1, width + 1, size=b)
    lengths[rng.integers(b)] = width
    mcc, amt, lengths = padded(rng, lengths)
    encoder = GruEncoder(EncoderConfig(n_indices=9, d_emb=d_in - 1, hidden=hidden),
                         seed=seed)
    return encoder, mcc, amt, lengths, strategy


@pytest.mark.parametrize("seed", range(48))
def test_gru_blocked_pooling_matches_the_padded_forward_at_any_width(seed):
    encoder, mcc, amt, lengths, strategy = sweep_case(seed)
    hidden, _ = encoder.forward(mcc, amt, lengths)
    want = pool_batch(hidden, lengths, strategy).data
    got = embed_padded(encoder, mcc, amt, lengths, strategy)
    d_in, d = encoder.config.input_width, encoder.hidden
    if blas_rows_are_independent(d_in, d) and blas_rows_are_independent(d, d):
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_width_sweep_is_mostly_exact():
    """The sweep above checks bit-identity, not only closeness, in most cases."""
    exact = [blas_rows_are_independent(e.config.input_width, e.hidden)
             and blas_rows_are_independent(e.hidden, e.hidden)
             for e, *_ in map(sweep_case, range(48))]
    assert sum(exact) >= 32, sum(exact)


def fresh_gru(seed=0):
    return GruEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=10), seed=seed)


def test_pooled_inference_rejects_an_inf_recurrent_weight(rng):
    encoder = fresh_gru()
    encoder.gates["u_z"].data[0, 0] = np.inf
    mcc, amt, lengths = padded(rng, [9, 4, 6])
    with pytest.raises(NonFiniteError, match="'gru_scan' input u_z"):
        embed_padded(encoder, mcc, amt, lengths, "last")


def test_pooled_inference_rejects_an_inf_embedding_row_it_reads(rng):
    encoder = fresh_gru()
    encoder.emb_table.data[3] = np.inf
    mcc, amt, lengths = padded(rng, [9, 4, 6])
    mcc[mcc == 3] = 4
    # A batch that never reads the row is unaffected.
    assert np.all(np.isfinite(embed_padded(encoder, mcc, amt, lengths, "mean")))
    mcc[1, 2] = 3
    with pytest.raises(NonFiniteError, match="'gather'"):
        embed_padded(encoder, mcc, amt, lengths, "mean")


def test_pooled_inference_rejects_an_overflowing_projection(rng):
    encoder = fresh_gru()
    encoder.gates["w_h"].data[-1] = 1e308
    mcc, amt, lengths = padded(rng, [9, 4, 6])
    amt[0, 0] = 10.0
    with pytest.raises(NonFiniteError, match="'gru_scan' input xh"):
        embed_padded(encoder, mcc, amt, lengths, "max")


def test_time_major_scan_is_inference_only(rng):
    core = GruCore(rng, 3, 4)
    x = Tensor(rng.normal(size=(5, 2, 3)))
    states = core.scan(x, time_major=True).data
    assert np.array_equal(states, core.scan(Tensor(x.data.transpose(1, 0, 2))).data
                          .transpose(1, 0, 2))
    with Tape(), pytest.raises(TapeError, match="inference only"):
        core.scan(x, time_major=True)


def test_gru_inference_memory_does_not_grow_with_history(rng):
    encoder = GruEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=32), seed=0)

    def peak(length):
        mcc = rng.integers(1, 9, size=(16, length))
        amt = rng.normal(size=(16, length))
        lengths = np.full(16, length)
        tracemalloc.start()
        try:
            embed_padded(encoder, mcc, amt, lengths, "mean")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(1000), peak(4000)
    # One forward pass over the long batch holds (16, 4000, 32) states: 16 MB.
    assert long < 1.2 * short < 16 * 4000 * 32 * 8 / 4, (short, long)


def test_transformer_whole_history_memory_is_bounded_by_its_budget(rng):
    encoder = TransformerEncoder(EncoderConfig(n_indices=9, d_emb=6, hidden=16,
                                               heads=4, ff=32),
                                 seed=0)
    clients = mixed_clients(rng, lengths=rng.integers(100, 301, size=40))
    tracemalloc.start()
    try:
        rows = global_embeddings(FrozenModel(encoder, "mean"), clients)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (40, 16)
    # A chunk of rows keeps its scores within one budget, and the attention
    # primitive holds only a cache-sized piece of them at a time. One
    # unchunked pass would hold 40 x 4 x 301^2 floats.
    assert peak < 2 * encoders.ATTENTION_BYTES, peak / encoders.ATTENTION_BYTES


def test_one_long_transformer_row_is_bounded_by_the_budget(monkeypatch):
    """One 3,000-transaction history is a chunk of one row whose scores
    alone would take 17.6 budgets; attention scores it in blocks of query
    rows, which agree with the unblocked forward to rounding."""
    encoder = TransformerEncoder(EncoderConfig(n_indices=9, d_emb=12, hidden=32,
                                               heads=4, blocks=2),
                                 seed=0)
    rng = np.random.default_rng(3)
    n = 3000
    mcc, amt = rng.integers(1, 9, size=n), rng.normal(size=n)
    tracemalloc.start()
    try:
        got = embed_pooled(encoder, mcc, amt, [0], [n], "mean")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * encoders.ATTENTION_BYTES, peak / encoders.ATTENTION_BYTES
    got_cls = embed_pooled(encoder, mcc, amt, [0], [n], "first_token")
    # Unblocked: a chunk of one whole (3001, 3001) weight matrix.
    monkeypatch.setattr(tensor_module, "ATTENTION_CHUNK_BYTES", 8 * (n + 1) ** 2)
    hidden, cls_out = encoder.forward(mcc[None], amt[None], np.array([n]))
    np.testing.assert_allclose(got, pool_batch(hidden, np.array([n]), "mean").data,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_cls, cls_out.data, rtol=0, atol=1e-12)


def test_embed_pooled_validates_its_batch(gru, rng):
    mcc, amt = rng.integers(1, 9, size=10), rng.normal(size=10)
    starts, lengths = np.array([0, 6]), np.array([5, 3])
    with pytest.raises(ValueError, match="pooling strategy"):
        embed_pooled(gru, mcc, amt, starts, lengths, "middle")
    with pytest.raises(ValueError, match="spans out of range"):
        embed_pooled(gru, mcc, amt, starts, [5, 5], "last")
    with pytest.raises(ValueError, match="spans out of range"):
        embed_pooled(gru, mcc, amt, starts, [0, 3], "last")
    with pytest.raises(ValueError, match="spans out of range"):
        embed_pooled(gru, mcc, amt, [-1, 6], lengths, "last")
    with pytest.raises(ValueError, match="shapes disagree"):
        embed_pooled(gru, mcc, amt[:4], starts, lengths, "last")
    with pytest.raises(ValueError, match="shapes disagree"):
        embed_pooled(gru, mcc.reshape(2, 5), amt.reshape(2, 5), starts, lengths, "last")
    with pytest.raises(ValueError, match="shapes disagree"):
        embed_pooled(gru, mcc, amt, starts[:1], lengths, "last")
    assert embed_pooled(gru, mcc, amt, starts[:0], lengths[:0], "last").shape == (0, 10)


def test_pool_batch_returns_fresh_rows(rng):
    hidden = Tensor(rng.normal(size=(3, 6, 4)))
    lengths = np.array([6, 2, 4])
    for strategy in POOL_STRATEGIES:
        out = pool_batch(hidden, lengths, strategy).data
        assert out.shape == (3, 4)
        assert not np.shares_memory(out, hidden.data)
    with pytest.raises(ValueError):
        pool_batch(hidden, lengths, "middle")


def test_encoder_config_validation():
    cfg = EncoderConfig(n_indices=5, hidden=10, heads=4)
    with pytest.raises(ValueError, match="not divisible by 4 heads"):
        TransformerEncoder(cfg)
    # Heads are a transformer setting: the GRU takes any hidden width.
    assert GruEncoder(cfg).hidden == 10


# ------------------------------------------------------------ fused GRU scan

GATE_KEYS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def composed_scan(core, x, h0=None):
    """The GRU scan as one tape primitive per operation and step: the
    reference the fused `gru_scan` primitive must match bit for bit."""
    b, length, _ = x.shape
    d = core.d
    g = core.gates
    xz = add(matmul(x, g["w_z"]), g["b_z"])
    xr = add(matmul(x, g["w_r"]), g["b_r"])
    xh = add(matmul(x, g["w_h"]), g["b_h"])
    h = h0 if h0 is not None else Tensor(np.zeros((b, d)))
    one = Tensor(np.ones(()))
    steps = []
    for t in range(length):
        z = sigmoid(add(take_slice(xz, (slice(None), t)), matmul(h, g["u_z"])))
        r = sigmoid(add(take_slice(xr, (slice(None), t)), matmul(h, g["u_r"])))
        h_tilde = tanh(add(take_slice(xh, (slice(None), t)),
                           matmul(multiply(r, h), g["u_h"])))
        h = add(multiply(subtract(one, z), h), multiply(z, h_tilde))
        steps.append(reshape(h, (b, 1, d)))
    return concat(steps, axis=1)


def scan_and_grads(scan, core, x, h0, weights):
    """Scan output and the gradients of sum(weights * out) w.r.t. x, h0 and
    every gate, in GATE_KEYS order."""
    with Tape() as tape:
        xt = Tensor(x, requires_grad=True)
        ht = Tensor(h0, requires_grad=True)
        out = scan(core, xt, ht)
        loss = reduce_sum(multiply(out, Tensor(weights)))
    return out.data, backward(tape, loss, [xt, ht] + [core.gates[k] for k in GATE_KEYS])


def random_scan_case(seed):
    rng = np.random.default_rng((77, seed))
    b = 1 if seed % 5 == 0 else int(rng.integers(1, 6))
    length = 1 if seed % 7 == 0 else int(rng.integers(1, 15))
    d_in, d = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    core = GruCore(rng, d_in, d)
    scale = rng.uniform(0.5, 3.0)
    for t in core.gates.values():
        t.data = t.data * scale + rng.normal(scale=0.1, size=t.shape)
    x = rng.normal(size=(b, length, d_in))
    h0 = np.tanh(rng.normal(size=(b, d)))
    return core, x, h0, rng.normal(size=(b, length, d))


@pytest.mark.parametrize("seed", range(32))
def test_fused_scan_is_bit_identical_to_composed(seed):
    core, x, h0, weights = random_scan_case(seed)
    out, grads = scan_and_grads(GruCore.scan, core, x, h0, weights)
    ref_out, ref_grads = scan_and_grads(composed_scan, core, x, h0, weights)
    assert np.array_equal(out, ref_out)
    for name, got, want in zip(("x", "h0") + GATE_KEYS, grads, ref_grads):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    # Without a tape and without h0 the forward still matches.
    assert np.array_equal(core.scan(Tensor(x)).data, composed_scan(core, Tensor(x)).data)


@pytest.mark.parametrize("objective", ["ar", "ae"])
def test_fused_scan_model_grads_are_bit_identical(objective, tiny_cfg, tiny_splits,
                                                  monkeypatch):
    cfg = make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)
    model = build_model(objective, cfg, TrainConfig(batch_size=8, max_len=40), seed=0)
    batch = model.iter_batches(tiny_splits.train, np.random.default_rng(0))[0]

    named = model.parameters()

    def grads():
        with Tape() as tape:
            loss = model.loss(batch)
        return loss.item(), backward(tape, loss, [p for _, p in named])

    loss, fused = grads()
    monkeypatch.setattr(GruCore, "scan", composed_scan)
    ref_loss, ref = grads()
    assert loss == ref_loss
    for (name, _), got, want in zip(named, fused, ref, strict=True):
        assert np.array_equal(got, want), name


def test_gru_cell_loop_matches_scan(rng):
    core = GruCore(rng, 4, 6)
    x = rng.normal(size=(3, 9, 4))
    h = Tensor(np.zeros((3, 6)))
    steps = []
    for t in range(9):
        h = gru_cell(Tensor(x[:, t]), h, core.gates)
        steps.append(h.data)
    np.testing.assert_allclose(core.scan(Tensor(x)).data, np.stack(steps, axis=1),
                               rtol=0, atol=1e-12)


def test_gru_forward_records_the_same_count_at_any_length(gru, rng):
    def records(length):
        mcc = rng.integers(1, 9, size=(2, length))
        with Tape() as tape:
            gru.forward(mcc, rng.normal(size=(2, length)))
        return len(tape.records)

    assert records(5) == records(60)


def test_untaped_scan_keeps_no_per_step_arrays(rng):
    core = GruCore(rng, 13, 32)
    x = Tensor(rng.normal(size=(64, 350, 13)))
    tracemalloc.start()
    try:
        out = core.scan(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * out.data.nbytes, peak / out.data.nbytes


def test_fused_scan_rejects_mismatched_shapes(rng):
    core = GruCore(rng, 3, 4)
    g = core.gates
    xz = Tensor(rng.normal(size=(2, 5, 4)))
    with pytest.raises(ShapeError):
        gru_scan(xz, xz, xz, Tensor(np.zeros((2, 3))), g["u_z"], g["u_r"], g["u_h"])


def test_fused_scan_rejects_an_inf_that_saturates_a_gate(rng):
    # With a nonzero state, h @ u_z is +-inf, the sigmoid saturates and the
    # output stays finite; the gradients would be NaN.
    core = GruCore(rng, 3, 4)
    core.gates["u_z"].data[0, 0] = np.inf
    h0 = Tensor(np.tanh(rng.normal(size=(2, 4))) + 2.0, requires_grad=True)
    with Tape(), pytest.raises(NonFiniteError, match="'gru_scan' input u_z"):
        core.scan(Tensor(rng.normal(size=(2, 5, 3))), h0)
