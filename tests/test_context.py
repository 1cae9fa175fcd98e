"""Embedding store, context aggregation laws, and augmentation hooks."""
import numpy as np
import pytest

from seqrep import context
from seqrep.config import make_encoder_config
from seqrep.context import (
    AGGREGATION_METHODS,
    EmbeddingStore,
    aggregate_context,
    attention_loss,
    build_store,
    chunk_rows,
    global_augmenter,
    train_attention_matrix,
    window_augmenter,
)
from seqrep.data.types import ClientSequence
from seqrep.encoders import GruEncoder, embed_pooled
from seqrep.evaluation.protocol import FrozenModel, local_window_dataset
from seqrep.evaluation.windows import WindowEmbeddings, sliding_window_embed_many
from seqrep.nn import (Adam, Tape, Tensor, backward, concat, grad_check, matmul,
                       reshape, softmax_op)
from seqrep.objectives.losses import contrastive_loss, normalize_rows
from seqrep.objectives.sampling import coles_sample_subsequences


@pytest.fixture(scope="module")
def frozen(tiny_cfg, tiny_splits):
    enc_cfg = make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)
    return FrozenModel(encoder=GruEncoder(enc_cfg, seed=0),
                       pool_strategy="last")


def make_store(dim=3):
    store = EmbeddingStore(dim=dim)
    store.add_series("b", np.array([5, 10]), np.arange(2 * dim).reshape(2, dim) + 100.0)
    store.add_series("a", np.array([3, 7, 9]), np.arange(3 * dim).reshape(3, dim) * 1.0)
    return store


def test_query_latest_strictly_before():
    store = make_store()
    # At t=5: client a has entries at 3 (row 0); client b has nothing before 5.
    np.testing.assert_array_equal(store.query(5), store.series["a"][1][:1])
    # At t=6: a -> its t=3 row, b -> its t=5 row, ordered by client id.
    got = store.query(6)
    assert got.shape == (2, 3)
    np.testing.assert_array_equal(got[0], store.series["a"][1][0])
    np.testing.assert_array_equal(got[1], store.series["b"][1][0])


def test_query_excludes_client_and_handles_empty():
    store = make_store()
    got = store.query(100, exclude="a")
    np.testing.assert_array_equal(got, store.series["b"][1][1:])
    assert store.query(0).shape == (0, 3)


def test_query_many_matches_query_loop():
    store = make_store()
    times = np.array([0, 3, 4, 5, 8, 11, 50])
    x, valid = store.query_many(times, exclude="b")
    assert x.shape == (len(times), 2, 3) and valid.shape == (len(times), 2)
    assert not valid[:, 1].any()
    np.testing.assert_array_equal(x[~valid], 0.0)
    for j, t in enumerate(times):
        np.testing.assert_array_equal(x[j][valid[j]], store.query(int(t), exclude="b"))
        ts, rows = store.series["a"]
        before = np.nonzero(ts < t)[0]
        assert valid[j, 0] == bool(len(before))
        if len(before):
            np.testing.assert_array_equal(x[j, 0], rows[before[-1]])


def test_add_series_validation():
    store = EmbeddingStore(dim=2)
    with pytest.raises(ValueError, match="matrix"):
        store.add_series("x", np.array([1]), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="timestamps"):
        store.add_series("x", np.array([1, 2]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="sorted"):
        store.add_series("x", np.array([2, 1]), np.zeros((2, 2)))
    store.add_series("x", np.array([1]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="already present"):
        store.add_series("x", np.array([2]), np.ones((1, 2)))


def test_build_store_caps_and_is_seeded(frozen, tiny_clients):
    a = build_store(frozen, tiny_clients, max_clients=5, window=16, stride=8,
                    seed=0)
    b = build_store(frozen, tiny_clients, max_clients=5, window=16, stride=8,
                    seed=0)
    c = build_store(frozen, tiny_clients, max_clients=5, window=16, stride=8,
                    seed=1)
    assert len(a) <= 5
    assert a.dim == frozen.encoder.hidden
    assert a.client_ids() == b.client_ids()
    assert a.client_ids() != c.client_ids()
    assert a.n_entries() > 0
    with pytest.raises(ValueError):
        build_store(frozen, tiny_clients, max_clients=0)


def test_identical_rows_collapse_to_that_row(rng):
    """Weights sum to one, so constant context is a fixed point of every method."""
    row = rng.normal(size=6)
    x = np.tile(row, (7, 1))
    h = rng.normal(size=6)
    a = rng.normal(size=(6, 6))
    for method in AGGREGATION_METHODS:
        ctx = aggregate_context(x, h, method, a if method == "learnable" else None)
        np.testing.assert_allclose(ctx.vector, row, atol=1e-12)
        assert not ctx.fallback
        assert ctx.n_sources == 7


def test_learnable_identity_matches_attention_bitwise(rng):
    x = rng.normal(size=(5, 4))
    h = rng.normal(size=4)
    plain = aggregate_context(x, h, "attention")
    with_eye = aggregate_context(x, h, "learnable", np.eye(4))
    np.testing.assert_array_equal(plain.vector, with_eye.vector)


def test_mean_max_attention_oracles(rng):
    x = rng.normal(size=(4, 3))
    h = rng.normal(size=3)
    np.testing.assert_allclose(aggregate_context(x, h, "mean").vector,
                               x.mean(axis=0))
    np.testing.assert_allclose(aggregate_context(x, h, "max").vector,
                               x.max(axis=0))
    scores = x @ h
    w = np.exp(scores - scores.max())
    w /= w.sum()
    np.testing.assert_allclose(aggregate_context(x, h, "attention").vector,
                               w @ x, atol=1e-12)


def test_empty_context_falls_back_to_zero():
    ctx = aggregate_context(np.zeros((0, 4)), np.ones(4), "attention")
    assert ctx.fallback
    assert ctx.n_sources == 0
    np.testing.assert_array_equal(ctx.vector, np.zeros(4))


def test_aggregate_validation(rng):
    x = rng.normal(size=(3, 4))
    h = rng.normal(size=4)
    with pytest.raises(ValueError, match="unknown aggregation"):
        aggregate_context(x, h, "median")
    with pytest.raises(ValueError, match="does not match"):
        aggregate_context(x, np.ones(5), "mean")
    with pytest.raises(ValueError, match="needs the matrix"):
        aggregate_context(x, h, "learnable")
    with pytest.raises(ValueError, match="matrix"):
        aggregate_context(x, h, "learnable", np.eye(3))


def test_window_augmenter_widens_and_excludes_self(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 16][:6]
    store = build_store(frozen, clients[:1], max_clients=1, window=16, stride=8)
    aug = window_augmenter(store, method="mean")
    embs = sliding_window_embed_many(frozen.encoder, clients[:1], 16, 8,
                                     frozen.pool_strategy)
    xs, _ = local_window_dataset(clients[:1], aug(embs))
    # The only store client is the query client, so every context falls back.
    assert xs.shape[1] == 2 * store.dim
    np.testing.assert_array_equal(xs[:, store.dim:], 0.0)

    wide_store = build_store(frozen, clients, max_clients=6, window=16, stride=8)
    xs2, _ = local_window_dataset(clients[:1],
                                  window_augmenter(wide_store, "mean")(embs))
    assert np.any(xs2[:, store.dim:] != 0.0)


def test_global_augmenter_widens(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 16][:5]
    store = build_store(frozen, clients, max_clients=5, window=16, stride=8)
    aug = global_augmenter(store, method="max")
    base = np.zeros((len(clients), store.dim))
    out = aug(clients, base)
    assert out.shape == (len(clients), 2 * store.dim)


def test_train_attention_matrix_shapes_and_history(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 20][:8]
    store = build_store(frozen, clients, max_clients=8, window=16, stride=8)
    a, history = train_attention_matrix(frozen, store, clients, epochs=2,
                                        seed=0, length_range=(10, 16),
                                        clients_per_batch=8)
    assert a.shape == (store.dim, store.dim)
    assert len(history) == 2
    assert all(np.isfinite(h) for h in history)


def test_train_attention_matrix_needs_pairs(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 20][:1]
    store = build_store(frozen, clients, max_clients=1, window=16, stride=8)
    with pytest.raises(ValueError, match="no usable batches"):
        train_attention_matrix(frozen, store, clients, epochs=1,
                               length_range=(10, 16))


# -- block lookup and aggregation against a per-row loop ----------------------

def brute_rows(store, client_id, t):
    """From every other store client, its latest row strictly before t."""
    rows = []
    for cid in sorted(store.series):
        if cid == client_id:
            continue
        ts, m = store.series[cid]
        before = np.nonzero(ts < t)[0]
        if len(before):
            rows.append(m[before[-1]])
    return np.stack(rows) if rows else np.zeros((0, store.dim))


def brute_context(store, client_id, t, h, method, a):
    x = brute_rows(store, client_id, t)
    if len(x) == 0:
        return np.zeros(store.dim)
    if method == "mean":
        return x.mean(axis=0)
    if method == "max":
        return x.max(axis=0)
    scores = x @ (a @ h if method == "learnable" else h)
    w = np.exp(scores - scores.max())
    return (w / w.sum()) @ x


def random_case(seed):
    """A random store and the windows and clients that query it.

    Case 0 of every five has an empty store; case 1 a store whose only client
    is the one querying. Times come from a small range, so duplicates, times
    equal to stored ones and times before every stored row all occur.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    ids = [f"c{i}" for i in range(int(rng.integers(1, 7)))]
    kind = seed % 5
    if kind == 0:
        stored = []
    elif kind == 1:
        ids = ids[:1]
        stored = ids
    else:
        stored = [cid for cid in ids if rng.random() < 0.8]
    store = EmbeddingStore(dim=dim)
    for cid in stored:
        n = int(rng.integers(0, 6))
        store.add_series(cid, np.sort(rng.integers(0, 12, size=n)),
                         rng.normal(size=(n, dim)))
    embs, clients = [], []
    for cid in ids + ["outsider"]:
        n = int(rng.integers(0, 5))
        embs.append(WindowEmbeddings(
            client_id=cid, matrix=rng.normal(size=(n, dim)),
            ends=np.arange(1, n + 1), timestamps=np.sort(rng.integers(0, 13, size=n))))
        ts = np.sort(rng.integers(0, 13, size=int(rng.integers(1, 4))))
        clients.append(ClientSequence(cid, ts, np.zeros(len(ts)), np.zeros(len(ts))))
    own = rng.normal(size=(len(clients), dim))
    return store, embs, clients, own, rng.normal(size=(dim, dim))


def test_block_path_matches_brute_force_on_random_stores():
    seen = {"fallback": 0, "context": 0, "tied": 0}
    for seed in range(50):
        store, embs, clients, own, a = random_case(seed)
        for method in AGGREGATION_METHODS:
            m = a if method == "learnable" else None
            for emb, got in zip(embs, window_augmenter(store, method, m)(embs)):
                assert got.matrix.shape == (len(emb), 2 * store.dim)
                for j, (h, t) in enumerate(zip(emb.matrix, emb.timestamps)):
                    want = brute_context(store, emb.client_id, t, h, method, m)
                    np.testing.assert_allclose(
                        got.matrix[j], np.concatenate([h, want]), rtol=0, atol=1e-12)
                    n = len(brute_rows(store, emb.client_id, t))
                    seen["fallback" if n == 0 else "context"] += 1
                    seen["tied"] += any(t in ts for ts, _ in store.series.values())
            got = global_augmenter(store, method, m)(clients, own)
            for seq, h, row in zip(clients, own, got):
                want = brute_context(store, seq.client_id, seq.timestamps[-1], h,
                                     method, m)
                np.testing.assert_allclose(row, np.concatenate([h, want]),
                                           rtol=0, atol=1e-12)
    assert min(seen.values()) > 0, seen


def test_query_many_takes_one_exclude_per_time():
    store = make_store()
    times = np.array([4, 6, 6, 50])
    x, valid = store.query_many(times, np.array(["a", "b", "zz", "a"]))
    np.testing.assert_array_equal(valid, [[False, False], [True, False],
                                          [True, True], [False, True]])
    for j, cid in enumerate(["a", "b", "zz", "a"]):
        np.testing.assert_array_equal(x[j][valid[j]], brute_rows(store, cid, times[j]))
    x, valid = EmbeddingStore(dim=3).query_many(times, "a")
    assert x.shape == (4, 0, 3) and valid.shape == (4, 0)


def test_add_series_refreshes_the_lookup():
    store = make_store()
    assert store.query(100).shape == (2, 3)
    store.add_series("c", np.array([1]), np.full((1, 3), 7.0))
    np.testing.assert_array_equal(store.query(100)[2], [7.0, 7.0, 7.0])


def test_chunk_size_respects_the_byte_budget():
    for n_clients in (0, 1, 7, 150, 10_000):
        for dim in (1, 3, 32):
            for budget in (1, 8, 1000, 4 << 20):
                rows = chunk_rows(n_clients, dim, budget)
                assert 1 <= rows <= context.CHUNK_ROWS
                assert rows == 1 or rows * n_clients * dim * 8 <= budget


def test_augmented_rows_do_not_depend_on_chunking(monkeypatch):
    store, embs, clients, own, a = random_case(7)
    calls = []
    lookup = EmbeddingStore.query_many

    def counted(self, times, exclude=None):
        calls.append(len(times))
        return lookup(self, times, exclude)

    monkeypatch.setattr(EmbeddingStore, "query_many", counted)
    n = sum(len(emb) for emb in embs)
    assert n > 1
    for method in AGGREGATION_METHODS:
        m = a if method == "learnable" else None
        monkeypatch.setattr(context, "CHUNK_BYTES", 1)
        calls.clear()
        one = window_augmenter(store, method, m)(embs)
        assert calls == [1] * n
        one_global = global_augmenter(store, method, m)(clients, own)
        monkeypatch.setattr(context, "CHUNK_BYTES", 1 << 30)
        calls.clear()
        whole = window_augmenter(store, method, m)(embs)
        assert calls == [n]
        for x, y in zip(one, whole):
            np.testing.assert_allclose(x.matrix, y.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(one_global, global_augmenter(store, method, m)(clients, own),
                                   rtol=0, atol=1e-12)


# -- the batched attention fit -------------------------------------------------

def test_attention_loss_gradient_with_a_contextless_sample(rng):
    b, c, d = 4, 3, 3
    own = rng.normal(size=(b, d))
    valid = np.array([[True, True, False], [True, False, True],
                      [False, False, False], [True, True, True]])
    x = np.where(valid[:, :, None], rng.normal(size=(b, c, d)), 0.0)
    ids = np.array(["p", "p", "q", "q"])
    a0 = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    # A margin above the largest distance of unit rows keeps every hinge on.
    err = grad_check(lambda a: attention_loss(a, own, x, valid, ids, margin=2.5), [a0])
    assert err < 1e-6
    with Tape() as tape:
        a = Tensor(a0, requires_grad=True)
        loss = attention_loss(a, own, x, valid, ids)
    assert np.any(backward(tape, loss)[a.maybe_node_id(tape)] != 0.0)


def loop_fit(model, store, clients, epochs, lr, seed, n_slices, length_range,
             clients_per_batch, margin):
    """The attention fit one sample at a time: each slice embedded alone and
    attended over its own candidate rows on the tape."""
    d = store.dim
    rng = np.random.default_rng((seed, 37))
    a = Tensor(np.eye(d) + 0.01 * rng.normal(size=(d, d)), requires_grad=True)
    optimizer = Adam([a], lr=lr)
    history, contextless = [], 0
    for _ in range(epochs):
        order = rng.permutation(len(clients))
        total, batches = 0.0, 0
        for lo in range(0, len(order), clients_per_batch):
            subset = [clients[i] for i in order[lo : lo + clients_per_batch]]
            samples = coles_sample_subsequences(
                subset, n_slices=n_slices, length_range=length_range, seed=rng)
            if len({s.client_index for s in samples}) < 2:
                continue
            own, ctxs, ids = [], [], []
            for s in samples:
                seq = subset[s.client_index]
                own.append(embed_pooled(model.encoder, seq.mcc_idx[s.start : s.end],
                                        seq.amounts_t[s.start : s.end], [0],
                                        [s.end - s.start], model.pool_strategy)[0])
                ctxs.append(brute_rows(store, seq.client_id, seq.timestamps[s.end - 1]))
                ids.append(seq.client_id)
            with Tape() as tape:
                rows = []
                for h, x in zip(own, ctxs):
                    if len(x) == 0:
                        contextless += 1
                        rows.append(Tensor(np.zeros((1, d))))
                        continue
                    scores = matmul(Tensor(x[None, :, :]),
                                    reshape(matmul(a, Tensor(h[:, None])), (1, d, 1)))
                    weights = softmax_op(reshape(scores, (1, len(x))))
                    rows.append(matmul(weights, Tensor(x)))
                augmented = concat([Tensor(np.stack(own)), concat(rows, axis=0)], axis=1)
                loss = contrastive_loss(normalize_rows(augmented), np.array(ids),
                                        margin=margin)
            optimizer.step([backward(tape, loss)[a.maybe_node_id(tape)]])
            total += loss.item()
            batches += 1
        history.append(total / batches)
    return a.data.copy(), history, contextless


def test_batched_fit_matches_the_per_sample_loop(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 20][:8]
    full = build_store(frozen, clients, max_clients=8, window=16, stride=8)
    # Keep only late rows, so slices that end early find no context.
    store = EmbeddingStore(dim=full.dim)
    for cid, (ts, m) in full.series.items():
        late = ts >= np.median(ts)
        store.add_series(cid, ts[late], m[late])
    kwargs = dict(epochs=1, lr=0.05, seed=3, n_slices=2, length_range=(10, 40),
                  clients_per_batch=4, margin=0.5)
    a, history = train_attention_matrix(frozen, store, clients, **kwargs)
    want_a, want_history, contextless = loop_fit(frozen, store, clients, **kwargs)
    assert contextless > 0
    assert len(history) == 1
    np.testing.assert_allclose(a, want_a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(history, want_history, rtol=0, atol=1e-12)
