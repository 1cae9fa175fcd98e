"""Evaluation protocol: embedding matrices, dataset assembly, probe wiring."""
import dataclasses

import numpy as np
import pytest

from seqrep.config import make_encoder_config
from seqrep.data.types import ClientSequence
from seqrep.encoders import GruEncoder
from seqrep.evaluation.heads import ProbeConfig
import seqrep.evaluation.protocol as protocol
from seqrep.evaluation.protocol import (
    EmbeddedSplits,
    FrozenModel,
    eval_from_matrices,
    eval_global,
    eval_local_binary,
    eval_next_mcc,
    global_dataset,
    global_embeddings,
    local_window_dataset,
    next_code_dataset,
)
from seqrep.evaluation.windows import sliding_window_embed_many, window_ends

PROBE = ProbeConfig(hidden=8, epochs=3)


@pytest.fixture(scope="module")
def frozen(tiny_cfg, tiny_splits):
    enc_cfg = make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)
    return FrozenModel(encoder=GruEncoder(enc_cfg, seed=0),
                       pool_strategy="last")


def test_global_embeddings_align_with_client_order(frozen, tiny_clients):
    clients = tiny_clients[:10]
    x = global_embeddings(frozen, clients)
    assert x.shape == (10, frozen.encoder.hidden)
    # Chunked batching may shuffle computation order but not row identity.
    single = global_embeddings(frozen, [clients[3]])
    np.testing.assert_allclose(x[3], single[0], atol=1e-10)


def test_global_embeddings_validation(frozen, tiny_clients):
    with pytest.raises(ValueError):
        global_embeddings(frozen, [])
    raw = dataclasses.replace(tiny_clients[0], mcc_idx=None)
    with pytest.raises(ValueError, match="vocabulary"):
        global_embeddings(frozen, [raw])


def test_eval_from_matrices_learns_separable(rng):
    x = rng.normal(size=(200, 5))
    y = (x[:, 0] > 0).astype(np.int64)
    x[y == 1] += 4.0
    metrics = eval_from_matrices(x, y, x, y, 2,
                                 ProbeConfig(hidden=8, epochs=20, batch_size=32),
                                 seed=0)
    assert set(metrics) >= {"roc_auc", "pr_auc", "accuracy"}
    assert metrics["roc_auc"] > 0.95


def _windows(frozen, clients, window, stride):
    return sliding_window_embed_many(frozen.encoder, list(clients), window,
                                     stride, frozen.pool_strategy)


def test_eval_global_calls_augment_on_both_splits(frozen, tiny_splits):
    calls = []

    def widen(clients, x):
        calls.append(len(clients))
        return np.concatenate([x, np.zeros((len(x), 1))], axis=1)

    emb = EmbeddedSplits(frozen, tiny_splits.train, tiny_splits.val,
                         tiny_splits.test, global_augment=widen)
    fit, test = emb.datasets("global_context")
    metrics = eval_global(fit, test, probe_cfg=PROBE, seed=0)
    assert len(calls) == 2
    assert calls[0] == len(tiny_splits.train) + len(tiny_splits.val)
    assert calls[1] == len(tiny_splits.test)
    assert fit[0].shape[1] == frozen.encoder.hidden + 1
    assert 0.0 <= metrics["roc_auc"] <= 1.0
    # The widened matrices are kept: asking again augments nothing more.
    emb.datasets("global_context")
    assert len(calls) == 2


def test_eval_global_requires_labels(frozen, tiny_splits):
    bad = [dataclasses.replace(c, global_label=None)
           for c in tiny_splits.train[:4]]
    with pytest.raises(ValueError, match="global label"):
        EmbeddedSplits(frozen, bad, [], tiny_splits.test).datasets("global")
    with pytest.raises(ValueError, match="global label"):
        global_dataset(bad, np.zeros((4, 3)))


def test_local_window_dataset_labels_window_ends(frozen, tiny_clients):
    clients = [c for c in tiny_clients if len(c) >= 8][:6]
    xs, ys = local_window_dataset(clients, _windows(frozen, clients, 8, 4))
    expected = np.concatenate([
        c.local_labels[window_ends(len(c), 8, 4) - 1] for c in clients
    ])
    np.testing.assert_array_equal(ys, expected)
    assert xs.shape == (len(expected), frozen.encoder.hidden)


def test_local_window_dataset_no_windows_raises(frozen, tiny_clients):
    embs = _windows(frozen, tiny_clients[:3], 10**6, 16)
    with pytest.raises(ValueError, match="no windows"):
        local_window_dataset(tiny_clients[:3], embs)


def _plain_sequence(client_id, mcc_idx, n_codes):
    n = len(mcc_idx)
    return ClientSequence(
        client_id=client_id,
        timestamps=np.arange(n, dtype=np.int64),
        mcc=np.asarray(mcc_idx, dtype=np.int64),
        amounts=np.ones(n),
        mcc_idx=np.asarray(mcc_idx, dtype=np.int64),
    )


def test_next_code_dataset_skips_sequence_end_and_oov(frozen, tiny_splits):
    n_codes = tiny_splits.vocab.k
    idx = np.ones(12, dtype=np.int64)
    idx[4] = n_codes + 1          # out-of-vocabulary bucket
    idx[8] = 5
    seq = _plain_sequence("crafted", idx, n_codes)
    # ends are [4, 8, 12]; 12 is the sequence end, 4 hits the OOV target.
    embs = _windows(frozen, [seq], 4, 4)
    xs, ys = next_code_dataset([seq], embs, n_codes)
    np.testing.assert_array_equal(ys, [4])
    np.testing.assert_array_equal(xs, embs[0].matrix[1:2])


def test_next_code_dataset_validation(frozen, tiny_clients):
    embs = _windows(frozen, tiny_clients[:2], 32, 16)
    with pytest.raises(ValueError, match="two code classes"):
        next_code_dataset(tiny_clients[:2], embs, n_codes=1)
    all_oov = _plain_sequence("oov", np.full(12, 13), 12)
    with pytest.raises(ValueError, match="in-vocabulary"):
        next_code_dataset([all_oov], _windows(frozen, [all_oov], 4, 4), n_codes=12)


def test_eval_local_binary_runs(frozen, tiny_splits):
    emb = EmbeddedSplits(frozen, tiny_splits.train[:8], [], tiny_splits.test[:8],
                         window=16, stride=8)
    metrics = eval_local_binary(*emb.datasets("local_binary"),
                                probe_cfg=PROBE, seed=0)
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_eval_local_binary_augment_widens_rows(frozen, tiny_splits):
    def doubler(embs):
        return [dataclasses.replace(e, matrix=np.concatenate(
            [e.matrix, e.matrix], axis=1)) for e in embs]

    emb = EmbeddedSplits(frozen, tiny_splits.train[:4], [], tiny_splits.test[:4],
                         window=16, stride=8, window_augment=doubler)
    (xs, _), _ = emb.datasets("local_binary_context")
    assert xs.shape[1] == 2 * frozen.encoder.hidden
    (plain, _), _ = emb.datasets("local_binary")
    np.testing.assert_array_equal(xs, np.concatenate([plain, plain], axis=1))


def test_eval_next_mcc_runs(frozen, tiny_splits):
    emb = EmbeddedSplits(frozen, tiny_splits.train[:8], [], tiny_splits.test[:8],
                         window=16, stride=8)
    n_codes = tiny_splits.vocab.k
    metrics = eval_next_mcc(*emb.datasets("next_mcc", n_codes), n_codes,
                            probe_cfg=PROBE, seed=0)
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_embedded_splits_embed_each_split_once(frozen, tiny_splits, monkeypatch):
    calls = []
    real_windows = protocol.sliding_window_embed_many
    real_globals = protocol.global_embeddings
    monkeypatch.setattr(protocol, "sliding_window_embed_many",
                        lambda enc, clients, *a: calls.append(("windows", len(clients)))
                        or real_windows(enc, clients, *a))
    monkeypatch.setattr(protocol, "global_embeddings",
                        lambda model, clients: calls.append(("globals", len(clients)))
                        or real_globals(model, clients))
    emb = EmbeddedSplits(frozen, tiny_splits.train, tiny_splits.val,
                         tiny_splits.test, window=16, stride=8,
                         window_augment=lambda embs: embs,
                         global_augment=lambda clients, x: x)
    n_codes = tiny_splits.vocab.k
    emb.datasets("next_mcc", n_codes)
    assert calls == [("windows", len(tiny_splits.train)),
                     ("windows", len(tiny_splits.test))]
    for task in ("local_binary", "local_binary_context", "next_mcc",
                 "global", "global_context"):
        emb.datasets(task, n_codes)
    fit = len(tiny_splits.train) + len(tiny_splits.val)
    assert calls[2:] == [("globals", fit), ("globals", len(tiny_splits.test))]


def test_embedded_splits_rejects_unknown_and_unwidened(frozen, tiny_splits):
    emb = EmbeddedSplits(frozen, tiny_splits.train[:4], [], tiny_splits.test[:4],
                         window=16, stride=8)
    with pytest.raises(ValueError, match="unknown task"):
        emb.datasets("next_mcc_context", 12)
    with pytest.raises(ValueError, match="augmenter"):
        emb.datasets("local_binary_context")
    with pytest.raises(ValueError, match="augmenter"):
        emb.datasets("global_context")
