"""End-to-end pipeline drivers on a small synthetic dataset."""
import dataclasses

import numpy as np
import pytest

from seqrep.data.ingest import (
    write_change_points_csv,
    write_labels_csv,
    write_local_labels_csv,
    write_transactions_csv,
)
import seqrep.evaluation.protocol as protocol
import seqrep.pipeline as pipeline
from seqrep.config import make_probe_config
from seqrep.context import global_augmenter, window_augmenter
from seqrep.evaluation.heads import MetricReport
from seqrep.evaluation.protocol import (
    eval_from_matrices,
    global_embeddings,
    local_window_dataset,
    next_code_dataset,
)
from seqrep.evaluation.windows import sliding_window_embed_many
from seqrep.data.splice import splice_pair
from seqrep.evaluation.cpd import pair_distance_curve
from seqrep.evaluation.windows import window_index
from seqrep.pipeline import (
    TASKS,
    Splits,
    _crop_seq,
    build_context,
    compare_objectives,
    cpd_analysis,
    evaluate_model,
    load_dataset,
    prepare_splits,
    splice_analysis,
    train_model,
)
from conftest import small_config


def test_load_dataset_synthetic_carries_annotations(tiny_cfg):
    dataset = load_dataset(tiny_cfg)
    assert len(dataset) == tiny_cfg.get("data.n_clients")
    assert all(c.global_label is not None for c in dataset)
    assert all(c.local_labels is not None for c in dataset)
    assert any(c.change_point is not None for c in dataset)


def test_load_dataset_seed_override(tiny_cfg):
    base = load_dataset(tiny_cfg)
    same = load_dataset(tiny_cfg)
    other = load_dataset(tiny_cfg, seed=123)
    assert np.array_equal(base.clients[0].amounts, same.clients[0].amounts)
    assert not np.array_equal(base.clients[0].amounts, other.clients[0].amounts)


def test_load_dataset_from_csv_round_trips(tiny_cfg, tmp_path):
    dataset = load_dataset(tiny_cfg)
    write_transactions_csv(dataset, tmp_path / "transactions.csv")
    write_labels_csv({c.client_id: c.global_label for c in dataset},
                     tmp_path / "labels.csv")
    write_local_labels_csv(dataset, tmp_path / "local_labels.csv")
    write_change_points_csv(dataset, tmp_path / "change_points.csv")

    loaded = load_dataset(tiny_cfg, data_dir=tmp_path)
    by_id = {c.client_id: c for c in loaded}
    assert sorted(by_id) == sorted(c.client_id for c in dataset)
    for c in dataset:
        twin = by_id[c.client_id]
        np.testing.assert_array_equal(twin.mcc, c.mcc)
        np.testing.assert_allclose(twin.amounts, c.amounts, rtol=1e-9)
        assert twin.global_label == c.global_label
        np.testing.assert_array_equal(twin.local_labels, c.local_labels)
        assert twin.change_point == c.change_point


def test_prepare_splits_fits_vocab_on_train_only(tiny_cfg):
    splits = prepare_splits(tiny_cfg, load_dataset(tiny_cfg))
    train_codes = set()
    for c in splits.train:
        train_codes.update(int(m) for m in c.mcc)
    assert set(splits.vocab.mapping).issubset(train_codes)
    counts = splits.counts()
    assert counts["train"] + counts["val"] + counts["test"] == len(
        splits.all_clients)
    assert isinstance(splits, Splits)


def test_train_model_produces_usable_result(tiny_cfg, tiny_splits):
    result = train_model(tiny_cfg, tiny_splits, seed=0, objective="ar")
    assert result.model.objective == "ar"
    assert len(result.history) == tiny_cfg.get("train.epochs")
    assert result.best_val == min(e.val_loss for e in result.history)


def test_train_model_supervised_infers_classes(tiny_splits):
    cfg = small_config(**{"train.epochs": 1})
    result = train_model(cfg, tiny_splits, seed=0, objective="supervised")
    assert result.model.objective == "supervised"


@pytest.fixture(scope="module")
def ar_model(tiny_cfg, tiny_splits):
    return train_model(tiny_cfg, tiny_splits, seed=0, objective="ar").model


def test_build_context_mean_has_no_attention(tiny_cfg, tiny_splits, ar_model):
    store, attention = build_context(tiny_cfg, ar_model, tiny_splits, seed=0)
    assert attention is None
    assert len(store) <= tiny_cfg.get("context.store_size")
    assert store.dim == ar_model.encoder.hidden


def test_build_context_learnable_fits_matrix(tiny_splits, ar_model):
    cfg = small_config(**{"context.method": "learnable",
                          "context.attn_epochs": 1})
    store, attention = build_context(cfg, ar_model, tiny_splits, seed=0)
    assert attention is not None
    assert attention.shape == (store.dim, store.dim)


def test_evaluate_model_payload_shape(tiny_cfg, tiny_splits, ar_model):
    payload, timings = evaluate_model(tiny_cfg, ar_model, tiny_splits)
    assert payload["objective"] == "ar"
    assert payload["config_digest"] == tiny_cfg.digest
    assert set(payload["tasks"]) == {"global", "local_binary", "next_mcc"}
    for block in payload["tasks"].values():
        assert set(block) >= {"seeds", "per_seed", "mean", "std"}
        assert len(block["seeds"]) == tiny_cfg.get("eval.n_seeds")
    assert set(timings["seconds"]) == set(payload["tasks"])
    assert set(timings) == {"seconds", "embed_seconds"}
    assert timings["embed_seconds"] > 0.0


def test_evaluate_model_task_filter_and_context(tiny_cfg, tiny_splits, ar_model):
    store, _ = build_context(tiny_cfg, ar_model, tiny_splits, seed=0)
    payload, _ = evaluate_model(tiny_cfg, ar_model, tiny_splits, store=store,
                                tasks=("next_mcc", "local_binary_context"))
    assert set(payload["tasks"]) == {"next_mcc", "local_binary_context"}
    assert payload["context_method"] == tiny_cfg.get("context.method")


def test_evaluate_model_rejects_unknown_task_names(tiny_cfg, tiny_splits, ar_model):
    with pytest.raises(ValueError, match="globl") as err:
        evaluate_model(tiny_cfg, ar_model, tiny_splits, tasks=("globl", "next_mcc"))
    for name in TASKS:
        assert name in str(err.value)


def test_evaluate_model_skips_context_tasks_without_a_store(tiny_cfg, tiny_splits,
                                                            ar_model):
    payload, _ = evaluate_model(tiny_cfg, ar_model, tiny_splits,
                                tasks=("next_mcc", "global_context"))
    assert set(payload["tasks"]) == {"next_mcc"}


def _reference_tasks(cfg, model, splits, store, attention, seeds):
    """Report of the per-task loop: every task and probe seed embeds its
    splits anew (and widens them anew), then fits one probe."""
    window, stride = cfg.get("eval.window"), cfg.get("eval.stride")
    probe_cfg = make_probe_config(cfg)
    method = cfg.get("context.method")
    win_aug = window_augmenter(store, method, attention)
    glob_aug = global_augmenter(store, method, attention)
    fit_clients = splits.train + splits.val
    n_codes = splits.vocab.k

    def windows(clients, augment):
        embs = sliding_window_embed_many(model.encoder, clients, window, stride,
                                         model.pool_strategy)
        return embs if augment is None else augment(embs)

    def globals_(clients, augment):
        x = global_embeddings(model, clients)
        x = x if augment is None else augment(clients, x)
        return x, np.array([c.global_label for c in clients])

    def global_task(augment=None):
        (fx, fy), (tx, ty) = globals_(fit_clients, augment), globals_(splits.test, augment)
        return fx, fy, tx, ty, max(2, int(max(fy.max(), ty.max())) + 1)

    def local_task(augment=None):
        fit = local_window_dataset(splits.train, windows(splits.train, augment))
        test = local_window_dataset(splits.test, windows(splits.test, augment))
        return (*fit, *test, 2)

    def next_task():
        fit = next_code_dataset(splits.train, windows(splits.train, None), n_codes)
        test = next_code_dataset(splits.test, windows(splits.test, None), n_codes)
        return (*fit, *test, n_codes)

    tasks = {
        "global": global_task,
        "local_binary": local_task,
        "next_mcc": next_task,
        "global_context": lambda: global_task(glob_aug),
        "local_binary_context": lambda: local_task(win_aug),
    }
    out = {}
    for name, make in tasks.items():
        report = MetricReport()
        for seed in seeds:
            report.add(seed, eval_from_matrices(*make(), probe_cfg, seed))
        out[name] = report.summary()
    return out


def test_evaluate_model_matches_per_task_reference(tiny_splits, ar_model):
    cfg = small_config(**{"context.method": "learnable",
                          "context.attn_epochs": 1, "eval.n_seeds": 2})
    store, attention = build_context(cfg, ar_model, tiny_splits, seed=0)
    payload, _ = evaluate_model(cfg, ar_model, tiny_splits, base_seed=5,
                                store=store, attention=attention)
    expected = _reference_tasks(cfg, ar_model, tiny_splits, store, attention,
                                seeds=[5, 6])
    assert list(payload["tasks"]) == list(expected)
    assert payload["tasks"] == expected


@pytest.fixture()
def embed_calls(monkeypatch):
    calls = {"windows": 0, "globals": 0}
    real_windows = protocol.sliding_window_embed_many
    real_globals = protocol.global_embeddings

    def windows(*args, **kwargs):
        calls["windows"] += 1
        return real_windows(*args, **kwargs)

    def globals_(*args, **kwargs):
        calls["globals"] += 1
        return real_globals(*args, **kwargs)

    monkeypatch.setattr(protocol, "sliding_window_embed_many", windows)
    monkeypatch.setattr(protocol, "global_embeddings", globals_)
    return calls


@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("with_store", [False, True])
def test_evaluate_model_embeds_each_split_once(tiny_splits, ar_model,
                                               embed_calls, n_seeds, with_store):
    cfg = small_config(**{"eval.n_seeds": n_seeds, "eval.probe_epochs": 1})
    store = build_context(cfg, ar_model, tiny_splits)[0] if with_store else None
    embed_calls.update(windows=0, globals=0)
    payload, _ = evaluate_model(cfg, ar_model, tiny_splits, store=store)
    assert len(payload["tasks"]) == (5 if with_store else 3)
    assert embed_calls == {"windows": 2, "globals": 2}


def test_evaluate_model_task_filter_embeds_only_what_it_needs(
        tiny_cfg, tiny_splits, ar_model, embed_calls):
    evaluate_model(tiny_cfg, ar_model, tiny_splits, tasks=("global",))
    assert embed_calls == {"windows": 0, "globals": 2}


def test_evaluate_model_skips_missing_labels(tiny_cfg, tiny_splits, ar_model):
    stripped = Splits(
        train=[dataclasses.replace(c, global_label=None)
               for c in tiny_splits.train],
        val=[dataclasses.replace(c, global_label=None) for c in tiny_splits.val],
        test=[dataclasses.replace(c, global_label=None)
              for c in tiny_splits.test],
        vocab=tiny_splits.vocab,
    )
    payload, _ = evaluate_model(tiny_cfg, ar_model, stripped)
    assert "global" not in payload["tasks"]
    assert "next_mcc" in payload["tasks"]


def test_cpd_analysis_payload(tiny_cfg, tiny_splits, ar_model):
    payload, sweep = cpd_analysis(tiny_cfg, ar_model, tiny_splits.all_clients,
                                  margins=(0, 5, 10))
    assert payload["n_clients"] > 0
    assert set(payload["accuracy_by_margin"]) == {"0", "5", "10"}
    assert [m for m, _ in sweep] == [0, 5, 10]
    # Wider margins can only help.
    accs = [a for _, a in sweep]
    assert accs == sorted(accs)
    assert payload["detection_delay"] >= 0.0


def test_cpd_analysis_requires_planted_points(tiny_cfg, tiny_splits, ar_model):
    clean = [dataclasses.replace(c, change_point=None)
             for c in tiny_splits.train]
    with pytest.raises(ValueError, match="change point"):
        cpd_analysis(tiny_cfg, ar_model, clean)


def test_cpd_analysis_is_deterministic(tiny_cfg, tiny_splits, ar_model):
    a, _ = cpd_analysis(tiny_cfg, ar_model, tiny_splits.test)
    b, _ = cpd_analysis(tiny_cfg, ar_model, tiny_splits.test)
    assert a == b


def test_splice_analysis_payload(tiny_splits, ar_model):
    cfg = small_config(**{"eval.window": 16, "eval.stride": 8})
    out = splice_analysis(cfg, ar_model, tiny_splits.train, n_pairs=4, seed=0,
                          offsets=(-2, 0, 2))
    assert out["n_pairs"] == 4
    assert out["offsets"] == [-2, 0, 2]
    assert set(out["converge_mean_distance"]) == {"-2", "0", "2"}
    assert set(out["diverge_mean_distance"]) == {"-2", "0", "2"}


def splice_analysis_per_call(cfg, model, clients, n_pairs, seed, offsets):
    """splice_analysis with one encoder call per donor and per splice, as it
    was written before it embedded a study in one call: the == oracle."""
    window, stride = cfg.get("eval.window"), cfg.get("eval.stride")
    rng = np.random.default_rng((seed, 41))
    usable = [c for c in clients if len(c) >= 2 * window]
    curves = {"converge": {o: [] for o in offsets}, "diverge": {o: [] for o in offsets}}
    for _ in range(n_pairs):
        i, j = rng.choice(len(usable), size=2, replace=False)
        length = min(len(usable[i]), len(usable[j]))
        a, b = _crop_seq(usable[i], length), _crop_seq(usable[j], length)
        donor = sliding_window_embed_many(model.encoder, [a], window, stride,
                                          model.pool_strategy)[0]
        for mode in ("converge", "diverge"):
            spliced, tau = splice_pair(a, b, mode)
            emb = sliding_window_embed_many(model.encoder, [spliced], window, stride,
                                            model.pool_strategy)[0]
            if len(emb) == 0 or len(donor) == 0:
                continue
            n = min(len(emb), len(donor))
            curve = pair_distance_curve(emb.matrix[:n], donor.matrix[:n])
            for o in offsets:
                k = window_index(tau, window, stride) + o
                if 0 <= k < n:
                    curves[mode][o].append(float(curve[k]))
    return {mode: {str(o): float(np.mean(v)) if v else None for o, v in c.items()}
            for mode, c in curves.items()}


def test_splice_analysis_embeds_a_study_in_one_call_with_the_same_report(
        tiny_splits, ar_model, monkeypatch):
    cfg = small_config(**{"eval.window": 16, "eval.stride": 8})
    offsets = (-4, -2, 0, 2, 4, 10, 20)
    want = splice_analysis_per_call(cfg, ar_model, tiny_splits.train, 7, 3, offsets)
    calls = []
    real = pipeline.sliding_window_embed_many

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sliding_window_embed_many", counted)
    out = splice_analysis(cfg, ar_model, tiny_splits.train, n_pairs=7, seed=3,
                          offsets=offsets)
    assert calls == [3 * 7]
    assert out["n_pairs"] == 7
    assert out["converge_mean_distance"] == want["converge"]
    assert out["diverge_mean_distance"] == want["diverge"]
    assert any(v is not None for v in want["diverge"].values())


def test_splice_analysis_needs_long_clients(tiny_cfg, tiny_splits, ar_model):
    with pytest.raises(ValueError, match="long enough"):
        splice_analysis(tiny_cfg, ar_model, tiny_splits.train[:1])


def test_compare_objectives_structure(tiny_splits):
    cfg = small_config(**{"train.epochs": 1})
    out = compare_objectives(cfg, tiny_splits, objectives=("ar",), seeds=(0,),
                             tasks=("next_mcc",))
    assert set(out) == {"ar"}
    rep = out["ar"]["next_mcc"]
    assert isinstance(rep, MetricReport)
    assert list(rep.per_seed) == [0]


def test_compare_objectives_rejects_repeated_seeds(tiny_cfg, tiny_splits):
    # A repeated seed would retrain and overwrite the first seed's scores.
    with pytest.raises(ValueError, match="duplicate seeds"):
        compare_objectives(tiny_cfg, tiny_splits, objectives=("ar",), seeds=(0, 1, 0),
                           tasks=("next_mcc",))
