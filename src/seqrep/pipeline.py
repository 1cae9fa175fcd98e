"""End-to-end drivers shared by the command line and tests.

Everything here is a pure function of (config, seed, input files): datasets,
splits, vocabularies, trained models, evaluation reports, and change-point
analyses all reproduce bit for bit given the same inputs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import (
    Config,
    make_encoder_config,
    make_probe_config,
    make_synthetic_config,
    make_train_config,
)
from .context import (
    EmbeddingStore,
    build_store,
    global_augmenter,
    train_attention_matrix,
    window_augmenter,
)
from .data.ingest import (
    attach_annotations,
    ingest_csv,
    load_change_points,
    load_labels,
    load_local_labels,
)
from .data.preprocess import derive_local_labels, fit_mcc_vocab, split_dataset
from .data.splice import splice_pair
from .data.synthetic import generate_synthetic
from .data.types import ClientSequence, Dataset, MccVocab
from .evaluation.cpd import (
    detect_change_point,
    detection_accuracy,
    detection_delay,
    pair_distance_curve,
)
from .evaluation.heads import MetricReport, run_seeds
from .evaluation.protocol import (
    EmbeddedSplits,
    eval_global,
    eval_local_binary,
    eval_next_mcc,
)
from .evaluation.windows import sliding_window_embed_many, window_index
from .objectives.models import build_model
from .objectives.train import TrainResult, train

__all__ = [
    "Splits",
    "load_dataset",
    "prepare_splits",
    "train_model",
    "build_context",
    "evaluate_model",
    "cpd_analysis",
    "splice_analysis",
    "compare_objectives",
]

logger = logging.getLogger("seqrep.pipeline")


@dataclass
class Splits:
    train: list[ClientSequence]
    val: list[ClientSequence]
    test: list[ClientSequence]
    vocab: MccVocab

    @property
    def all_clients(self) -> list[ClientSequence]:
        return self.train + self.val + self.test

    def counts(self) -> dict[str, int]:
        return {"train": len(self.train), "val": len(self.val),
                "test": len(self.test)}


def load_dataset(cfg: Config, data_dir: Optional[str | Path] = None,
                 seed: Optional[int] = None) -> Dataset:
    """Synthetic dataset from the config, or CSV files from `data_dir`.

    A directory must hold transactions.csv; labels.csv, local_labels.csv and
    change_points.csv are attached when present. Synthetic data carries all
    annotations already. `seed` overrides the config's generation seed.
    """
    if data_dir is None:
        syn = make_synthetic_config(cfg)
        return generate_synthetic(syn, seed=seed)
    directory = Path(data_dir)
    dataset = ingest_csv(directory / "transactions.csv")
    labels = local = cps = None
    if (directory / "labels.csv").exists():
        labels = load_labels(directory / "labels.csv")
    if (directory / "local_labels.csv").exists():
        local = load_local_labels(directory / "local_labels.csv")
    if (directory / "change_points.csv").exists():
        cps = load_change_points(directory / "change_points.csv")
    dataset = attach_annotations(dataset, labels=labels, local_labels=local,
                                 change_points=cps)
    if local is None and labels is not None:
        dataset = derive_local_labels(dataset,
                                      horizon_days=cfg.get("data.horizon_days"))
    return dataset


def prepare_splits(cfg: Config, dataset: Dataset) -> Splits:
    """Client-level splits with the vocabulary fitted on train only."""
    ratios = (cfg.get("split.train"), cfg.get("split.val"), cfg.get("split.test"))
    train_ds, val_ds, test_ds = split_dataset(dataset, ratios=ratios,
                                              seed=cfg.get("split.seed"))
    vocab = fit_mcc_vocab(train_ds.clients, k=cfg.get("vocab.k"))
    return Splits(
        train=train_ds.with_vocab(vocab).clients,
        val=val_ds.with_vocab(vocab).clients,
        test=test_ds.with_vocab(vocab).clients,
        vocab=vocab,
    )


def _n_classes(clients: Sequence[ClientSequence]) -> int:
    labels = [c.global_label for c in clients if c.global_label is not None]
    if not labels:
        raise ValueError("no global labels in the dataset")
    return max(2, int(max(labels)) + 1)


def train_model(cfg: Config, splits: Splits, seed: int,
                objective: Optional[str] = None) -> TrainResult:
    """Train the configured objective (or an explicit one) on the splits."""
    train_cfg = make_train_config(cfg)
    obj = objective if objective is not None else cfg.get("train.objective")
    enc_cfg = make_encoder_config(cfg, splits.vocab.n_indices)
    n_classes = _n_classes(splits.all_clients) if obj == "supervised" else None
    model = build_model(obj, enc_cfg, train_cfg, seed=seed, n_classes=n_classes)
    logger.info("training %s for %d epochs on %d clients",
                obj, train_cfg.epochs, len(splits.train))
    return train(model, splits.train, splits.val, epochs=train_cfg.epochs,
                 lr=train_cfg.lr, seed=seed)


def build_context(cfg: Config, model, splits: Splits,
                  seed: int = 0) -> tuple[EmbeddingStore, Optional[np.ndarray]]:
    """Embedding store over all clients; plus the attention matrix when
    the configured aggregation is learnable."""
    store = build_store(
        model, splits.all_clients,
        max_clients=cfg.get("context.store_size"),
        window=cfg.get("eval.window"), stride=cfg.get("eval.stride"),
        seed=seed,
    )
    attention = None
    if cfg.get("context.method") == "learnable":
        attention, history = train_attention_matrix(
            model, store, splits.train,
            epochs=cfg.get("context.attn_epochs"),
            lr=cfg.get("context.attn_lr"), seed=seed,
        )
        logger.info("attention matrix fitted, loss %s",
                    [round(h, 5) for h in history])
    return store, attention


# Every probe task, in report order; "_context" tasks need a store.
TASKS = ("global", "local_binary", "next_mcc", "global_context",
         "local_binary_context")


def _score(task: str, fit, test, n_codes: int, probe_cfg, seed: int) -> dict:
    base = task.removesuffix("_context")
    if base == "global":
        return eval_global(fit, test, probe_cfg, seed)
    if base == "local_binary":
        return eval_local_binary(fit, test, probe_cfg, seed)
    return eval_next_mcc(fit, test, n_codes, probe_cfg, seed)


def _probe_tasks(emb: EmbeddedSplits, tasks: Sequence[str], n_codes: int,
                 probe_cfg, seeds: Sequence[int],
                 ) -> tuple[dict[str, MetricReport], dict[str, float], float]:
    """Each task's matrices built once from `emb`, then one probe per seed.

    Returns the reports, the probe seconds per task, and the seconds spent
    embedding and assembling the matrices.
    """
    results: dict[str, MetricReport] = {}
    seconds: dict[str, float] = {}
    embed_seconds = 0.0
    for task in tasks:
        t0 = time.perf_counter()
        fit, test = emb.datasets(task, n_codes)
        t1 = time.perf_counter()
        results[task] = run_seeds(
            lambda s: _score(task, fit, test, n_codes, probe_cfg, s), seeds)
        seconds[task] = time.perf_counter() - t1
        embed_seconds += t1 - t0
        logger.info("task %s: %s", task,
                    {k: round(v, 4) for k, v in results[task].mean().items()})
    return results, seconds, embed_seconds


def evaluate_model(cfg: Config, model, splits: Splits, base_seed: int = 0,
                   store: Optional[EmbeddingStore] = None,
                   attention: Optional[np.ndarray] = None,
                   tasks: Optional[Sequence[str]] = None,
                   ) -> tuple[dict, dict]:
    """Probe the frozen model on every applicable task.

    Each split is embedded once per call; seeds vary only the probes. Returns
    the report payload and a wall-time sidecar: probe seconds per task under
    "seconds", embedding and matrix assembly under "embed_seconds".
    """
    probe_cfg = make_probe_config(cfg)
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    n_seeds = cfg.get("eval.n_seeds")
    seeds = [base_seed + i for i in range(n_seeds)]
    method = cfg.get("context.method")

    has_global = all(c.global_label is not None for c in splits.all_clients)
    has_local = all(c.local_labels is not None for c in splits.all_clients)
    wanted = set(tasks) if tasks is not None else set(TASKS)
    unknown = sorted(wanted - set(TASKS))
    if unknown:
        raise ValueError(f"unknown task(s) {unknown}; valid tasks are {list(TASKS)}")
    chosen = [t for t in TASKS if t in wanted
              and (has_global or not t.startswith("global"))
              and (has_local or not t.startswith("local"))
              and (store is not None or not t.endswith("_context"))]

    win_aug = glob_aug = None
    if store is not None:
        win_aug = window_augmenter(store, method, attention)
        glob_aug = global_augmenter(store, method, attention)
    emb = EmbeddedSplits(model, splits.train, splits.val, splits.test,
                         window, stride, win_aug, glob_aug)
    results, seconds, embed_seconds = _probe_tasks(
        emb, chosen, splits.vocab.k, probe_cfg, seeds)

    payload = {
        "objective": getattr(model, "objective", "unknown"),
        "config_digest": cfg.digest,
        "clients": splits.counts(),
        "window": window,
        "stride": stride,
        "context_method": method if store is not None else None,
        "tasks": {name: rep.summary() for name, rep in results.items()},
    }
    return payload, {"seconds": seconds, "embed_seconds": embed_seconds}


def cpd_analysis(cfg: Config, model, clients: Sequence[ClientSequence],
                 margins: Sequence[int] = tuple(range(0, 21)),
                 ) -> tuple[dict, list[tuple[int, float]]]:
    """Detect change points on every client that has one planted.

    Returns the report payload and the (margin, accuracy) sweep rows.
    """
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    planted = [c for c in clients if c.change_point is not None]
    if not planted:
        raise ValueError("no clients with a known change point")
    embs = sliding_window_embed_many(model.encoder, planted, window, stride,
                                     model.pool_strategy)
    predicted, true = [], []
    skipped = 0
    for seq, emb in zip(planted, embs):
        if len(emb) < 4:
            skipped += 1
            continue
        res = detect_change_point(emb.matrix)
        predicted.append(res.split)
        true.append(window_index(seq.change_point, window, stride))
    if not predicted:
        raise ValueError("every planted-change-point client was too short")
    predicted = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    sweep = [(int(m), detection_accuracy(predicted, true, m)) for m in margins]
    payload = {
        "config_digest": cfg.digest,
        "n_clients": len(predicted),
        "n_skipped_short": skipped,
        "detection_delay": detection_delay(predicted, true),
        "accuracy_by_margin": {str(m): a for m, a in sweep},
        "window": window,
        "stride": stride,
    }
    return payload, sweep


def _crop_seq(seq: ClientSequence, length: int) -> ClientSequence:
    """First `length` transactions as a standalone sequence."""
    if length < 1 or length > len(seq):
        raise ValueError(f"cannot crop to {length} of {len(seq)}")
    return ClientSequence(
        client_id=seq.client_id,
        timestamps=seq.timestamps[:length].copy(),
        mcc=seq.mcc[:length].copy(),
        amounts=seq.amounts[:length].copy(),
        mcc_idx=None if seq.mcc_idx is None else seq.mcc_idx[:length].copy(),
        global_label=seq.global_label,
        local_labels=None if seq.local_labels is None
        else seq.local_labels[:length].copy(),
    )


def splice_analysis(cfg: Config, model, clients: Sequence[ClientSequence],
                    n_pairs: int = 100, seed: int = 0,
                    offsets: Sequence[int] = (-4, -2, 0, 2, 4, 10, 20, 40),
                    ) -> dict:
    """Distance curves between spliced sequences and one donor original.

    Each sampled pair (A, B) is cropped to a common length first, so the
    splice boundary sits at the same offset in both and the window grids of
    the spliced sequence and donor A align position by position. Converging
    splices (B head, A tail) should approach A after the boundary; diverging
    splices (A head, B tail) should match A before it and drift after.
    Distances are averaged at fixed window offsets from the boundary window.
    """
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    rng = np.random.default_rng((seed, 41))
    usable = [c for c in clients if len(c) >= 2 * window]
    if len(usable) < 2:
        raise ValueError("need at least two clients long enough to splice")

    modes = ("converge", "diverge")
    # Per pair: the donor A, then each splice with its boundary.
    pairs = []
    for _ in range(n_pairs):
        i, j = rng.choice(len(usable), size=2, replace=False)
        length = min(len(usable[i]), len(usable[j]))
        a = _crop_seq(usable[i], length)
        b = _crop_seq(usable[j], length)
        pairs.append([(a, 0)] + [splice_pair(a, b, mode) for mode in modes])
    # Every donor and splice in one encoder call.
    embs = iter(sliding_window_embed_many(
        model.encoder, [seq for group in pairs for seq, _ in group], window, stride,
        model.pool_strategy))

    curves = {mode: {o: [] for o in offsets} for mode in modes}
    for group in pairs:
        donor_emb = next(embs)
        for mode, (_, tau) in zip(modes, group[1:]):
            emb_s = next(embs)
            if len(emb_s) == 0 or len(donor_emb) == 0:
                continue
            tw = window_index(tau, window, stride)
            n = min(len(emb_s), len(donor_emb))
            curve = pair_distance_curve(emb_s.matrix[:n], donor_emb.matrix[:n])
            for o in offsets:
                k = tw + o
                if 0 <= k < n:
                    curves[mode][o].append(float(curve[k]))
    if not pairs:
        raise ValueError("could not build any splice pairs")

    def summarize(mode: str) -> dict:
        return {
            str(o): (float(np.mean(vals)) if vals else None)
            for o, vals in curves[mode].items()
        }

    return {
        "config_digest": cfg.digest,
        "n_pairs": len(pairs),
        "window": window,
        "stride": stride,
        "offsets": list(offsets),
        "converge_mean_distance": summarize("converge"),
        "diverge_mean_distance": summarize("diverge"),
    }


def compare_objectives(cfg: Config, splits: Splits,
                       objectives: Sequence[str], seeds: Sequence[int],
                       tasks: Sequence[str] = ("global", "next_mcc"),
                       ) -> dict[str, dict[str, MetricReport]]:
    """Retrain each objective per seed and probe the named tasks.

    The heavyweight comparison: the encoder is retrained for every
    (objective, seed) pair, so seed variance covers pretraining too. Each
    trained model's splits are embedded once for all its tasks.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {list(seeds)}")
    probe_cfg = make_probe_config(cfg)
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    out: dict[str, dict[str, MetricReport]] = {}
    for obj in objectives:
        reports = {t: MetricReport() for t in tasks}
        for seed in seeds:
            model = train_model(cfg, splits, seed=seed, objective=obj).model
            emb = EmbeddedSplits(model, splits.train, splits.val, splits.test,
                                 window, stride)
            done, _, _ = _probe_tasks(emb, tasks, splits.vocab.k, probe_cfg,
                                      [seed])
            for t in tasks:
                reports[t].add(seed, done[t].per_seed[seed])
        out[obj] = reports
    return out
