"""Workloads, stages and rounds of the seqrep benchmark.

A run generates one workload's inputs from the seed, writes them as CSV, and
sets up (ingest + annotations + splits) several times. It then repeats whole
rounds of the same six stages until the time is spent: train, checkpoint,
embed, context, evaluate, cpd. Every workload runs every stage, so every run
reports every end-to-end metric; the workloads differ in shape, so each layer
does most of its work in one workload and little in the others. Timings are
medians over setups or rounds; quality metrics repeat exactly in every round.
"""

from __future__ import annotations

import csv
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import seqrep.checkpoint as ck
import seqrep.data.synthetic as syn
import seqrep.evaluation.protocol as ep
import seqrep.evaluation.windows as ew
import seqrep.pipeline as pl
from seqrep.config import config_from_values, default_config, make_synthetic_config

import checks
from tracing import TokenCounter, Tracer

TRAIN_SEED = 0
SETUP_REPEATS = 5
LOADS_PER_ROUND = 3
SPLICE_PAIRS = 4
SAMPLED_WINDOWS = 8
SAMPLED_CLIENTS = 4
STAGES = ("train", "checkpoint", "embed", "context", "evaluate", "cpd")

# Every probe task but the context-widened global one, which no metric reads.
NO_GLOBAL_CONTEXT = ("global", "local_binary", "next_mcc", "local_binary_context")

# Settings shared by every workload; the model sizes follow the acceptance
# studies.
_MODEL = {
    "encoder.d_emb": 12,
    "encoder.hidden": 32,
    "train.lr": 0.01,
    "train.batch_size": 16,
    "train.max_len": 100,
    "train.clients_per_batch": 12,
    "train.slices_per_client": 4,
    "context.attn_epochs": 1,
    # Half the clients are test clients: the global probe scores one row per
    # test client, and fewer make its ROC-AUC swing from seed to seed.
    "split.train": 0.45,
    "split.val": 0.05,
    "split.test": 0.5,
    # The default rate leaves the probes far from fitted after their few
    # steps, so their scores move with the probe seed more than the encoder.
    "eval.probe_lr": 0.01,
}


@dataclass(frozen=True)
class Workload:
    """One input shape. `values` override the default config.

    `objectives` maps each trained objective to the number of train clients
    it sees and its epochs (None: all of them, the config's epochs); "ar"
    comes first and is the model every later stage serves. `evaluated` maps
    each probed objective to its tasks (None: all). `attention_clients` caps
    the clients the learnable context matrix is fitted on. `cpd_stride`
    replaces `eval.stride` in the change-point stage (None: keep it).
    `repeats` says how often a timed call is made per round of an untraced
    run, the median kept, for calls short enough that the machine's own
    drift (over 10% within seconds) would otherwise swamp them; unnamed
    calls, and every call of a traced run, are made once. `above_chance`
    and `properties` name the quality checks that hold at this size.
    """

    name: str
    values: dict
    objectives: dict
    evaluated: dict
    attention_clients: Optional[int]
    cpd_stride: Optional[int]
    repeats: dict
    above_chance: tuple
    properties: tuple

    def config(self, seed: int):
        values = dict(default_config().values)
        values.update(_MODEL)
        values.update(self.values)
        values["data.seed"] = seed
        return config_from_values(values)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pretrain_probe",
            values={
                "data.n_clients": 400,
                # Sharp change points, all into the distress regime, on half
                # the clients: at this training budget the detector clearly
                # beats a middle-window guess only on these, at a stride of 2.
                "data.cp_probability": 0.5,
                "data.cp_distress_prob": 1.0,
                "data.distress_blend": 1.0,
                "data.distress_amount_shift": -1.0,
                "train.epochs": 2,
                "eval.n_seeds": 1,
                "context.store_size": 16,
                "context.method": "learnable",
            },
            objectives={"ar": (None, None), "coles": (None, None), "mlm": (50, None)},
            evaluated={"ar": NO_GLOBAL_CONTEXT, "coles": ("global", "next_mcc")},
            attention_clients=16,
            cpd_stride=2,
            repeats={"windows": 3, "globals": 3, "build": 3, "augment": 5, "cpd": 2},
            above_chance=("next_mcc_roc_auc", "local_roc_auc"),
            properties=("cpd_beats_middle",),
        ),
        Workload(
            name="external_context",
            values={
                "data.n_clients": 400,
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
                "split.train": 0.3,
                "split.val": 0.05,
                "split.test": 0.65,
                "train.epochs": 2,
                "eval.n_seeds": 1,
                "context.store_size": 150,
                "context.method": "learnable",
            },
            objectives={"ar": (None, None), "mlm": (16, 1)},
            evaluated={"ar": None},
            attention_clients=None,
            cpd_stride=None,
            repeats={"windows": 2, "globals": 2, "augment": 3, "cpd": 2},
            above_chance=("next_mcc_roc_auc", "local_context_roc_auc"),
            properties=("context_helps",),
        ),
    )
}


class StageFailed(Exception):
    pass


def write_inputs(dataset, directory: Path) -> None:
    """The generated dataset as the four CSV files `load_dataset` reads."""
    with open(directory / "transactions.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["client_id", "timestamp", "mcc", "amount"])
        for c in dataset.clients:
            out.writerows(zip([c.client_id] * len(c), c.timestamps.tolist(),
                              c.mcc.tolist(), map(repr, c.amounts.tolist())))
    with open(directory / "labels.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["client_id", "label"])
        out.writerows((c.client_id, c.global_label) for c in dataset.clients)
    with open(directory / "local_labels.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["client_id", "txn_index", "label"])
        for c in dataset.clients:
            out.writerows(zip([c.client_id] * len(c), range(len(c)),
                              c.local_labels.tolist()))
    with open(directory / "change_points.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["client_id", "txn_index"])
        out.writerows((c.client_id, c.change_point) for c in dataset.clients
                      if c.change_point is not None)


def _subset(splits, n: Optional[int]):
    """Splits restricted to the first n train and validation clients."""
    if n is None:
        return splits
    return pl.Splits(train=splits.train[:n], val=splits.val[: max(1, n // 4)],
                     test=splits.test, vocab=splits.vocab)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _repeated(fn, n: int):
    """Output of the last of n calls and the median time."""
    times = []
    for _ in range(n):
        out, secs = _timed(fn)
        times.append(secs)
    return out, statistics.median(times)


def _embed_windows(cfg):
    window, stride = cfg.get("eval.window"), cfg.get("eval.stride")
    return lambda model, clients: ew.sliding_window_embed_many(
        model.encoder, clients, window, stride, model.pool_strategy)


@dataclass
class Run:
    """State of one benchmark run: inputs, counters, and per-round figures."""

    workload: Workload
    seed: int
    work_dir: Path
    tracer: Optional[Tracer] = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    tokens: TokenCounter = field(default_factory=TokenCounter)

    def __post_init__(self):
        self.cfg = self.workload.config(self.seed)
        self.rng = np.random.default_rng((self.seed, 97))

    # -- inputs and set-up -------------------------------------------------

    def prepare_inputs(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.generated = syn.generate_synthetic(make_synthetic_config(self.cfg),
                                                seed=self.seed)
        write_inputs(self.generated, self.work_dir)

    def setup(self, label: str, traced: bool) -> None:
        """Ingest, attach annotations, split; the first set-up is checked."""
        self._begin(label, traced)
        try:
            t0 = time.perf_counter()
            dataset = pl.load_dataset(self.cfg, self.work_dir)
            splits = pl.prepare_splits(self.cfg, dataset)
            self.setups.append(time.perf_counter() - t0)
        finally:
            self._end(traced)
        if len(self.setups) == 1:
            self.splits = splits
            self.errors += checks.ingest_matches(self.generated, dataset)
            self.errors += checks.splits_valid(splits, dataset, self.cfg.get("vocab.k"))

    # -- tracing -----------------------------------------------------------

    def _begin(self, label: str, traced: bool) -> None:
        if self.tracer is not None:
            self.tracer.round = label
            if traced:
                self.tracer.install()

    def _end(self, traced: bool) -> None:
        if self.tracer is not None and traced:
            self.tracer.uninstall()

    def _repeats(self, key: str) -> int:
        # A traced run makes each call once, so its counts and times are
        # those of one round of the program's work.
        return 1 if self.tracer is not None else self.workload.repeats.get(key, 1)

    def _stage(self, name: str, fn):
        self.attempted += 1
        tr = self.tracer
        sid = None
        if tr is not None and tr.installed:
            tr.stage = name
            sid = tr.open(f"stage.{name}")
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as err:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from err
        finally:
            self.stage_walls[name] = time.perf_counter() - t0
            if sid is not None:
                tr.close(sid)
                tr.stage = "none"

    # -- one round ---------------------------------------------------------

    def round(self, label: str, traced: bool) -> None:
        self.stage_walls: dict[str, float] = {}
        fig: dict = {"label": label, "traced": traced, "complete": False}
        self._begin(label, traced)
        try:
            for name in STAGES:
                getattr(self, f"_{name}")(fig)
            fig["complete"] = True
        except StageFailed as failed:
            # A failed stage ends the round; the stages after it count as
            # attempted and failed, so every round attempts the same set.
            rest = STAGES[STAGES.index(str(failed)) + 1:]
            self.attempted += len(rest)
            self.failed += len(rest)
        finally:
            self._end(traced)
        fig["wall_s"] = sum(self.stage_walls.values())
        # Rounds repeat the same work, so the peak after the first is the
        # run's peak; later rounds only add garbage not yet collected.
        fig["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.rounds.append(fig)
        print(f"{label}{' traced' if traced else ''}: " + ", ".join(
            f"{k} {v:.2f}s" for k, v in self.stage_walls.items()), file=sys.stderr)
        if fig["complete"]:
            self._check_round(fig)

    def _train(self, fig: dict) -> None:
        def run():
            self.tokens.tokens = 0
            results = {}
            for obj, (n, epochs) in self.workload.objectives.items():
                cfg = self.cfg if epochs is None else config_from_values(
                    {**self.cfg.values, "train.epochs": epochs})
                results[obj] = pl.train_model(cfg, _subset(self.splits, n),
                                              seed=TRAIN_SEED, objective=obj)
            return results
        self.trained, secs = _timed(lambda: self._stage("train", run))
        fig["train_txn_per_s"] = self.tokens.tokens / secs
        fig["ar_val_loss"] = self.trained["ar"].best_val

    def _checkpoint(self, fig: dict) -> None:
        path = self.work_dir / "ar.ckpt"

        def run():
            ck.save_model(path, self.trained["ar"].model, self.splits.vocab, self.cfg.digest)
            return [_timed(lambda: ck.load_model(path, expected_digest=self.cfg.digest))
                    for _ in range(LOADS_PER_ROUND)]
        loads = self._stage("checkpoint", run)
        self.model = loads[-1][0][0]
        fig["load_s"] = statistics.median(s for _, s in loads)

    def _embed(self, fig: dict) -> None:
        clients = self.splits.all_clients
        embed = _embed_windows(self.cfg)

        def run():
            windows, w_s = _repeated(lambda: embed(self.model, clients),
                                     self._repeats("windows"))
            glob, g_s = _repeated(lambda: ep.global_embeddings(self.model, clients),
                                  self._repeats("globals"))
            return windows, w_s, glob, g_s
        self.windows, w_s, self.glob, g_s = self._stage("embed", run)
        fig["embed_windows_per_s"] = sum(len(w) for w in self.windows) / w_s
        fig["embed_clients_per_s"] = len(clients) / g_s

    def _context(self, fig: dict) -> None:
        n_test = len(self.splits.test)
        self.test_windows = self.windows[len(self.windows) - n_test:]
        method = self.cfg.get("context.method")
        n = self.workload.attention_clients
        store_from = pl.Splits(train=self.splits.train[:n], val=self.splits.val,
                               test=self.splits.test, vocab=self.splits.vocab)

        def run():
            (store, attention), b_s = _repeated(
                lambda: pl.build_context(self.cfg, self.model, store_from),
                self._repeats("build"))
            augment = pl.window_augmenter(store, method, attention)
            augmented, a_s = _repeated(lambda: augment(self.test_windows),
                                       self._repeats("augment"))
            return store, attention, b_s, augmented, a_s
        self.store, self.attention, b_s, self.augmented, a_s = self._stage("context", run)
        fig["context_build_s"] = b_s
        fig["context_windows_per_s"] = sum(len(w) for w in self.test_windows) / a_s

    def _evaluate(self, fig: dict) -> None:
        def run():
            payloads = {}
            for obj, tasks in self.workload.evaluated.items():
                if obj == "ar":
                    payloads[obj], _ = pl.evaluate_model(
                        self.cfg, self.model, self.splits, store=self.store,
                        attention=self.attention, tasks=tasks)
                else:
                    payloads[obj], _ = pl.evaluate_model(
                        self.cfg, self.trained[obj].model, self.splits, tasks=tasks)
            return payloads
        self.payloads, secs = _timed(lambda: self._stage("evaluate", run))
        fig["evaluate_s"] = secs
        ar = self.payloads["ar"]["tasks"]
        fig["next_mcc_roc_auc"] = ar["next_mcc"]["mean"]["roc_auc"]
        fig["global_roc_auc"] = ar["global"]["mean"]["roc_auc"]
        fig["local_roc_auc"] = ar["local_binary"]["mean"]["roc_auc"]
        fig["local_context_roc_auc"] = ar["local_binary_context"]["mean"]["roc_auc"]

    def _cpd_config(self):
        stride = self.workload.cpd_stride
        if stride is None:
            return self.cfg
        return config_from_values({**self.cfg.values, "eval.stride": stride})

    def _cpd(self, fig: dict) -> None:
        clean = [c for c in self.splits.all_clients if c.change_point is None]
        cfg = self._cpd_config()

        def study():
            cpd, _ = pl.cpd_analysis(cfg, self.model, self.splits.all_clients)
            splice = pl.splice_analysis(cfg, self.model, clean,
                                        n_pairs=SPLICE_PAIRS, seed=0)
            return cpd, splice
        (self.cpd, self.splice), secs = self._stage(
            "cpd", lambda: _repeated(study, self._repeats("cpd")))
        fig["cpd_study_s"] = secs
        fig["cpd_accuracy_10"] = self.cpd["accuracy_by_margin"]["10"]
        fig["cpd_margin_curve"] = [self.cpd["accuracy_by_margin"][str(m)]
                                   for m in range(21)]

    # -- checks ------------------------------------------------------------

    def _check_round(self, fig: dict) -> None:
        first = next(r for r in self.rounds if r["complete"])
        if first is not fig:
            for key in QUALITY + ("cpd_margin_curve",):
                if fig[key] != first[key]:
                    self.errors.append(f"determinism: {key} differs between rounds")
            return
        cfg, clients = self.cfg, self.splits.all_clients
        window, stride = cfg.get("eval.window"), cfg.get("eval.stride")
        pairs = checks.sample_pairs(self.rng, self.windows, SAMPLED_WINDOWS)
        picked = sorted(self.rng.choice(len(clients), SAMPLED_CLIENTS, replace=False))
        self.errors += checks.windows_match(self.model, clients, self.windows,
                                            window, stride, pairs)
        self.errors += checks.globals_match(self.model, clients, self.glob, picked)
        self.errors += checks.same_model(
            self.trained["ar"].model, self.model, _embed_windows(cfg),
            ep.global_embeddings, [clients[i] for i in picked])
        test_pairs = checks.sample_pairs(self.rng, self.test_windows, SAMPLED_WINDOWS)
        self.errors += checks.context_matches(self.store, self.test_windows,
                                              self.augmented, cfg.get("context.method"),
                                              self.attention, test_pairs)
        for payload in self.payloads.values():
            self.errors += checks.scores_in_range(payload)
        curve = fig["cpd_margin_curve"]
        if any(b < a for a, b in zip(curve, curve[1:])):
            self.errors.append(f"cpd: accuracy falls as the margin grows: {curve}")
        self._check_properties(fig)

    def _check_properties(self, fig: dict) -> None:
        props = self.workload.properties
        for key in self.workload.above_chance:
            if not fig[key] > 0.5:
                self.errors.append(f"quality: AR {key} = {fig[key]:.4f} is not above chance")
        if "coles" in self.payloads:
            # Reported, not checked: at this size CoLES leads (README).
            coles = self.payloads["coles"]["tasks"]["next_mcc"]["mean"]["roc_auc"]
            print(f"next-code ROC-AUC: AR {fig['next_mcc_roc_auc']:.4f}, CoLES {coles:.4f}",
                  file=sys.stderr)
        if "context_helps" in props:
            if not fig["local_context_roc_auc"] >= fig["local_roc_auc"]:
                self.errors.append(
                    f"quality: context {fig['local_context_roc_auc']:.4f} is below "
                    f"no context {fig['local_roc_auc']:.4f}")
        if "cpd_beats_middle" in props:
            cfg = self._cpd_config()
            planted = [c for c in self.splits.all_clients if c.change_point is not None]
            base = checks.middle_guess_accuracy(planted, cfg.get("eval.window"),
                                                cfg.get("eval.stride"), 10)
            print(f"change points within 10 windows: detector {fig['cpd_accuracy_10']:.4f}, "
                  f"middle guess {base:.4f}", file=sys.stderr)
            if not fig["cpd_accuracy_10"] > base:
                self.errors.append(f"quality: change-point accuracy {fig['cpd_accuracy_10']:.4f} "
                                   f"does not beat the middle guess {base:.4f}")


QUALITY = ("ar_val_loss", "next_mcc_roc_auc", "global_roc_auc", "local_roc_auc",
           "local_context_roc_auc", "cpd_accuracy_10")
TIMED = ("train_txn_per_s", "evaluate_s", "embed_windows_per_s", "embed_clients_per_s",
         "context_build_s", "context_windows_per_s", "cpd_study_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_txn_per_s": "txn/s",
    "ar_val_loss": "nats",
    "evaluate_s": "s",
    "embed_windows_per_s": "windows/s",
    "embed_clients_per_s": "clients/s",
    "context_build_s": "s",
    "context_windows_per_s": "windows/s",
    "cpd_study_s": "s",
    "peak_rss_mb": "MB",
    "next_mcc_roc_auc": "1",
    "global_roc_auc": "1",
    "local_roc_auc": "1",
    "local_context_roc_auc": "1",
    "cpd_accuracy_10": "1",
}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> tuple[dict, "Run"]:
    """One benchmark run; returns the result object and the run state.

    Untraced: every set-up and round runs without spans. Traced: the first
    set-up and round run untraced (a warm-up, and the ones checked), then
    pairs of a traced and an untraced round follow, so the overhead is
    measured in-process between neighbouring rounds of the same work.
    """
    run = Run(workload, seed, work_dir, tracer=Tracer() if trace else None)
    run.tokens.install()
    try:
        run.prepare_inputs()
        for k in range(SETUP_REPEATS):
            run.setup(f"setup{k}", traced=trace and k > 0)
        start = time.perf_counter()
        # Rounds per step: a traced run adds a traced and an untraced round.
        step = 2 if trace else 1
        k = 0
        while True:
            traced = trace and k % 2 == 1
            run.round(f"round{k}", traced=traced)
            k += 1
            if run.failed:
                break
            if trace and (k < 3 or k % 2 == 0):
                continue  # a traced run ends on a whole pair
            walls = [r["wall_s"] for r in run.rounds]
            if time.perf_counter() - start + step * statistics.median(walls) > seconds:
                break
    finally:
        run.tokens.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    return result_of(run, trace), run


def result_of(run: Run, trace: bool) -> dict:
    done = [r for r in run.rounds if r["complete"]]
    correct = not run.errors and bool(done)
    out = {"correct": correct, "attempted": run.attempted, "failed": run.failed}
    if not done:
        out["metrics"] = {}
        return out
    if trace:
        out["metrics"] = per_layer_metrics(run)
        return out
    untraced = [r for r in done if not r["traced"]]
    values = {"setup_s": statistics.median(run.setups)
              + statistics.median(r["load_s"] for r in untraced)}
    for key in TIMED:
        values[key] = statistics.median(r[key] for r in untraced)
    for key in QUALITY:
        values[key] = done[0][key]
    values["peak_rss_mb"] = done[0]["peak_rss_mb"]
    out["metrics"] = {k: {"value": float(values[k]), "unit": END_TO_END_UNITS[k]}
                      for k in END_TO_END_UNITS}
    return out


PER_LAYER_TIMES = {
    "windows.embed_s": "windows.embed",
    "protocol.global_embed_s": "protocol.global_embed",
    "heads.probe_fit_s": "heads.probe_fit",
    "metrics.score_s": "metrics.score",
    "cpd.detect_s": "cpd.detect",
    "context.store_build_s": "context.store_build",
    "context.attention_fit_s": "context.attention_fit",
    "context.query_s": "context.query",
    "context.aggregate_s": "context.aggregate",
    "nn.backward_s": "nn.backward",
    "nn.adam_s": "nn.adam",
    "encoders.gru_scan_s": "encoders.gru_scan",
    "encoders.transformer_s": "encoders.transformer",
    "objectives.batching_s": "objectives.batching",
    "objectives.loss_s": "objectives.loss",
    "checkpoint.save_s": "checkpoint.save",
}
PER_LAYER_COUNTS = ("objectives.steps", "nn.inference_primitives", "windows.embedded",
                    "windows.unique", "protocol.global_embed_rows", "heads.probe_examples",
                    "context.query_rows")
LAYERS = ("data", "nn", "encoders", "objectives", "windows", "protocol", "heads",
          "metrics", "cpd", "context", "checkpoint", "stage")


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in rows)


def per_layer_metrics(run: Run) -> dict:
    """Medians over traced rounds (and traced set-ups) of per-layer figures."""
    tr = run.tracer
    traced = [r for r in run.rounds if r["traced"]]
    sums = [tr.round_summary(r["label"]) for r in traced]
    setups = [tr.round_summary(f"setup{k}") for k in range(1, SETUP_REPEATS)]
    totals = [s["total_s"] for s in sums]
    counts = []
    for r, s in zip(traced, sums):
        c = dict(s["counts"])
        c["windows.unique"] = len(tr.window_keys[r["label"]])
        counts.append(c)
    m: dict[str, tuple[float, str]] = {}
    m["data.ingest_s"] = (_median([s["total_s"] for s in setups], "data.ingest"), "s")
    m["data.split_vocab_s"] = (_median([s["total_s"] for s in setups], "data.split_vocab"), "s")
    for metric, span in PER_LAYER_TIMES.items():
        m[metric] = (_median(totals, span), "s")
    loads = statistics.median(
        sum(1 for sp in tr.spans if sp[5] == r["label"] and sp[2] == "checkpoint.load")
        for r in traced)
    m["checkpoint.load_s"] = (_median(totals, "checkpoint.load") / loads, "s")
    for key in PER_LAYER_COUNTS:
        m[key] = (_median(counts, key), "count")
    steps = m["objectives.steps"][0]
    m["nn.primitives_per_step"] = (_median(counts, "nn.train_tape_primitives") / steps, "count")
    m["windows.reuse"] = (m["windows.unique"][0] / m["windows.embedded"][0], "1")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (_median([s["self_s"] for s in sums], layer), "s")
    walls = {name: [] for name in STAGES}
    for s in sums:
        for name, st in s["stages"].items():
            walls[name].append(st["unaccounted_s"] / st["wall_s"])
    m["trace.unaccounted_share"] = (max(statistics.median(v) for v in walls.values() if v), "1")
    # Each traced round against the untraced round after it; the warm-up
    # round0 is in no pair.
    rounds = run.rounds
    pairs = [(rounds[i], rounds[i + 1]) for i in range(1, len(rounds) - 1, 2)]
    m["trace.overhead_share"] = (statistics.median(t["wall_s"] / u["wall_s"]
                                                   for t, u in pairs) - 1.0, "1")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
