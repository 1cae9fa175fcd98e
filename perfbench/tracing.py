"""Spans and counters recorded around seqrep's layer entry points.

Nothing under `src/` is edited: `Tracer.install` replaces each entry point
where its callers look it up (a module global or a class attribute) with a
wrapper that opens a span, and `Tracer.uninstall` puts the originals back.
Spans stay in memory as (id, parent, name, start, end, round) rows and are
written out once, at the end of the run.

Primitive calls are too many to span, so `apply_primitive` only counts,
split by whether a tape is active. Counts are keyed by round like spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import seqrep.checkpoint as ck
import seqrep.context as cx
import seqrep.data.types as dt
import seqrep.encoders as enc
import seqrep.evaluation.heads as eh
import seqrep.evaluation.protocol as ep
import seqrep.evaluation.windows as ew
import seqrep.nn.optim as no
import seqrep.nn.tensor as nt
import seqrep.objectives.models as om
import seqrep.pipeline as pl

# The package re-exports the `train` function under the submodule's name.
ot = importlib.import_module("seqrep.objectives.train")

# Models whose batches and losses are traced: every objective a workload trains.
TRAINED_MODELS = (om.ArModel, om.ColesModel, om.MlmModel)


def fed_tokens(batch: dict) -> int:
    """Non-padding transactions a training batch feeds to the encoder."""
    if "valid" in batch:
        return int(batch["valid"].sum())
    return int(batch["lengths"].sum())


def _on_tape() -> bool:
    return bool(getattr(nt._STATE, "stack", None))


class TokenCounter:
    """Counts transactions fed to the encoder by `model.loss`, in every mode.

    `train_txn_per_s` needs this count with tracing off, so it is the one
    wrapper the untraced run keeps; it costs one call per batch.
    """

    def __init__(self):
        self.tokens = 0
        self._saved = []

    def install(self) -> None:
        for cls in TRAINED_MODELS:
            orig = cls.__dict__["loss"]

            def loss(model, batch, _orig=orig):
                self.tokens += fed_tokens(batch)
                return _orig(model, batch)

            self._saved.append((cls, "loss", orig))
            setattr(cls, "loss", functools.wraps(orig)(loss))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


class Tracer:
    """In-memory span recorder with per-round counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.round = "none"
        self.stage = "none"
        self.window_keys: dict[str, set] = defaultdict(set)
        self._saved: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None, self.round])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top was {popped})")

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.round][key] += n

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid = tracer.open(label)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _count_primitives(self) -> None:
        orig = nt.apply_primitive
        counts = self.counts
        tracer = self

        @functools.wraps(orig)
        def apply_primitive(op, *inputs, **params):
            key = "nn.tape_primitives" if _on_tape() else "nn.inference_primitives"
            counts[tracer.round][key] += 1
            if key == "nn.tape_primitives" and tracer.stage == "train":
                counts[tracer.round]["nn.train_tape_primitives"] += 1
            return orig(op, *inputs, **params)

        self._saved.append((nt, "apply_primitive", orig))
        nt.apply_primitive = apply_primitive

    def _wrap_augmenter(self, owner, attr: str) -> None:
        """Augmenter factories return closures; span the closure calls."""
        factory = getattr(owner, attr)
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            apply = factory(*args, **kwargs)

            def traced(*a, **k):
                sid = tracer.open("context.augment")
                try:
                    return apply(*a, **k)
                finally:
                    tracer.close(sid)

            return traced

        self._saved.append((owner, attr, factory))
        setattr(owner, attr, make)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        for fn in ("ingest_csv", "load_labels", "load_local_labels",
                   "load_change_points", "attach_annotations"):
            w(pl, fn, "data.ingest")
        w(pl, "split_dataset", "data.split_vocab")
        w(pl, "fit_mcc_vocab", "data.split_vocab")
        w(dt.Dataset, "with_vocab", "data.split_vocab")
        w(pl, "splice_pair", "data.splice")

        self._count_primitives()
        w(ot, "backward", "nn.backward")
        w(cx, "backward", "nn.backward")
        w(no.Adam, "step", "nn.adam")

        w(enc.GruCore, "scan", "encoders.gru_scan")
        w(enc.TransformerEncoder, "forward", "encoders.transformer")

        w(pl, "train", "objectives.train")
        for cls in TRAINED_MODELS:
            w(cls, "iter_batches", "objectives.batching")
            w(cls, "loss",
              lambda args: "objectives.loss" if _on_tape() else "objectives.val_loss",
              _after_loss)

        for owner in (pl, ep, cx, ew):
            w(owner, "sliding_window_embed_many", "windows.embed", _after_windows)
        w(ep, "global_embeddings", "protocol.global_embed", _after_global)
        for fn in ("eval_global", "eval_local_binary", "eval_next_mcc"):
            w(pl, fn, "protocol.task")

        w(eh.MlpProbe, "fit", "heads.probe_fit", _after_probe_fit)
        w(eh.MlpProbe, "predict_proba", "heads.predict")
        w(pl, "run_seeds", "heads.run_seeds")
        w(ep, "classification_metrics", "metrics.score")

        w(pl, "detect_change_point", "cpd.detect")
        for fn in ("detection_accuracy", "detection_delay", "pair_distance_curve"):
            w(pl, fn, "cpd.score")

        w(pl, "build_store", "context.store_build")
        w(pl, "train_attention_matrix", "context.attention_fit")
        w(cx.EmbeddingStore, "query", "context.query", _after_query)
        w(cx.EmbeddingStore, "query_many", "context.query", _after_query_many)
        w(cx, "aggregate_context", "context.aggregate")
        for owner in (pl, cx):
            self._wrap_augmenter(owner, "window_augmenter")
            self._wrap_augmenter(owner, "global_augmenter")

        w(ck, "save_model", "checkpoint.save")
        w(ck, "load_model", "checkpoint.load")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def round_summary(self, label: str) -> dict:
        """Inclusive time per span name, self time per layer, and counts."""
        spans = [s for s in self.spans if s[5] == label]
        child_time: dict[int, float] = defaultdict(float)
        by_id = {s[0]: s for s in spans}
        for s in spans:
            if s[1] in by_id:
                child_time[s[1]] += s[4] - s[3]
        total: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        stages: dict[str, dict] = {}
        for s in spans:
            dur = s[4] - s[3]
            own = dur - child_time[s[0]]
            layer = s[2].split(".", 1)[0]
            self_by_layer[layer] += own
            # A span inside another of the same name (two wrapped functions
            # of one layer, one calling the other) counts once, outermost.
            if not _has_ancestor_named(s, by_id, s[2]):
                total[s[2]] += dur
            if layer == "stage":
                stages[s[2][len("stage."):]] = {"wall_s": dur, "unaccounted_s": own}
        return {"total_s": dict(total), "self_s": dict(self_by_layer),
                "stages": stages, "counts": dict(self.counts[label])}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "round"],
                       "spans": self.spans,
                       "counts": {k: dict(v) for k, v in self.counts.items()}}, fh)


def _has_ancestor_named(span, by_id, name) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[2] == name:
            return True
        parent = by_id.get(parent[1])
    return False


def _after_loss(tracer, args, kwargs, out) -> None:
    if _on_tape() and tracer.stage == "train":
        tracer.count("objectives.steps")


# Window and global-embedding counts are taken inside `evaluate_model` only,
# so `windows.reuse` reads how often evaluation embeds a window it already
# embedded in the same round.

def _after_windows(tracer, args, kwargs, out) -> None:
    if tracer.stage != "evaluate":
        return
    encoder = args[0]
    rows = 0
    keys = tracer.window_keys[tracer.round]
    for emb in out:
        rows += len(emb)
        for end in emb.ends:
            keys.add((id(encoder), emb.client_id, int(end)))
    tracer.count("windows.embedded", rows)


def _after_global(tracer, args, kwargs, out) -> None:
    if tracer.stage != "evaluate":
        return
    tracer.count("protocol.global_embed_rows", len(out))


def _after_probe_fit(tracer, args, kwargs, out) -> None:
    probe, x = args[0], args[1]
    tracer.count("heads.probe_examples", len(x) * probe.config.epochs)


def _after_query(tracer, args, kwargs, out) -> None:
    tracer.count("context.query_rows", len(out))


def _after_query_many(tracer, args, kwargs, out) -> None:
    tracer.count("context.query_rows", sum(len(x) for x in out))

