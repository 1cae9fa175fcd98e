"""Command-line interface.

Subcommands cover the full workflow: generate data, train an objective,
export embeddings, build a context store, evaluate, detect change points,
and merge reports. Three more run the paper's studies: `compare` retrains
several objectives across seeds, `context-ablation` scores the local probe
under each context aggregation, and `splice` traces embedding distances
around spliced histories (with `cpd`, the change-point study). Exit codes:
0 success, 1 operational failure (bad file, digest mismatch, invalid data,
a non-finite value in training), 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from .config import ConfigError, load_config, make_probe_config
from .context import (
    AGGREGATION_METHODS,
    build_store,
    train_attention_matrix,
    window_augmenter,
)
from .data.ingest import (
    IngestError,
    write_change_points_csv,
    write_labels_csv,
    write_local_labels_csv,
    write_transactions_csv,
)
from .evaluation.protocol import (
    EmbeddedSplits,
    eval_local_binary,
    global_embeddings,
    local_window_dataset,
)
from .evaluation.windows import sliding_window_embed_many
from .nn import NonFiniteError
from .objectives.models import OBJECTIVES
from .pipeline import (
    TASKS,
    build_context,
    compare_objectives,
    cpd_analysis,
    evaluate_model,
    load_dataset,
    prepare_splits,
    splice_analysis,
    train_model,
)
from .report import (
    merge_reports,
    read_report,
    write_curve_csv,
    write_distance_curve,
    write_margin_curve,
    write_report,
)

__all__ = ["main", "entry"]

logger = logging.getLogger("seqrep.cli")


def _setup_logging(quiet: bool) -> None:
    logging.basicConfig(
        level=logging.WARNING if quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )


def _add_common(p: argparse.ArgumentParser, checkpoint: bool = False) -> None:
    p.add_argument("--config", help="configuration file (defaults used if omitted)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="model checkpoint to load")
        p.add_argument("--data", help="directory of CSV inputs (default: synthetic)")
        p.add_argument(
            "--allow-digest-mismatch", action="store_true",
            help="proceed even if the checkpoint was built under another config",
        )


def _splits(cfg, args):
    dataset = load_dataset(cfg, data_dir=getattr(args, "data", None))
    return prepare_splits(cfg, dataset)


def _load_model_checked(cfg, args):
    return load_model(args.checkpoint, expected_digest=cfg.digest,
                      allow_digest_mismatch=args.allow_digest_mismatch)


def _names(text: str, allowed, what: str) -> list[str]:
    """Comma-separated names, each one of `allowed`."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what}(s) {unknown}; expected some of {list(allowed)}")
    return names


def _beside(out: str, suffix: str) -> str:
    """`x/report.json` -> `x/report<suffix>`."""
    return Path(out).with_suffix("").as_posix() + suffix


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    dataset = load_dataset(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_transactions_csv(dataset, out / "transactions.csv")
    labels = {c.client_id: c.global_label for c in dataset.clients
              if c.global_label is not None}
    if labels:
        write_labels_csv(labels, out / "labels.csv")
    write_local_labels_csv(dataset, out / "local_labels.csv")
    write_change_points_csv(dataset, out / "change_points.csv")
    n_txn = sum(len(c) for c in dataset.clients)
    logger.info("wrote %d clients / %d transactions to %s",
                len(dataset.clients), n_txn, out)
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    splits = _splits(cfg, args)
    result = train_model(cfg, splits, seed=args.seed)
    model = result.model
    n_classes = getattr(model, "n_classes", None)
    save_model(args.out, model, splits.vocab, cfg.digest, n_classes=n_classes)
    best = f"{result.best_val:.6f}" if result.best_val is not None else "n/a"
    logger.info("saved %s (best val %s at epoch %d)",
                args.out, best, result.best_epoch)
    return 0


def cmd_embed(args) -> int:
    cfg = load_config(args.config)
    model, _ = _load_model_checked(cfg, args)
    splits = _splits(cfg, args)
    clients = {"train": splits.train, "val": splits.val,
               "test": splits.test, "all": splits.all_clients}[args.split]
    if args.windows:
        embs = sliding_window_embed_many(
            model.encoder, clients, cfg.get("eval.window"),
            cfg.get("eval.stride"), model.pool_strategy)
        d = model.encoder.hidden
        header = ["client_id", "end", "timestamp"] + [f"e{i}" for i in range(d)]
        rows = []
        for emb in embs:
            for k in range(len(emb)):
                rows.append([emb.client_id, int(emb.ends[k]),
                             int(emb.timestamps[k])]
                            + [float(v) for v in emb.matrix[k]])
        write_curve_csv(args.out, header, rows)
        logger.info("wrote %d window embeddings to %s", len(rows), args.out)
    else:
        matrix = global_embeddings(model, clients)
        header = ["client_id"] + [f"e{i}" for i in range(matrix.shape[1])]
        rows = [[c.client_id] + [float(v) for v in row]
                for c, row in zip(clients, matrix)]
        write_curve_csv(args.out, header, rows)
        logger.info("wrote %d client embeddings to %s", len(rows), args.out)
    return 0


def cmd_build_context(args) -> int:
    cfg = load_config(args.config)
    model, ckpt = _load_model_checked(cfg, args)
    splits = _splits(cfg, args)
    store, attention = build_context(cfg, model, splits, seed=args.seed)
    extra = {"context/A": attention} if attention is not None else None
    save_checkpoint(args.out, cfg.digest, tensors=extra or {}, store=store)
    logger.info("saved context store (%d clients, %d entries) to %s",
                len(store), store.n_entries(), args.out)
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    model, _ = _load_model_checked(cfg, args)
    splits = _splits(cfg, args)
    store = attention = None
    if args.context:
        ctx = load_checkpoint(args.context)
        if ctx.digest != cfg.digest and not args.allow_digest_mismatch:
            raise CheckpointError(
                f"{args.context}: context store digest does not match the "
                f"current config; pass --allow-digest-mismatch to proceed"
            )
        if ctx.store is None:
            raise CheckpointError(f"{args.context}: no context store section")
        store = ctx.store
        attention = ctx.tensors.get("context/A")
    t0 = time.perf_counter()
    payload, timings = evaluate_model(cfg, model, splits, base_seed=args.seed,
                                      store=store, attention=attention)
    timings["total_seconds"] = time.perf_counter() - t0
    write_report(args.out, payload, timings)
    logger.info("wrote %s", args.out)
    for task, block in payload["tasks"].items():
        logger.info("%s mean: %s", task,
                    {k: round(v, 4) for k, v in block["mean"].items()})
    return 0


def cmd_cpd(args) -> int:
    cfg = load_config(args.config)
    model, _ = _load_model_checked(cfg, args)
    # Splitting applies the train-fitted vocabulary to every client.
    splits = _splits(cfg, args)
    t0 = time.perf_counter()
    payload, sweep = cpd_analysis(cfg, model, splits.all_clients)
    timings = {"total_seconds": time.perf_counter() - t0}
    write_report(args.out, payload, timings)
    curve_path = _beside(args.out, ".am.csv")
    write_margin_curve(curve_path, [m for m, _ in sweep], [a for _, a in sweep])
    logger.info("wrote %s and %s (delay %.3f windows)",
                args.out, curve_path, payload["detection_delay"])
    return 0


def cmd_splice(args) -> int:
    cfg = load_config(args.config)
    model, _ = _load_model_checked(cfg, args)
    splits = _splits(cfg, args)
    clean = [c for c in splits.all_clients if c.change_point is None]
    t0 = time.perf_counter()
    payload = splice_analysis(cfg, model, clean, n_pairs=args.pairs, seed=args.seed)
    write_report(args.out, payload, {"total_seconds": time.perf_counter() - t0})
    for mode in ("converge", "diverge"):
        curve = payload[f"{mode}_mean_distance"]
        points = sorted((int(o), d) for o, d in curve.items() if d is not None)
        write_distance_curve(_beside(args.out, f".{mode}.csv"),
                             [o for o, _ in points], [d for _, d in points])
    logger.info("wrote %s and its converge/diverge curves", args.out)
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    objectives = _names(args.objectives, OBJECTIVES, "objective")
    seeds = [int(s) for s in args.seeds.split(",")]
    tasks = _names(args.tasks, [t for t in TASKS if not t.endswith("_context")],
                   "task")
    splits = _splits(cfg, args)
    t0 = time.perf_counter()
    results = compare_objectives(cfg, splits, objectives, seeds, tasks=tasks)
    payload = {
        "config_digest": cfg.digest,
        "seeds": seeds,
        "clients": splits.counts(),
        "objectives": {
            obj: {task: rep.summary() for task, rep in by_task.items()}
            for obj, by_task in results.items()
        },
    }
    write_report(args.out, payload, {"total_seconds": time.perf_counter() - t0})
    for obj, by_task in results.items():
        logger.info("%s roc_auc: %s", obj, {
            task: f"{rep.mean()['roc_auc']:.4f}±{rep.std()['roc_auc']:.3f}"
            for task, rep in by_task.items()})
    logger.info("wrote %s", args.out)
    return 0


def cmd_context_ablation(args) -> int:
    cfg = load_config(args.config)
    methods = _names(args.methods, AGGREGATION_METHODS, "method")
    model, _ = _load_model_checked(cfg, args)
    splits = _splits(cfg, args)
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    probe_cfg = make_probe_config(cfg)
    t0 = time.perf_counter()
    store = build_store(model, splits.train,
                        max_clients=cfg.get("context.store_size"),
                        window=window, stride=stride, seed=args.seed)
    emb = EmbeddedSplits(model, splits.train, splits.val, splits.test,
                         window, stride)

    def score(augment=lambda windows: windows) -> dict:
        fit, test = (local_window_dataset(emb.clients[s], augment(emb.windows(s)))
                     for s in ("train", "test"))
        return eval_local_binary(fit, test, probe_cfg, seed=args.seed)

    rows = {"none": score()}
    for method in methods:
        a = None
        if method == "learnable":
            a, _ = train_attention_matrix(
                model, store, splits.train,
                epochs=cfg.get("context.attn_epochs"),
                lr=cfg.get("context.attn_lr"), seed=args.seed)
        rows[method] = score(window_augmenter(store, method, a))
    payload = {
        "config_digest": cfg.digest,
        "objective": model.objective,
        "seed": args.seed,
        "store_clients": len(store),
        "local_binary": rows,
    }
    write_report(args.out, payload, {"total_seconds": time.perf_counter() - t0})
    base = rows["none"]["roc_auc"]
    for name, metrics in rows.items():
        logger.info("%-10s roc_auc %.4f (gain %+.4f)", name, metrics["roc_auc"],
                    metrics["roc_auc"] - base)
    logger.info("wrote %s", args.out)
    return 0


def cmd_report(args) -> int:
    named = {}
    for path in args.inputs:
        name = Path(path).stem
        if name in named:
            raise ValueError(f"duplicate report name {name!r} from {path}")
        named[name] = read_report(path)
    merged = merge_reports(named)
    write_report(args.out, merged)
    logger.info("merged %d reports into %s", len(named), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrep",
        description="Transaction-sequence representation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as CSV files")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    # Without --seed the data come from the config's data.seed.
    p.set_defaults(fn=cmd_generate, seed=None)

    p = sub.add_parser("train", help="train the configured objective")
    _add_common(p)
    p.add_argument("--data", help="directory of CSV inputs (default: synthetic)")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="export embeddings as CSV")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="CSV path to write")
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="test", help="which clients to embed")
    p.add_argument("--windows", action="store_true",
                   help="sliding-window embeddings instead of one per client")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("build-context", help="build the cross-client store")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="store checkpoint to write")
    p.set_defaults(fn=cmd_build_context)

    p = sub.add_parser("eval", help="probe a trained model on all tasks")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--context", help="context store checkpoint")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cpd", help="change-point detection report")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.set_defaults(fn=cmd_cpd)

    p = sub.add_parser("splice", help="distance curves around spliced histories")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--pairs", type=int, default=100, help="spliced pairs per mode")
    p.set_defaults(fn=cmd_splice)

    p = sub.add_parser("compare", help="retrain objectives across seeds and probe them")
    p.add_argument("--config", help="configuration file (defaults used if omitted)")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    p.add_argument("--data", help="directory of CSV inputs (default: synthetic)")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--objectives", default="ar,coles",
                   help="comma-separated objectives to retrain")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--tasks", default="global,next_mcc",
                   help="probing tasks: global, local_binary, next_mcc")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("context-ablation",
                       help="local probe with each context aggregation")
    _add_common(p, checkpoint=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--methods", default=",".join(AGGREGATION_METHODS),
                   help="comma-separated aggregation methods to ablate")
    p.set_defaults(fn=cmd_context_ablation)

    p = sub.add_parser("report", help="merge evaluation reports")
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.add_argument("--out", required=True, help="merged JSON to write")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(getattr(args, "quiet", False))
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, IngestError, ValueError, OSError,
            NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
