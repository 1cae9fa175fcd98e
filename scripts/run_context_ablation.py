#!/usr/bin/env python3
"""Ablate cross-client context aggregation on the local-binary task.

Trains one encoder, builds the embedding store, embeds the train and test
windows once, then scores the local probe on them without context and
widened by each aggregation method. The learnable method fits its attention
matrix on the frozen encoder first.

    python3 scripts/run_context_ablation.py --methods mean,max,attention \
        --out context_ablation.json
"""
import argparse
import logging
import sys
import time

from seqrep.config import load_config, make_probe_config
from seqrep.context import build_store, train_attention_matrix, window_augmenter
from seqrep.evaluation.protocol import (
    EmbeddedSplits,
    eval_local_binary,
    local_window_dataset,
)
from seqrep.pipeline import load_dataset, prepare_splits, train_model
from seqrep.report import write_report


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", help="config file (defaults when omitted)")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--objective", help="override the configured objective")
    p.add_argument("--methods", default="mean,max,attention,learnable",
                   help="aggregation methods to ablate")
    p.add_argument("--out", default="context_ablation.json", help="report path")
    return p.parse_args()


def main() -> int:
    args = parse_args()
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    cfg = load_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    window = cfg.get("eval.window")
    stride = cfg.get("eval.stride")
    probe_cfg = make_probe_config(cfg)

    t0 = time.perf_counter()
    splits = prepare_splits(cfg, load_dataset(cfg))
    model = train_model(cfg, splits, seed=args.seed,
                        objective=args.objective).model
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
    elapsed = time.perf_counter() - t0

    payload = {
        "config_digest": cfg.digest,
        "objective": model.objective,
        "seed": args.seed,
        "store_clients": len(store),
        "local_binary": rows,
    }
    write_report(args.out, payload, timings={"total_seconds": elapsed})

    base = rows["none"]["roc_auc"]
    print(f"{'method':<12}{'roc_auc':>10}{'gain':>9}")
    for name, metrics in rows.items():
        gain = metrics["roc_auc"] - base
        print(f"{name:<12}{metrics['roc_auc']:>10.4f}{gain:>+9.4f}")
    print(f"\nwrote {args.out} ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
