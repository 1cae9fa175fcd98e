"""Run one seqrep benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload pretrain_probe --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from `src/`, the
inputs are generated from the seed into `perfbench/out/`, and the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones and writes the spans to `perfbench/out/`. Exits 2 without a
result when the checkout holds no `src/seqrep`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Serial probe seeds; BLAS threads at most the usable cores.

    Must run before numpy is imported, which reads these once.
    """
    os.environ["SEQREP_THREADS"] = "1"
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def print_accounting(run) -> None:
    """Per traced round: each stage's wall time against its layers' self times."""
    for r in run.rounds:
        if not r["traced"]:
            continue
        summary = run.tracer.round_summary(r["label"])
        print(f"{r['label']}: {r['wall_s']:.2f}s traced", file=sys.stderr)
        for name, st in summary["stages"].items():
            print(f"  stage {name:10s} {st['wall_s']:8.3f}s  outside any layer "
                  f"{st['unaccounted_s']:.4f}s", file=sys.stderr)
        for layer, secs in sorted(summary["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:12s} {secs:8.3f}s", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqrep" / "__init__.py").is_file():
        print(f"error: no src/seqrep under {ROOT}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from bench import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), OUT / f"work-{stem}-{os.getpid()}")
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    if run.tracer is not None:
        print_accounting(run)
        run.tracer.dump(OUT / f"{stem}.trace.json")
    line = json.dumps(result)
    (OUT / f"{stem}.result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
