"""Fast smoke test of the benchmark on a tiny config.

    python3 -m pytest perfbench/test_smoke.py -q

Runs one untraced and one traced run of a tiny workload through the same
code as the real ones, and checks the result's shape against BENCHMARK.json.
The paper-property checks are off: at this size they do not hold.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = replace(
    bench.WORKLOADS["pretrain_probe"],
    name="tiny",
    values={
        "data.n_clients": 40,
        "data.length_min": 70,
        "data.length_max": 120,
        "data.n_mcc": 12,
        "data.n_regimes": 3,
        "data.cp_probability": 0.5,
        "data.cp_distress_prob": 0.8,
        "vocab.k": 12,
        "encoder.d_emb": 8,
        "encoder.hidden": 16,
        "train.epochs": 1,
        "train.max_len": 48,
        "eval.n_seeds": 1,
        "eval.probe_epochs": 2,
        "context.store_size": 10,
        "context.method": "learnable",
    },
    objectives={"ar": (None, None), "coles": (None, None), "mlm": (8, 1)},
    attention_clients=8,
    repeats={"cpd": 2},
    above_chance=(),
    properties=(),
)


def _check(result, run, section):
    assert run.errors == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(bench.STAGES) * len(run.rounds)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, run = bench.run_workload(TINY, seed=3, seconds=0, trace=False,
                                     work_dir=tmp_path / "work")
    _check(result, run, "end_to_end")
    assert len(run.rounds) == 1
    assert not (tmp_path / "work").exists()


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, run = bench.run_workload(TINY, seed=3, seconds=0, trace=True,
                                     work_dir=tmp_path / "work")
    _check(result, run, "per_layer")
    assert [r["traced"] for r in run.rounds] == [False, True, False]
    m = result["metrics"]
    assert m["objectives.steps"]["value"] > 0
    assert 0 < m["windows.reuse"]["value"] <= 1
    # Every wrapper is removed again once the run ends.
    assert not run.tracer.installed
    assert bench.pl.train is sys.modules["seqrep.objectives.train"].train


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain_probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
