"""The scripts under scripts/ run end to end on a tiny config."""
import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import TINY_CFG

ROOT = Path(__file__).resolve().parents[1]


def _run_script(tmp_path, name, *args):
    (tmp_path / "run.cfg").write_text(TINY_CFG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--config", "run.cfg", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_context_ablation_script_runs_every_method(tmp_path):
    _run_script(tmp_path, "run_context_ablation.py",
                "--methods", "mean,max,attention,learnable", "--out", "ablation.json")
    rows = json.loads((tmp_path / "ablation.json").read_text())["local_binary"]
    assert set(rows) == {"none", "mean", "max", "attention", "learnable"}
    for metrics in rows.values():
        assert 0.0 <= metrics["roc_auc"] <= 1.0


def test_benchmark_script_compares_objectives(tmp_path):
    _run_script(tmp_path, "run_benchmark.py", "--objectives", "ar", "--seeds", "0",
                "--out", "benchmark.json")
    report = json.loads((tmp_path / "benchmark.json").read_text())
    assert report["seeds"] == [0]
    by_task = report["objectives"]["ar"]
    assert set(by_task) == {"global", "next_mcc"}
    for block in by_task.values():
        assert block["seeds"] == [0]
        assert 0.0 <= block["mean"]["roc_auc"] <= 1.0


def test_cpd_study_script_writes_report_and_curves(tmp_path):
    _run_script(tmp_path, "run_cpd_study.py", "--pairs", "2", "--out-dir", "cpd")
    out = tmp_path / "cpd"
    report = json.loads((out / "cpd_study.json").read_text())
    assert report["detection"]["n_clients"] > 0
    assert report["splice"]["n_pairs"] == 2
    for name in ("margin_accuracy.csv", "splice_converge.csv", "splice_diverge.csv"):
        assert (out / name).exists()
