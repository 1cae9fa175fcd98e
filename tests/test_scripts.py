"""The scripts under scripts/ run end to end on a tiny config."""
import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import TINY_CFG

ROOT = Path(__file__).resolve().parents[1]


def test_context_ablation_script_runs_every_method(tmp_path):
    (tmp_path / "run.cfg").write_text(TINY_CFG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_context_ablation.py"),
         "--config", "run.cfg", "--methods", "mean,max,attention,learnable",
         "--out", "ablation.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "ablation.json").read_text())["local_binary"]
    assert set(rows) == {"none", "mean", "max", "attention", "learnable"}
    for metrics in rows.values():
        assert 0.0 <= metrics["roc_auc"] <= 1.0
