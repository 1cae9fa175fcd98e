"""The README's Python API example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_CFG = """\
data.n_clients = 30
data.length_min = 60
data.length_max = 90
data.n_mcc = 10
data.n_regimes = 3
vocab.k = 10
encoder.d_emb = 4
encoder.hidden = 8
train.objective = ar
train.epochs = 1
train.batch_size = 16
train.max_len = 32
eval.n_seeds = 1
eval.probe_hidden = 8
eval.probe_epochs = 1
context.store_size = 10
"""


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_example_runs(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    (tmp_path / "run.cfg").write_text(TINY_CFG)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["splits"].train) > 0
    assert namespace["payload"]["tasks"]
    assert len(namespace["store"]) > 0
