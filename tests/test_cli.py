"""Command line: full workflow, study subcommands, digest guard, exit codes."""
import json

import numpy as np
import pytest

from seqrep import __version__
from seqrep.checkpoint import load_checkpoint, load_model, save_checkpoint
from seqrep.cli import main
from seqrep.config import config_from_values, load_config, render_config
from seqrep.context import AGGREGATION_METHODS, build_store, train_attention_matrix
from seqrep.pipeline import (
    compare_objectives,
    evaluate_model,
    load_dataset,
    prepare_splits,
    splice_analysis,
)
from seqrep.report import read_report
from conftest import small_config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory holding the full command-line workflow's artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = small_config()
    (root / "run.cfg").write_text(render_config(cfg.values))

    rc = main(["generate", "--config", str(root / "run.cfg"),
               "--out", str(root / "data"), "--quiet"])
    assert rc == 0
    rc = main(["train", "--config", str(root / "run.cfg"),
               "--data", str(root / "data"),
               "--out", str(root / "model.ckpt"), "--quiet"])
    assert rc == 0
    return root


def run(args):
    return main([str(a) for a in args] + ["--quiet"])


def test_generate_writes_csvs(workdir):
    names = {p.name for p in (workdir / "data").iterdir()}
    assert names == {"transactions.csv", "labels.csv", "local_labels.csv",
                     "change_points.csv"}
    header = (workdir / "data" / "transactions.csv").read_text().splitlines()[0]
    assert header == "client_id,timestamp,mcc,amount"


def test_train_writes_checkpoint(workdir):
    assert (workdir / "model.ckpt").stat().st_size > 0


def test_generate_seed_replaces_data_seed(tmp_path):
    def generate(seed, *flags):
        cfg = tmp_path / f"seed{seed}.cfg"
        cfg.write_text(render_config(small_config(**{"data.seed": seed}).values))
        out = tmp_path / f"out-{seed}-{'-'.join(flags) or 'none'}"
        assert run(["generate", "--config", cfg, "--out", out, *flags]) == 0
        return (out / "transactions.csv").read_bytes()

    # An explicit --seed wins, 0 included; without one, data.seed is used.
    assert generate(3, "--seed", "0") == generate(0)
    assert generate(3) == generate(0, "--seed", "3")
    assert generate(3) != generate(0)


def test_embed_exports_csv(workdir):
    out = workdir / "emb.csv"
    rc = run(["embed", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--out", out, "--split", "test"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("client_id,e0,")
    assert len(lines) > 1


def test_embed_windows_mode(workdir):
    out = workdir / "win.csv"
    rc = run(["embed", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--out", out,
              "--split", "test", "--windows"])
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("client_id,end,timestamp,e0")


def test_build_context_and_eval_are_reproducible(workdir):
    rc = run(["build-context", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--out", workdir / "ctx.ckpt"])
    assert rc == 0

    def evaluate(out):
        return run(["eval", "--config", workdir / "run.cfg",
                    "--checkpoint", workdir / "model.ckpt",
                    "--data", workdir / "data",
                    "--context", workdir / "ctx.ckpt", "--out", out])

    assert evaluate(workdir / "report.json") == 0
    payload = read_report(workdir / "report.json")
    assert {"global", "local_binary", "next_mcc", "global_context",
            "local_binary_context"} <= set(payload["tasks"])
    first = (workdir / "report.json").read_bytes()
    assert evaluate(workdir / "report2.json") == 0
    # Same inputs, byte-identical report; wall times live in the sidecar.
    assert (workdir / "report2.json").read_bytes() == first
    assert (workdir / "report.timings.json").exists()


def test_cpd_writes_report_and_curve(workdir):
    rc = run(["cpd", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--out", workdir / "cpd.json"])
    assert rc == 0
    payload = read_report(workdir / "cpd.json")
    assert payload["n_clients"] > 0
    curve = (workdir / "cpd.am.csv").read_text().splitlines()
    assert curve[0] == "margin,accuracy"
    assert len(curve) == 22  # header + margins 0..20


def direct_inputs(workdir):
    """The config, splits and model the subcommands read from `workdir`."""
    cfg = load_config(workdir / "run.cfg")
    splits = prepare_splits(cfg, load_dataset(cfg, workdir / "data"))
    model, _ = load_model(workdir / "model.ckpt")
    return cfg, splits, model


def test_splice_writes_report_and_curves(workdir):
    out = workdir / "splice.json"
    rc = run(["splice", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--pairs", 3, "--out", out])
    assert rc == 0
    cfg, splits, model = direct_inputs(workdir)
    clean = [c for c in splits.all_clients if c.change_point is None]
    payload = read_report(out)
    assert payload == splice_analysis(cfg, model, clean, n_pairs=3, seed=0)
    for mode in ("converge", "diverge"):
        lines = (workdir / f"splice.{mode}.csv").read_text().splitlines()
        assert lines[0] == "offset,distance"
        expected = sorted((int(o), d) for o, d in
                          payload[f"{mode}_mean_distance"].items() if d is not None)
        assert [(int(o), float(d)) for o, d in
                (line.split(",") for line in lines[1:])] == expected


def test_compare_matches_compare_objectives(workdir):
    out = workdir / "compare.json"
    rc = run(["compare", "--config", workdir / "run.cfg", "--data", workdir / "data",
              "--objectives", "ar", "--seeds", "0", "--tasks", "global",
              "--out", out])
    assert rc == 0
    cfg, splits, _ = direct_inputs(workdir)
    results = compare_objectives(cfg, splits, ["ar"], [0], tasks=["global"])
    assert read_report(out) == {
        "config_digest": cfg.digest,
        "seeds": [0],
        "clients": splits.counts(),
        "objectives": {"ar": {"global": results["ar"]["global"].summary()}},
    }


def test_context_ablation_scores_every_method(workdir):
    out = workdir / "ablation.json"
    rc = run(["context-ablation", "--config", workdir / "run.cfg",
              "--checkpoint", workdir / "model.ckpt",
              "--data", workdir / "data", "--out", out])
    assert rc == 0
    payload = read_report(out)
    rows = payload["local_binary"]
    assert set(rows) == {"none", *AGGREGATION_METHODS}
    # Each row is the seed-0 local probe of evaluate_model over the same
    # store of train clients, with the method as the configured aggregation.
    cfg, splits, model = direct_inputs(workdir)
    store = build_store(model, splits.train, max_clients=cfg.get("context.store_size"),
                        window=cfg.get("eval.window"), stride=cfg.get("eval.stride"),
                        seed=0)
    assert payload["store_clients"] == len(store)
    assert payload["objective"] == model.objective
    for method in AGGREGATION_METHODS:
        attention = None
        if method == "learnable":
            attention, _ = train_attention_matrix(
                model, store, splits.train, epochs=cfg.get("context.attn_epochs"),
                lr=cfg.get("context.attn_lr"), seed=0)
        method_cfg = config_from_values({**cfg.values, "context.method": method})
        direct, _ = evaluate_model(method_cfg, model, splits, store=store,
                                   attention=attention,
                                   tasks=["local_binary", "local_binary_context"])
        assert rows["none"] == direct["tasks"]["local_binary"]["per_seed"]["0"]
        assert rows[method] == direct["tasks"]["local_binary_context"]["per_seed"]["0"]


@pytest.mark.parametrize("command, flag", [
    ("compare", "--objectives"),
    ("compare", "--tasks"),
    ("context-ablation", "--methods"),
])
def test_unknown_study_names_are_operational_errors(workdir, tmp_path, capsys,
                                                    command, flag):
    args = [command, "--config", workdir / "run.cfg", "--data", workdir / "data",
            flag, "bogus", "--out", tmp_path / "r.json"]
    if command == "context-ablation":
        args += ["--checkpoint", workdir / "model.ckpt"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bogus" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_compare_rejects_repeated_seeds(workdir, tmp_path, capsys):
    assert run(["compare", "--config", workdir / "run.cfg", "--data", workdir / "data",
                "--objectives", "ar", "--seeds", "0,0", "--tasks", "global",
                "--out", tmp_path / "r.json"]) == 1
    assert "duplicate seeds" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key", ["train.objective", "context.method"])
def test_bad_choice_in_config_fails_before_work(workdir, tmp_path, capsys, key):
    bad = tmp_path / "bad.cfg"
    text = "".join(line for line in (workdir / "run.cfg").read_text().splitlines(True)
                   if not line.startswith(key + " "))
    bad.write_text(text + f"{key} = bogus\n")
    for command in ("train", "build-context"):
        args = [command, "--config", bad, "--data", workdir / "data",
                "--out", tmp_path / "out.ckpt"]
        if command == "build-context":
            args += ["--checkpoint", workdir / "model.ckpt"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()


def test_report_merges(workdir):
    rc = run(["report", workdir / "report.json", workdir / "cpd.json",
              "--out", workdir / "merged.json"])
    assert rc == 0
    merged = json.loads((workdir / "merged.json").read_text())
    assert set(merged["reports"]) == {"report", "cpd"}


def test_digest_mismatch_fails_then_override(workdir, tmp_path, capsys):
    other = small_config(**{"train.epochs": 3})
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(render_config(other.values))
    args = ["eval", "--config", cfg2, "--checkpoint", workdir / "model.ckpt",
            "--data", workdir / "data", "--out", tmp_path / "r.json"]
    assert run(args) == 1
    assert "digest" in capsys.readouterr().err
    assert run(args + ["--allow-digest-mismatch"]) == 0


def test_bad_input_is_operational_error(workdir, tmp_path, capsys):
    rc = run(["eval", "--config", workdir / "run.cfg",
              "--checkpoint", tmp_path / "absent.ckpt",
              "--data", workdir / "data", "--out", tmp_path / "r.json"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_checkpoint_is_operational_error(workdir, tmp_path, capsys):
    common = ["--config", workdir / "run.cfg", "--data", workdir / "data"]
    ckpt = load_checkpoint(workdir / "model.ckpt")
    ckpt.tensors["gru/u_z"][0, 0] = np.inf
    save_checkpoint(tmp_path / "bad.ckpt", ckpt.digest, tensors=ckpt.tensors,
                    meta=ckpt.meta, vocab=ckpt.vocab)
    assert run(["embed", *common, "--checkpoint", tmp_path / "bad.ckpt",
                "--out", tmp_path / "e.csv"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'gru/u_z'" in err and "Traceback" not in err

    assert run(["build-context", *common, "--checkpoint", workdir / "model.ckpt",
                "--out", tmp_path / "ctx.ckpt"]) == 0
    ctx = load_checkpoint(tmp_path / "ctx.ckpt")
    cid = ctx.store.client_ids()[0]
    ctx.store.series[cid][1][0, 0] = np.nan
    save_checkpoint(tmp_path / "bad_ctx.ckpt", ctx.digest, tensors=ctx.tensors,
                    store=ctx.store)
    assert run(["eval", *common, "--checkpoint", workdir / "model.ckpt",
                "--context", tmp_path / "bad_ctx.ckpt", "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and repr(cid) in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_values_are_operational_errors(workdir, tmp_path, capsys):
    # Amounts that overflow to inf are rejected when the data are built; a
    # rate large enough to blow up the weights fails training with the
    # tape's NonFiniteError, reported like any other operational error. The
    # typed error is the only signal: numpy's own warnings would fail here.
    text = (workdir / "run.cfg").read_text()
    for override, needle in (("data.amount_sigma = 1000.0", "non-finite amount"),
                             ("train.lr = 1e300", "non-finite")):
        key = override.split(" = ")[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text("".join(line for line in text.splitlines(True)
                               if not line.startswith(key + " ")) + override + "\n")
        assert run(["train", "--config", bad, "--out", tmp_path / "m.ckpt"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and needle in err and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("key", ["train.lr", "eval.probe_lr", "context.attn_lr"])
@pytest.mark.parametrize("rate", ["0", "-0.01"])
def test_non_positive_learning_rate_fails_before_work(workdir, tmp_path, capsys,
                                                      key, rate):
    bad = tmp_path / "bad.cfg"
    text = "".join(line for line in (workdir / "run.cfg").read_text().splitlines(True)
                   if not line.startswith(key + " "))
    bad.write_text(text + f"{key} = {rate}\n")
    for command in ("train", "eval"):
        args = [command, "--config", bad, "--data", workdir / "data",
                "--out", tmp_path / "out"]
        if command == "eval":
            args += ["--checkpoint", workdir / "model.ckpt"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing --out
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
