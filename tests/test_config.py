"""Config text format: parsing, typed resolution, canonical digest."""
from dataclasses import fields

import pytest

from seqrep.config import (
    REGISTRY,
    Config,
    ConfigError,
    config_from_values,
    default_config,
    load_config,
    make_encoder_config,
    make_probe_config,
    make_synthetic_config,
    make_train_config,
    parse_config_text,
    render_config,
)
from seqrep.data.synthetic import SyntheticConfig
from seqrep.encoders import EncoderConfig
from seqrep.evaluation.heads import ProbeConfig
from seqrep.objectives.models import TrainConfig


def test_parse_pairs_comments_and_blanks():
    text = """
    # full-line comment
    train.epochs = 7   # trailing comment

    vocab.k = 50
    """
    assert parse_config_text(text) == {"train.epochs": "7", "vocab.k": "50"}


@pytest.mark.parametrize("bad,needle", [
    ("just words", "line 1"),
    ("= 5", "empty key"),
    ("train.epochs =", "empty value"),
    ("a = 1\na = 2", "line 2: duplicate"),
])
def test_parse_errors_carry_line_numbers(bad, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config_text(bad)


def test_load_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.epochs = 9\ndata.n_clients = 12\n")
    cfg = load_config(path)
    assert cfg.get("train.epochs") == 9
    assert cfg.get("data.n_clients") == 12
    # Unmentioned keys resolve to registry defaults.
    assert cfg.get("train.lr") == REGISTRY["train.lr"][1]
    assert load_config(None).values == default_config().values


def test_unknown_key_and_bad_type_fail(tmp_path):
    p1 = tmp_path / "a.cfg"
    p1.write_text("train.epoch = 9\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(p1)
    p2 = tmp_path / "b.cfg"
    p2.write_text("train.epochs = soon\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p2)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")


def test_digest_ignores_formatting(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("train.epochs = 9\nvocab.k = 50\n")
    b.write_text("# reordered, commented, spaced\nvocab.k=50\n\ntrain.epochs   =  9 # same\n")
    assert load_config(a).digest == load_config(b).digest


def test_digest_sensitive_to_values(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("train.epochs = 9\n")
    b.write_text("train.epochs = 10\n")
    assert load_config(a).digest != load_config(b).digest
    # A key explicitly set to its default digests like the default config.
    c = tmp_path / "c.cfg"
    c.write_text(f"train.epochs = {REGISTRY['train.epochs'][1]}\n")
    assert load_config(c).digest == default_config().digest


def test_render_round_trips():
    cfg = default_config()
    text = render_config(cfg.values)
    again = config_from_values(
        {k: REGISTRY[k][0](v) for k, v in parse_config_text(text).items()}
    )
    assert again.values == cfg.values
    assert again.digest == cfg.digest


def test_config_get_and_section():
    cfg = default_config()
    with pytest.raises(ConfigError, match="unknown"):
        cfg.get("nope.nope")


def test_builders_map_sections():
    cfg = config_from_values({**default_config().values,
                              "data.n_clients": 5,
                              "encoder.hidden": 24,
                              "train.objective": "ar",
                              "eval.probe_epochs": 2})
    assert make_synthetic_config(cfg).n_clients == 5
    enc = make_encoder_config(cfg, n_indices=10)
    assert (enc.n_indices, enc.hidden) == (10, 24)
    assert make_train_config(cfg).epochs == cfg.get("train.epochs")
    assert make_probe_config(cfg).epochs == 2
    # Every field with a default is read from its key.
    cfg = config_from_values({**cfg.values, "data.refund_prob": 0.25,
                              "train.mlm_swap_p": 0.05, "eval.probe_lr": 0.5})
    assert make_synthetic_config(cfg).refund_prob == 0.25
    assert make_train_config(cfg).mlm_swap_p == 0.05
    assert make_probe_config(cfg).lr == 0.5


def bad_choice_rejected(tmp_path, key):
    # Choice-valued keys fail when the config is built, naming the key.
    with pytest.raises(ConfigError, match=key):
        config_from_values({**default_config().values, key: "bogus"})
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = bogus\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_bad_objective_rejected(tmp_path):
    bad_choice_rejected(tmp_path, "train.objective")


def test_bad_context_method_rejected(tmp_path):
    bad_choice_rejected(tmp_path, "context.method")


@pytest.mark.parametrize("key", ["train.lr", "eval.probe_lr", "context.attn_lr"])
@pytest.mark.parametrize("rate", [0.0, -0.01, float("nan")])
def test_non_positive_learning_rate_rejected(tmp_path, key, rate):
    with pytest.raises(ConfigError, match=f"{key} must be positive"):
        config_from_values({**default_config().values, key: rate})
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {rate}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_default_digest_is_pinned():
    # Any change to a key or a default changes this digest, and so
    # invalidates every checkpoint written before it.
    assert default_config().digest == (
        "29af02e59164d2b51d871b8db9b0be640d402b1acf6872cc946d01b58e565c79")


@pytest.mark.parametrize("prefix, cls", [
    ("data.", SyntheticConfig),
    ("encoder.", EncoderConfig),
    ("train.", TrainConfig),
    ("eval.probe_", ProbeConfig),
])
def test_registry_keys_are_the_option_fields(prefix, cls):
    owned = {k[len(prefix):]: v for k, v in REGISTRY.items() if k.startswith(prefix)}
    scalar = {f.name: (type(f.default), f.default) for f in fields(cls)
              if isinstance(f.default, (int, float, str))}
    unowned = {"data.": {"horizon_days"}, "train.": {"objective"}}.get(prefix, set())
    assert set(owned) == set(scalar) | unowned
    for name, (conv, default) in scalar.items():
        assert owned[name] == (conv, default)


def test_bad_pool_rejected():
    cfg = config_from_values({**default_config().values, "train.pool": "bogus"})
    with pytest.raises(ValueError, match="train.pool"):
        make_train_config(cfg)
    for pool in ("auto", "last", "first_token"):
        cfg = config_from_values({**default_config().values, "train.pool": pool})
        assert make_train_config(cfg).pool == pool


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(AttributeError):
        cfg.digest = "tampered"
    assert isinstance(cfg, Config)
