"""Flat text configuration: `key = value` lines with dotted namespaces.

Lines are `key = value`; `#` starts a comment (full line or trailing);
blank lines are ignored. Every key must exist in the registry below, typed
and defaulted, so typos fail loudly instead of silently using a default.
The digest is a SHA-256 over the fully resolved configuration (defaults
applied, keys sorted), so two files that mean the same thing share a digest
regardless of comments, ordering, or spacing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .context import AGGREGATION_METHODS
from .data.synthetic import SyntheticConfig
from .encoders import EncoderConfig
from .evaluation.heads import ProbeConfig
from .objectives.models import OBJECTIVES, TrainConfig

__all__ = [
    "ConfigError",
    "Config",
    "REGISTRY",
    "parse_config_text",
    "load_config",
    "default_config",
    "config_from_values",
    "render_config",
    "make_synthetic_config",
    "make_encoder_config",
    "make_train_config",
    "make_probe_config",
]


class ConfigError(ValueError):
    """Malformed text, unknown key, or a value of the wrong type."""


# Each option class owns the keys under its prefix: one key per field with a
# scalar default, converted by that default's type.
_OWNERS = {SyntheticConfig: "data.", EncoderConfig: "encoder.",
           TrainConfig: "train.", ProbeConfig: "eval.probe_"}


def _options(cls) -> list:
    return [f for f in fields(cls) if isinstance(f.default, (int, float, str))]


# key -> (type converter, default): every key a config file may set.
REGISTRY: dict[str, tuple] = {
    _OWNERS[cls] + f.name: (type(f.default), f.default)
    for cls in _OWNERS for f in _options(cls)
}
REGISTRY.update({
    "data.horizon_days": (float, 30.0),
    "vocab.k": (int, 100),
    "split.train": (float, 0.8),
    "split.val": (float, 0.1),
    "split.test": (float, 0.1),
    "split.seed": (int, 0),
    "train.objective": (str, "coles"),
    "eval.window": (int, 32),
    "eval.stride": (int, 16),
    "eval.n_seeds": (int, 3),
    "context.store_size": (int, 500),
    "context.method": (str, "mean"),
    "context.attn_epochs": (int, 3),
    "context.attn_lr": (float, 1e-2),
})

# Keys whose value must be one of a fixed set of names.
_CHOICES = {"train.objective": OBJECTIVES, "context.method": AGGREGATION_METHODS}
# Learning rates must be positive.
_RATES = [key for key in REGISTRY if key.endswith("lr")]


@dataclass(frozen=True)
class Config:
    """Resolved key/value mapping plus its canonical digest."""

    values: dict
    digest: str

    def get(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]


def parse_config_text(text: str) -> dict[str, str]:
    """Raw `key = value` pairs, before type conversion."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _resolve(raw: dict[str, str]) -> dict:
    unknown = sorted(set(raw) - set(REGISTRY))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    values = {}
    for key, (conv, default) in REGISTRY.items():
        if key in raw:
            try:
                values[key] = conv(raw[key])
            except ValueError as err:
                raise ConfigError(
                    f"key {key!r}: cannot parse {raw[key]!r} as {conv.__name__}"
                ) from err
        else:
            values[key] = default
    return values


def _render_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def render_config(values: dict) -> str:
    """Canonical text form: sorted keys, one `key = value` per line."""
    lines = [f"{k} = {_render_value(values[k])}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


def _digest(values: dict) -> str:
    return hashlib.sha256(render_config(values).encode("utf-8")).hexdigest()


def config_from_values(values: dict) -> Config:
    for key, allowed in _CHOICES.items():
        if values.get(key) not in allowed:
            raise ConfigError(f"{key} must be one of {allowed}, got {values.get(key)!r}")
    for key in _RATES:
        rate = values.get(key)
        if not isinstance(rate, (int, float)) or not rate > 0:
            raise ConfigError(f"{key} must be positive, got {rate!r}")
    return Config(values=dict(values), digest=_digest(values))


def default_config() -> Config:
    return config_from_values({k: d for k, (_, d) in REGISTRY.items()})


def load_config(path: Optional[str | Path]) -> Config:
    """Config from a file, or pure defaults when no path is given."""
    if path is None:
        return default_config()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return config_from_values(_resolve(parse_config_text(text)))


def _build(cls, cfg: Config, **given):
    """`cls` from the keys it owns, plus the non-config fields in `given`."""
    prefix = _OWNERS[cls]
    return cls(**{f.name: cfg.get(prefix + f.name) for f in _options(cls)}, **given)


def make_synthetic_config(cfg: Config) -> SyntheticConfig:
    return _build(SyntheticConfig, cfg)


def make_encoder_config(cfg: Config, n_indices: int) -> EncoderConfig:
    return _build(EncoderConfig, cfg, n_indices=n_indices)


def make_train_config(cfg: Config) -> TrainConfig:
    return _build(TrainConfig, cfg)


def make_probe_config(cfg: Config) -> ProbeConfig:
    return _build(ProbeConfig, cfg)
