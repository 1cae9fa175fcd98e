"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   b"SRB1"
    version u32 (2)
    crc     u32 zlib.crc32 of every byte after this field
    digest  u32 length + utf-8 bytes (config digest of the producing run)
    then sections until end of file. Every section starts with
    u32 name length + utf-8 name. Three names have dedicated bodies:

    META      u32 length + utf-8 JSON (model rebuild information)
    VOCAB     i64 k, then k i64 raw codes in index order 1..k
    CTXSTORE  i64 n_clients, i64 dim, then per client:
              u32 id length + id, i64 count, count * (i64 timestamp
              + dim float64 values)

    Any other name is a tensor: i64 rank, rank i64 dims, then the float64
    payload in row-major order.

Every read checks the CRC before parsing, so a truncated or corrupted file
raises CheckpointFormatError instead of loading changed values; version-1
files, which carry no CRC, are rejected as an unsupported version. Writes go
to a temporary file in the target directory followed by an atomic rename, so
a crash never leaves a half-written checkpoint behind.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .context import EmbeddingStore
from .data.types import MccVocab
from .encoders import EncoderConfig
from .objectives.models import TrainConfig, build_model

__all__ = [
    "MAGIC",
    "VERSION",
    "CheckpointError",
    "CheckpointFormatError",
    "DigestMismatchError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write_bytes",
    "model_meta",
    "save_model",
    "load_model",
]

MAGIC = b"SRB1"
VERSION = 2


class CheckpointError(ValueError):
    """Base class for everything that can go wrong with a checkpoint."""


class CheckpointFormatError(CheckpointError):
    """The bytes do not form a valid container."""


class DigestMismatchError(CheckpointError):
    """The checkpoint was produced under a different configuration."""


@dataclass
class Checkpoint:
    """Parsed container contents."""

    digest: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    meta: Optional[dict] = None
    vocab: Optional[MccVocab] = None
    store: Optional[EmbeddingStore] = None


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Write via a sibling temp file and rename into place."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    head = _pack_str(name) + struct.pack("<q", arr.ndim)
    head += struct.pack(f"<{arr.ndim}q", *arr.shape) if arr.ndim else b""
    return head + arr.astype("<f8").tobytes(order="C")


def _pack_vocab(vocab: MccVocab) -> bytes:
    by_index = sorted(vocab.mapping.items(), key=lambda kv: kv[1])
    if [idx for _, idx in by_index] != list(range(1, vocab.k + 1)):
        raise CheckpointError("vocabulary indices are not contiguous 1..k")
    body = struct.pack("<q", vocab.k)
    body += struct.pack(f"<{vocab.k}q", *[code for code, _ in by_index]) if vocab.k else b""
    return _pack_str("VOCAB") + body


def _store_rows(dim: int) -> np.dtype:
    """One CTXSTORE row: i64 timestamp followed by dim float64 values."""
    return np.dtype([("t", "<i8"), ("v", "<f8", (dim,))])


def _pack_store(store: EmbeddingStore) -> bytes:
    parts = [_pack_str("CTXSTORE"),
             struct.pack("<qq", len(store.series), store.dim)]
    rows = _store_rows(store.dim)
    for cid in store.client_ids():
        ts, matrix = store.series[cid]
        block = np.empty(len(ts), dtype=rows)
        block["t"] = ts
        block["v"] = matrix
        parts += [_pack_str(cid), struct.pack("<q", len(ts)), block.tobytes()]
    return b"".join(parts)


def save_checkpoint(path: str | os.PathLike, digest: str,
                    tensors: Optional[dict[str, np.ndarray]] = None,
                    meta: Optional[dict] = None,
                    vocab: Optional[MccVocab] = None,
                    store: Optional[EmbeddingStore] = None) -> None:
    """Serialize the given sections into one container file."""
    tensors = tensors or {}
    reserved = {"META", "VOCAB", "CTXSTORE"}
    bad = reserved & set(tensors)
    if bad:
        raise CheckpointError(f"tensor names collide with reserved sections: {sorted(bad)}")
    parts = [_pack_str(digest)]
    if meta is not None:
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        parts.append(_pack_str("META") + _pack_str(blob))
    if vocab is not None:
        parts.append(_pack_vocab(vocab))
    for name in sorted(tensors):
        parts.append(_pack_tensor(name, tensors[name]))
    if store is not None:
        parts.append(_pack_store(store))
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    atomic_write_bytes(path, b"".join([MAGIC, struct.pack("<II", VERSION, crc), *parts]))


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if n < 0:
            raise CheckpointFormatError(
                f"{self.path}: negative length {n} at offset {self.pos}")
        if self.pos + n > len(self.data):
            raise CheckpointFormatError(
                f"{self.path}: truncated (needed {n} bytes at offset {self.pos})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def string(self) -> str:
        n = self.u32()
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"{self.path}: invalid utf-8 string") from err

    def done(self) -> bool:
        return self.pos == len(self.data)


def _read_vocab(r: _Reader) -> MccVocab:
    k = r.i64()
    if k < 0:
        raise CheckpointFormatError(f"{r.path}: negative vocabulary size")
    codes = struct.unpack(f"<{k}q", r.take(8 * k)) if k else ()
    return MccVocab(mapping={int(c): i + 1 for i, c in enumerate(codes)}, k=k)


def _read_store(r: _Reader) -> EmbeddingStore:
    n = r.i64()
    dim = r.i64()
    if n < 0 or dim < 1:
        raise CheckpointFormatError(f"{r.path}: bad context store header ({n}, {dim})")
    store = EmbeddingStore(dim=dim)
    rows = _store_rows(dim)
    for _ in range(n):
        cid = r.string()
        count = r.i64()
        if count < 0:
            raise CheckpointFormatError(f"{r.path}: negative series length for {cid!r}")
        block = np.frombuffer(r.take(count * rows.itemsize), dtype=rows)
        if not np.isfinite(block["v"]).all():
            raise CheckpointFormatError(
                f"{r.path}: non-finite embedding in the context store for {cid!r}")
        if np.any(np.diff(block["t"]) < 0):
            raise CheckpointFormatError(
                f"{r.path}: context store timestamps out of order for {cid!r}")
        store.add_series(cid, block["t"].astype(np.int64),
                         block["v"].astype(np.float64))
    return store


def _read_tensor(r: _Reader, name: str) -> np.ndarray:
    rank = r.i64()
    if rank < 0 or rank > 8:
        raise CheckpointFormatError(f"{r.path}: implausible tensor rank {rank}")
    dims = [r.i64() for _ in range(rank)]
    if any(d < 0 for d in dims):
        raise CheckpointFormatError(f"{r.path}: negative tensor dimension {dims}")
    # Python ints: a product of int64 dimensions wraps.
    n = math.prod(dims)
    flat = np.frombuffer(r.take(8 * n), dtype="<f8")
    if not np.isfinite(flat).all():
        raise CheckpointFormatError(f"{r.path}: tensor {name!r} has non-finite values")
    return flat.reshape(dims).copy()


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic (not a checkpoint)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported container version {version} (expected {VERSION})"
        )
    crc = r.u32()
    if zlib.crc32(memoryview(data)[r.pos:]) != crc:
        raise CheckpointFormatError(f"{path}: checksum mismatch (corrupted or truncated)")
    ckpt = Checkpoint(digest=r.string())
    while not r.done():
        name = r.string()
        if name == "META":
            if ckpt.meta is not None:
                raise CheckpointFormatError(f"{path}: duplicate META section")
            try:
                ckpt.meta = json.loads(r.string())
            except json.JSONDecodeError as err:
                raise CheckpointFormatError(f"{path}: invalid META JSON") from err
        elif name == "VOCAB":
            if ckpt.vocab is not None:
                raise CheckpointFormatError(f"{path}: duplicate VOCAB section")
            ckpt.vocab = _read_vocab(r)
        elif name == "CTXSTORE":
            if ckpt.store is not None:
                raise CheckpointFormatError(f"{path}: duplicate CTXSTORE section")
            ckpt.store = _read_store(r)
        else:
            if name in ckpt.tensors:
                raise CheckpointFormatError(f"{path}: duplicate tensor {name!r}")
            ckpt.tensors[name] = _read_tensor(r, name)
    return ckpt


def model_meta(model, vocab: MccVocab,
               n_classes: Optional[int] = None) -> dict:
    """Everything needed to rebuild the model skeleton at load time."""
    enc_cfg: EncoderConfig = model.encoder.config
    return {
        "objective": model.objective,
        "pool": model.pool_strategy,
        "head_hidden": model.cfg.head_hidden,
        "n_classes": n_classes,
        "vocab_k": vocab.k,
        "encoder": {
            "n_indices": enc_cfg.n_indices,
            "d_emb": enc_cfg.d_emb,
            "hidden": enc_cfg.hidden,
            "blocks": enc_cfg.blocks,
            "heads": enc_cfg.heads,
            "ff": enc_cfg.ff,
        },
    }


def save_model(path: str | os.PathLike, model, vocab: MccVocab, digest: str,
               n_classes: Optional[int] = None) -> None:
    """Save a trained objective model plus its vocabulary."""
    save_checkpoint(path, digest,
                    tensors={name: p.data for name, p in model.parameters()},
                    meta=model_meta(model, vocab, n_classes), vocab=vocab)


def load_model(path: str | os.PathLike, expected_digest: Optional[str] = None,
               allow_digest_mismatch: bool = False):
    """Rebuild the model from a checkpoint and load every parameter.

    Returns (model, checkpoint). The checkpoint's digest must match
    `expected_digest` when one is given, unless explicitly allowed not to.
    """
    ckpt = load_checkpoint(path)
    if expected_digest is not None and ckpt.digest != expected_digest:
        if not allow_digest_mismatch:
            raise DigestMismatchError(
                f"{os.fspath(path)}: checkpoint was written under config digest "
                f"{ckpt.digest[:12]}..., current config is {expected_digest[:12]}...; "
                f"pass --allow-digest-mismatch to proceed anyway"
            )
    if ckpt.meta is None:
        raise CheckpointError(f"{os.fspath(path)}: no META section; cannot rebuild model")
    meta = ckpt.meta
    try:
        enc = meta["encoder"]
        # Checkpoints written before the objective alone chose the encoder
        # also carry an "arch" entry; it is ignored.
        enc_cfg = EncoderConfig(
            n_indices=int(enc["n_indices"]), d_emb=int(enc["d_emb"]),
            hidden=int(enc["hidden"]),
            blocks=int(enc["blocks"]), heads=int(enc["heads"]), ff=int(enc["ff"]),
        )
        n_classes = meta.get("n_classes")
        cfg = TrainConfig(pool=str(meta["pool"]),
                          head_hidden=int(meta.get("head_hidden", 64)))
        model = build_model(str(meta["objective"]), enc_cfg, cfg, seed=0,
                            n_classes=None if n_classes is None else int(n_classes))
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointFormatError(f"{os.fspath(path)}: malformed META: {err}") from err
    named = dict(model.parameters())
    missing = sorted(set(named) - set(ckpt.tensors))
    if missing:
        raise CheckpointError(f"{os.fspath(path)}: missing tensors: {missing}")
    for name, tensor in named.items():
        arr = ckpt.tensors[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"{os.fspath(path)}: tensor {name!r} has shape {arr.shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = np.ascontiguousarray(arr)
    return model, ckpt
