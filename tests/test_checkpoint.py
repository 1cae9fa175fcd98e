"""Checkpoint container: round trips, error taxonomy, atomic writes."""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqrep.checkpoint import (
    MAGIC,
    VERSION,
    _Reader,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    DigestMismatchError,
    atomic_write_bytes,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from seqrep.config import make_encoder_config, make_train_config
from seqrep.context import EmbeddingStore, global_augmenter, window_augmenter
from seqrep.data.types import ClientSequence
from seqrep.data.types import MccVocab
from seqrep.evaluation.windows import WindowEmbeddings
from seqrep.objectives.models import build_model

DIGEST = "d" * 64


def framed(body: bytes) -> bytes:
    """A container of `body` (digest and sections) behind a valid header."""
    return MAGIC + struct.pack("<II", VERSION, zlib.crc32(body)) + body


def test_tensor_round_trip_preserves_shapes(tmp_path, rng):
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=5),
        "scalar": np.float64(2.5),
        "empty": np.zeros((0, 7)),
        "cube": rng.normal(size=(2, 3, 2)),
    }
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, DIGEST, tensors=tensors)
    ckpt = load_checkpoint(path)
    assert ckpt.digest == DIGEST
    assert set(ckpt.tensors) == set(tensors)
    for name, arr in tensors.items():
        got = ckpt.tensors[name]
        assert got.shape == np.asarray(arr).shape
        np.testing.assert_array_equal(got, arr)
    assert ckpt.meta is None and ckpt.vocab is None and ckpt.store is None


def test_meta_vocab_store_round_trip(tmp_path):
    vocab = MccVocab(mapping={5411: 1, 5812: 2, 4111: 3}, k=3)
    store = EmbeddingStore(dim=2)
    store.add_series("c1", np.array([3, 9]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    store.add_series("c0", np.array([1]), np.array([[5.0, 6.0]]))
    meta = {"objective": "ar", "nested": {"k": [1, 2, 3]}}
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, DIGEST, meta=meta, vocab=vocab, store=store)
    ckpt = load_checkpoint(path)
    assert ckpt.meta == meta
    assert ckpt.vocab.mapping == vocab.mapping
    assert ckpt.vocab.k == 3
    assert ckpt.store.client_ids() == ["c0", "c1"]
    for cid in store.client_ids():
        ts, mat = store.series[cid]
        ts2, mat2 = ckpt.store.series[cid]
        np.testing.assert_array_equal(ts, ts2)
        np.testing.assert_array_equal(mat, mat2)


def test_store_section_bytes_match_the_row_by_row_layout(tmp_path, rng):
    dim = 3
    store = EmbeddingStore(dim=dim)
    store.add_series("z9", np.array([-4, 2, 2, 10]), rng.normal(size=(4, dim)))
    store.add_series("a1", np.array([7]), rng.normal(size=(1, dim)))
    store.add_series("m\u00e9", np.array([0, 2**40]), rng.normal(size=(2, dim)))
    path = tmp_path / "store.ckpt"
    save_checkpoint(path, DIGEST, store=store)

    def text(s):
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    want = text(DIGEST) + text("CTXSTORE") + struct.pack("<qq", 3, dim)
    for cid in sorted(store.series):
        ts, matrix = store.series[cid]
        want += text(cid) + struct.pack("<q", len(ts))
        for t, row in zip(ts, matrix):
            want += struct.pack("<q", int(t)) + struct.pack(f"<{dim}d", *row)
    assert path.read_bytes() == framed(want)

    loaded = load_checkpoint(path).store
    embs = [WindowEmbeddings(client_id=cid, matrix=rng.normal(size=(5, dim)),
                             ends=np.arange(1, 6), timestamps=np.array([-5, 2, 3, 8, 99]))
            for cid in ("a1", "z9", "new")]
    clients = [ClientSequence(e.client_id, e.timestamps, np.zeros(5), np.zeros(5))
               for e in embs]
    own = rng.normal(size=(len(clients), dim))
    a = rng.normal(size=(dim, dim))
    for method in ("mean", "max", "attention", "learnable"):
        m = a if method == "learnable" else None
        for x, y in zip(window_augmenter(store, method, m)(embs),
                        window_augmenter(loaded, method, m)(embs)):
            np.testing.assert_array_equal(x.matrix, y.matrix)
        np.testing.assert_array_equal(global_augmenter(store, method, m)(clients, own),
                                      global_augmenter(loaded, method, m)(clients, own))


def test_non_finite_tensor_is_format_error(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, DIGEST, tensors={"emb/table": np.ones((2, 2)),
                                           "gru/u_z": np.array([[np.inf, 0.0]])})
    with pytest.raises(CheckpointFormatError, match="tensor 'gru/u_z' has non-finite"):
        load_checkpoint(path)


def test_non_finite_store_row_is_format_error(tmp_path):
    store = EmbeddingStore(dim=2)
    store.add_series("c0", np.array([1]), np.array([[5.0, 6.0]]))
    store.add_series("c1", np.array([3, 9]), np.array([[1.0, 2.0], [np.nan, 4.0]]))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, DIGEST, store=store)
    with pytest.raises(CheckpointFormatError, match="context store for 'c1'"):
        load_checkpoint(path)


def test_reserved_tensor_names_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="reserved"):
        save_checkpoint(tmp_path / "x.ckpt", DIGEST,
                        tensors={"META": np.zeros(1)})


def test_bad_magic(tmp_path):
    path = tmp_path / "not.ckpt"
    path.write_bytes(b"ZIP!" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, DIGEST, tensors={"w": np.arange(20.0)})
    payload = path.read_bytes()
    path.write_bytes(payload[:-9])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_duplicate_sections_rejected(tmp_path):
    def packed(name, body):
        raw = name.encode()
        return struct.pack("<I", len(raw)) + raw + body

    digest = DIGEST.encode()
    head = struct.pack("<I", len(digest)) + digest
    meta = packed("META", struct.pack("<I", 2) + b"{}")
    path = tmp_path / "dup.ckpt"
    path.write_bytes(framed(head + meta + meta))
    with pytest.raises(CheckpointFormatError, match="duplicate META"):
        load_checkpoint(path)
    tensor = packed("w", struct.pack("<qq", 1, 1) + struct.pack("<d", 0.0))
    path.write_bytes(framed(head + tensor + tensor))
    with pytest.raises(CheckpointFormatError, match="duplicate tensor"):
        load_checkpoint(path)


def crafted(path, *sections):
    """A checkpoint file of the given raw sections after a valid header."""
    digest = DIGEST.encode()
    path.write_bytes(framed(struct.pack("<I", len(digest)) + digest + b"".join(
        struct.pack("<I", len(name)) + name.encode() + body for name, body in sections)))
    return path


def test_wrapping_tensor_size_is_format_error(tmp_path):
    # 8 * 4395513236313604108 wraps to -1.7e18 as an int64 product.
    body = struct.pack("<qqq", 2, 8, 4395513236313604108) + struct.pack("<d", 0.0)
    path = crafted(tmp_path / "wrap.ckpt", ("w", body))
    with pytest.raises(CheckpointFormatError, match=f"{path}: truncated"):
        load_checkpoint(path)


def test_reader_rejects_a_negative_count():
    reader = _Reader(b"abcdef", "r.ckpt")
    reader.take(4)
    with pytest.raises(CheckpointFormatError, match="r.ckpt: negative length -2"):
        reader.take(-2)
    assert reader.pos == 4


def test_unsorted_store_timestamps_are_format_error(tmp_path):
    rows = struct.pack("<qd", 9, 1.0) + struct.pack("<qd", 3, 2.0)
    body = struct.pack("<qq", 1, 1) + struct.pack("<I", 2) + b"c7" + struct.pack("<q", 2)
    path = crafted(tmp_path / "order.ckpt", ("CTXSTORE", body + rows))
    with pytest.raises(CheckpointFormatError, match=f"{path}: .*out of order for 'c7'"):
        load_checkpoint(path)


def test_missing_file_errors(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"hello")
    assert target.read_bytes() == b"hello"
    atomic_write_bytes(target, b"replaced")
    assert target.read_bytes() == b"replaced"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.fixture(scope="module")
def trained(tiny_cfg, tiny_splits):
    enc_cfg = make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)
    model = build_model("ar", enc_cfg, make_train_config(tiny_cfg), seed=0)
    return model, tiny_splits.vocab


def test_model_round_trip_bitwise(tmp_path, trained):
    model, vocab = trained
    path = tmp_path / "model.ckpt"
    save_model(path, model, vocab, DIGEST)
    loaded, ckpt = load_model(path, expected_digest=DIGEST)
    assert ckpt.vocab.mapping == vocab.mapping
    assert loaded.objective == model.objective
    assert loaded.pool_strategy == model.pool_strategy
    original = dict(model.parameters())
    for name, param in loaded.parameters():
        np.testing.assert_array_equal(param.data, original[name].data)


def test_digest_mismatch_and_override(tmp_path, trained):
    model, vocab = trained
    path = tmp_path / "model.ckpt"
    save_model(path, model, vocab, DIGEST)
    with pytest.raises(DigestMismatchError, match="allow-digest-mismatch"):
        load_model(path, expected_digest="f" * 64)
    loaded, _ = load_model(path, expected_digest="f" * 64,
                           allow_digest_mismatch=True)
    assert loaded.objective == model.objective
    # No expectation given: digest is not checked at all.
    load_model(path)


def test_load_model_missing_tensor(tmp_path, trained):
    model, vocab = trained
    path = tmp_path / "model.ckpt"
    tensors = dict(model.parameters())
    name = sorted(tensors)[0]
    partial = {n: p.data for n, p in tensors.items() if n != name}
    from seqrep.checkpoint import model_meta
    save_checkpoint(path, DIGEST, tensors=partial,
                    meta=model_meta(model, vocab), vocab=vocab)
    with pytest.raises(CheckpointError, match="missing tensors"):
        load_model(path)


def test_load_model_shape_mismatch(tmp_path, trained):
    model, vocab = trained
    path = tmp_path / "model.ckpt"
    tensors = {n: p.data for n, p in model.parameters()}
    name = sorted(tensors)[0]
    tensors[name] = np.zeros(tensors[name].shape + (2,))
    from seqrep.checkpoint import model_meta
    save_checkpoint(path, DIGEST, tensors=tensors,
                    meta=model_meta(model, vocab), vocab=vocab)
    with pytest.raises(CheckpointError, match="shape"):
        load_model(path)


def test_load_model_without_meta(tmp_path, trained):
    model, _ = trained
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, DIGEST,
                    tensors={n: p.data for n, p in model.parameters()})
    with pytest.raises(CheckpointError, match="META"):
        load_model(path)


def test_load_model_rejects_bad_pool(tmp_path, trained):
    model, vocab = trained
    path = tmp_path / "model.ckpt"
    from seqrep.checkpoint import model_meta
    meta = dict(model_meta(model, vocab), pool="bogus")
    save_checkpoint(path, DIGEST, meta=meta, vocab=vocab,
                    tensors={n: p.data for n, p in model.parameters()})
    with pytest.raises(CheckpointFormatError, match="train.pool"):
        load_model(path)


@pytest.mark.parametrize("objective, arch", [("ar", "gru"), ("mlm", "transformer")])
def test_load_model_accepts_meta_with_arch(tmp_path, tiny_cfg, tiny_splits,
                                           objective, arch):
    # Older checkpoints record the encoder's architecture; the objective
    # alone picks it now, so the entry is ignored.
    from seqrep.checkpoint import model_meta
    enc_cfg = make_encoder_config(tiny_cfg, tiny_splits.vocab.n_indices)
    model = build_model(objective, enc_cfg, make_train_config(tiny_cfg), seed=3)
    meta = model_meta(model, tiny_splits.vocab)
    assert "arch" not in meta["encoder"]
    meta["encoder"]["arch"] = arch
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, DIGEST, meta=meta, vocab=tiny_splits.vocab,
                    tensors={n: p.data for n, p in model.parameters()})
    loaded, _ = load_model(path)
    assert type(loaded.encoder) is type(model.encoder)
    original = dict(model.parameters())
    for name, param in loaded.parameters():
        np.testing.assert_array_equal(param.data, original[name].data)


def test_checkpoint_dataclass_defaults():
    ckpt = Checkpoint(digest="x")
    assert ckpt.tensors == {}


def test_version_1_file_is_rejected(tmp_path):
    """Version-1 files carry no CRC, so they are not read."""
    digest = DIGEST.encode()
    path = tmp_path / "v1.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 1, len(digest)) + digest)
    with pytest.raises(CheckpointFormatError,
                       match=f"{path}: unsupported container version 1"):
        load_checkpoint(path)


def test_checksum_mismatch_is_format_error(tmp_path):
    path = tmp_path / "crc.ckpt"
    save_checkpoint(path, DIGEST, tensors={"w": np.arange(4.0)})
    payload = bytearray(path.read_bytes())
    payload[-1] ^= 0x40
    path.write_bytes(bytes(payload))
    with pytest.raises(CheckpointFormatError, match=f"{path}: checksum mismatch"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def corruptible(tmp_path_factory, trained):
    """A model checkpoint and a context store: each file's bytes and a
    function that loads a path and says whether it matches the original."""
    model, vocab = trained
    base = tmp_path_factory.mktemp("corrupt")
    model_path = base / "model.ckpt"
    save_model(model_path, model, vocab, DIGEST)
    params = {name: p.data for name, p in model.parameters()}

    def model_unchanged(path):
        loaded, ckpt = load_model(path, expected_digest=DIGEST)
        return (ckpt.vocab.mapping == vocab.mapping
                and all(np.array_equal(p.data, params[name])
                        for name, p in loaded.parameters()))

    rng = np.random.default_rng(41)
    store = EmbeddingStore(dim=3)
    for i in range(4):
        store.add_series(f"c{i}", np.sort(rng.integers(0, 50, size=i + 1)),
                         rng.normal(size=(i + 1, 3)))
    store_path = base / "store.ckpt"
    save_checkpoint(store_path, DIGEST, store=store)

    def store_unchanged(path):
        loaded = load_checkpoint(path).store
        return (loaded.client_ids() == store.client_ids()
                and all(np.array_equal(loaded.series[c][0], store.series[c][0])
                        and np.array_equal(loaded.series[c][1], store.series[c][1])
                        for c in store.client_ids()))

    return {"model": (model_path.read_bytes(), model_unchanged),
            "store": (store_path.read_bytes(), store_unchanged)}


def loads_unchanged_or_names_the_file(path, payload, unchanged):
    path.write_bytes(payload)
    try:
        return unchanged(path)
    except CheckpointError as err:
        assert str(path) in str(err)
        return False


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["model", "store"]), cut=st.booleans(),
       at=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 255))
def test_a_cut_or_changed_byte_loads_unchanged_or_is_rejected(corruptible, tmp_path,
                                                              kind, cut, at, byte):
    original, unchanged = corruptible[kind]
    pos = int(at * len(original))
    if cut:
        payload = original[:pos]
    else:
        payload = original[:pos] + bytes([byte]) + original[pos + 1:]
    same = loads_unchanged_or_names_the_file(tmp_path / f"{kind}.ckpt", payload,
                                             unchanged)
    assert same == (payload == original)


@pytest.mark.parametrize("kind", ["model", "store"])
def test_every_single_bit_flip_is_rejected(corruptible, tmp_path, kind):
    """Every bit of the store file, and 1,000 sampled bits of the model's."""
    original, unchanged = corruptible[kind]
    bits = np.arange(8 * len(original))
    if kind == "model":
        bits = np.random.default_rng(5).choice(bits, size=1000, replace=False)
    path = tmp_path / f"{kind}.ckpt"
    for bit in bits:
        payload = bytearray(original)
        payload[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CheckpointError, match=str(path)):
            path.write_bytes(bytes(payload))
            unchanged(path)
