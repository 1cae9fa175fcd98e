"""Data layer: amount transform, vocabulary, splits, synthetic, splice, CSV."""
import csv
import io
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrep.data import (
    ClientSequence,
    Dataset,
    IngestError,
    MccVocab,
    SyntheticConfig,
    derive_local_labels,
    fit_mcc_vocab,
    generate_synthetic,
    ingest_csv,
    splice_pair,
    split_dataset,
    transform_amount,
    write_change_points_csv,
    write_labels_csv,
    write_local_labels_csv,
    write_transactions_csv,
)
from seqrep.data.ingest import (
    attach_annotations,
    load_change_points,
    load_labels,
    load_local_labels,
)


def make_seq(cid, mcc, ts=None, amounts=None, **kw):
    mcc = np.asarray(mcc, dtype=np.int64)
    n = len(mcc)
    if ts is None:
        ts = np.arange(n, dtype=np.int64) * 3600 + 1_600_000_000
    if amounts is None:
        amounts = np.ones(n)
    return ClientSequence(client_id=cid, timestamps=np.asarray(ts, dtype=np.int64),
                          mcc=mcc, amounts=np.asarray(amounts, dtype=np.float64), **kw)


# ---------------------------------------------------------------- amounts

def test_transform_amount_spot_values():
    assert transform_amount(math.e - 1) == pytest.approx(1.0, abs=1e-15)
    assert transform_amount(-(math.e - 1)) == pytest.approx(-1.0, abs=1e-15)
    assert transform_amount(0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_transform_amount_is_odd_and_monotone(a):
    assert transform_amount(-a) == pytest.approx(-transform_amount(a), rel=1e-12)
    assert transform_amount(a) == pytest.approx(
        math.copysign(math.log1p(abs(a)), a), rel=1e-12)


def test_transform_amount_vectorized():
    arr = np.array([0.0, math.e - 1, -(math.e - 1)])
    np.testing.assert_allclose(transform_amount(arr), [0.0, 1.0, -1.0], atol=1e-15)


# ---------------------------------------------------------------- vocabulary

def test_vocab_frequency_ranking_and_ties():
    # 30 thrice, 10 and 20 twice each (tie -> ascending code), 40 once.
    seq = make_seq("a", [30, 10, 20, 30, 10, 20, 30, 40])
    vocab = fit_mcc_vocab([seq], k=3)
    assert vocab.mapping == {30: 1, 10: 2, 20: 3}
    assert vocab.k == 3
    assert vocab.oov_index == 4
    assert vocab.n_indices == 5
    np.testing.assert_array_equal(
        vocab.lookup([30, 10, 20, 40, 99]), [1, 2, 3, 4, 4])


def test_vocab_k_larger_than_distinct_codes():
    vocab = fit_mcc_vocab([make_seq("a", [5, 5, 7])], k=100)
    assert vocab.k == 2
    assert vocab.mapping == {5: 1, 7: 2}


def test_vocab_rejects_bad_k_and_empty():
    with pytest.raises(ValueError):
        fit_mcc_vocab([make_seq("a", [1])], k=0)
    with pytest.raises(ValueError):
        fit_mcc_vocab([], k=5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=200),
       st.integers(1, 12))
def test_vocab_lookup_matches_dict(codes, k):
    seq = make_seq("a", codes)
    vocab = fit_mcc_vocab([seq], k=k)
    raw = np.asarray(codes + [999], dtype=np.int64)
    expected = np.array([vocab.mapping.get(int(c), vocab.oov_index) for c in raw])
    np.testing.assert_array_equal(vocab.lookup(raw), expected)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 40), min_size=1, max_size=60),
                min_size=1, max_size=6),
       st.integers(1, 20))
def test_vocab_matches_a_counter_ranking(columns, k):
    counts = Counter(code for column in columns for code in column)
    ranked = sorted(counts.items(), key=lambda cf: (-cf[1], cf[0]))[:k]
    vocab = fit_mcc_vocab([make_seq(f"c{i}", col) for i, col in enumerate(columns)], k=k)
    assert list(vocab.mapping.items()) == [(code, i + 1) for i, (code, _) in enumerate(ranked)]
    assert all(type(code) is int for code in vocab.mapping)


def test_vocab_equality_ignores_its_lookup_arrays():
    a = MccVocab(mapping={7: 1, 3: 2}, k=2)
    assert a == MccVocab(mapping={7: 1, 3: 2}, k=2)
    assert a != MccVocab(mapping={7: 2, 3: 1}, k=2)
    np.testing.assert_array_equal(a.lookup([3, 7, 5]), [2, 1, 3])
    np.testing.assert_array_equal(MccVocab(mapping={}, k=0).lookup([1, 2]), [1, 1])


def test_with_vocab_attaches_indices():
    seq = make_seq("a", [10, 20, 10])
    vocab = MccVocab(mapping={10: 1, 20: 2}, k=2)
    out = seq.with_vocab(vocab)
    np.testing.assert_array_equal(out.mcc_idx, [1, 2, 1])
    assert seq.mcc_idx is None


# ---------------------------------------------------------------- splits

def make_dataset(n):
    clients = [make_seq(f"c{i:03d}", [1, 2, 3]) for i in range(n)]
    return Dataset(clients=clients)


def test_split_sizes_and_disjointness():
    train, val, test = split_dataset(make_dataset(100), (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    ids = [c.client_id for part in (train, val, test) for c in part.clients]
    assert len(set(ids)) == 100


def test_split_is_deterministic_and_seed_sensitive():
    a1 = split_dataset(make_dataset(50), seed=3)[0]
    a2 = split_dataset(make_dataset(50), seed=3)[0]
    b = split_dataset(make_dataset(50), seed=4)[0]
    assert [c.client_id for c in a1.clients] == [c.client_id for c in a2.clients]
    assert [c.client_id for c in a1.clients] != [c.client_id for c in b.clients]


def test_split_steals_one_for_tiny_parts():
    train, val, test = split_dataset(make_dataset(5), (0.8, 0.1, 0.1), seed=0)
    assert len(val) >= 1 and len(test) >= 1
    assert len(train) + len(val) + len(test) == 5


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(make_dataset(10), (0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        split_dataset(make_dataset(2), (0.4, 0.3, 0.3))


# ---------------------------------------------------------------- local labels

def test_derive_local_labels_horizon():
    day = 86400
    ts = np.array([0, 10 * day, 25 * day, 40 * day], dtype=np.int64) + 10
    pos = make_seq("p", [1, 1, 1, 1], ts=ts, global_label=1)
    neg = make_seq("n", [1, 1, 1, 1], ts=ts, global_label=0)
    ds = Dataset(clients=[pos, neg])
    out = derive_local_labels(ds, horizon_days=30.0)
    np.testing.assert_array_equal(out.clients[0].local_labels, [0, 0, 1, 1])
    np.testing.assert_array_equal(out.clients[1].local_labels, [0, 0, 0, 0])


# ---------------------------------------------------------------- synthetic

@pytest.fixture(scope="module")
def synth():
    cfg = SyntheticConfig(n_clients=40, length_min=50, length_max=90,
                          n_mcc=10, n_regimes=3, cp_probability=0.6,
                          cp_distress_prob=0.7, seed=5)
    return cfg, generate_synthetic(cfg)


def test_synthetic_is_deterministic(synth):
    cfg, ds = synth
    again = generate_synthetic(cfg)
    assert len(ds) == len(again) == 40
    for a, b in zip(ds.clients, again.clients):
        assert a.client_id == b.client_id
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(a.mcc, b.mcc)
        np.testing.assert_array_equal(a.amounts, b.amounts)
        assert a.global_label == b.global_label
        assert a.change_point == b.change_point


def test_synthetic_structure(synth):
    cfg, ds = synth
    n_cp = 0
    for seq in ds.clients:
        n = len(seq)
        assert cfg.length_min <= n <= cfg.length_max
        assert np.all(np.diff(seq.timestamps) > 0)
        assert seq.global_label in (0, 1)
        assert np.all(seq.amounts != 0)
        if seq.change_point is not None:
            n_cp += 1
            assert n // 4 <= seq.change_point < 3 * n // 4
        if seq.local_labels is not None and seq.local_labels.max() > 0:
            tau = seq.change_point
            assert tau is not None
            np.testing.assert_array_equal(seq.local_labels[:tau], 0)
            np.testing.assert_array_equal(seq.local_labels[tau:], 1)
    # cp_probability=0.6 over 40 clients: expect a healthy count of each kind
    assert 10 <= n_cp <= 38


def test_synthetic_refunds_present():
    cfg = SyntheticConfig(n_clients=30, length_min=80, length_max=80,
                          n_mcc=8, n_regimes=2, refund_prob=0.2, seed=1)
    ds = generate_synthetic(cfg)
    total = sum(int((c.amounts < 0).sum()) for c in ds.clients)
    frac = total / sum(len(c) for c in ds.clients)
    assert 0.12 < frac < 0.28


def test_synthetic_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticConfig(n_clients=2, n_mcc=1))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticConfig(n_clients=2, n_regimes=1))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticConfig(n_clients=2, length_min=10, length_max=5))


# ---------------------------------------------------------------- splices

@pytest.fixture(scope="module")
def pair(synth):
    _, ds = synth
    a = next(c for c in ds.clients if len(c) % 2 == 0)
    b = next(c for c in ds.clients if c.client_id != a.client_id)
    return a, b


def test_splice_converge_contents(pair):
    a, b = pair
    spliced, tau = splice_pair(a, b, "converge")
    assert tau == len(b) // 2
    assert len(spliced) == tau + (len(a) - len(a) // 2)
    np.testing.assert_array_equal(spliced.mcc[:tau], b.mcc[: len(b) // 2])
    np.testing.assert_array_equal(spliced.mcc[tau:], a.mcc[len(a) // 2:])
    np.testing.assert_array_equal(spliced.amounts[tau:], a.amounts[len(a) // 2:])
    # Kept half of the donor keeps its own timestamps.
    np.testing.assert_array_equal(spliced.timestamps[tau:], a.timestamps[len(a) // 2:])
    assert np.all(np.diff(spliced.timestamps) > 0)


def test_splice_diverge_contents(pair):
    a, b = pair
    spliced, tau = splice_pair(a, b, "diverge")
    assert tau == len(a) // 2
    np.testing.assert_array_equal(spliced.mcc[:tau], a.mcc[:tau])
    np.testing.assert_array_equal(spliced.timestamps[:tau], a.timestamps[:tau])
    np.testing.assert_array_equal(spliced.mcc[tau:], b.mcc[len(b) // 2:])
    assert np.all(np.diff(spliced.timestamps) > 0)


def test_splice_records_change_point(pair):
    a, b = pair
    spliced, tau = splice_pair(a, b, "diverge")
    assert spliced.change_point == tau


def test_splice_rejects_bad_mode_and_short_inputs(pair):
    a, b = pair
    with pytest.raises(ValueError):
        splice_pair(a, b, "sideways")
    with pytest.raises(ValueError):
        splice_pair(make_seq("x", [1]), b, "converge")


# ---------------------------------------------------------------- csv round trip

def test_csv_round_trip(tmp_path, synth):
    _, ds = synth
    d = tmp_path / "data"
    d.mkdir()
    write_transactions_csv(ds, d / "transactions.csv")
    write_labels_csv({c.client_id: c.global_label for c in ds.clients},
                     d / "labels.csv")
    write_local_labels_csv(ds, d / "local_labels.csv")
    write_change_points_csv(ds, d / "change_points.csv")

    back = ingest_csv(d / "transactions.csv")
    back = attach_annotations(
        back,
        labels=load_labels(d / "labels.csv"),
        local_labels=load_local_labels(d / "local_labels.csv"),
        change_points=load_change_points(d / "change_points.csv"),
    )
    assert len(back) == len(ds)
    by_id = {c.client_id: c for c in back.clients}
    for orig in ds.clients:
        got = by_id[orig.client_id]
        np.testing.assert_array_equal(got.timestamps, orig.timestamps)
        np.testing.assert_array_equal(got.mcc, orig.mcc)
        np.testing.assert_array_equal(got.amounts, orig.amounts)
        np.testing.assert_array_equal(got.local_labels, orig.local_labels)
        assert got.global_label == orig.global_label
        assert got.change_point == orig.change_point


def test_set_up_copies_reuse_the_validated_columns(tmp_path, synth, monkeypatch):
    """Ingest, annotations and vocabulary give the columns a fresh build
    would, with the amount transform run once per client."""
    import seqrep.data.types as types

    _, ds = synth
    d = tmp_path / "data"
    d.mkdir()
    write_transactions_csv(ds, d / "transactions.csv")
    write_labels_csv({c.client_id: c.global_label for c in ds.clients},
                     d / "labels.csv")
    write_local_labels_csv(ds, d / "local_labels.csv")
    write_change_points_csv(ds, d / "change_points.csv")
    calls = []
    real = types.transform_amount
    monkeypatch.setattr(types, "transform_amount",
                        lambda a: calls.append(len(a)) or real(a))

    back = attach_annotations(
        ingest_csv(d / "transactions.csv"),
        labels=load_labels(d / "labels.csv"),
        local_labels=load_local_labels(d / "local_labels.csv"),
        change_points=load_change_points(d / "change_points.csv"),
    )
    back = back.with_vocab(fit_mcc_vocab(back.clients, k=5))
    assert len(calls) == len(back)

    monkeypatch.setattr(types, "transform_amount", real)
    for got in back.clients:
        fresh = ClientSequence(
            client_id=got.client_id, timestamps=got.timestamps.copy(),
            mcc=got.mcc.copy(), amounts=got.amounts.copy(),
            mcc_idx=got.mcc_idx.copy(), global_label=got.global_label,
            local_labels=got.local_labels.copy(), change_point=got.change_point)
        for name in ("timestamps", "mcc", "amounts", "amounts_t", "mcc_idx",
                     "local_labels"):
            a, b = getattr(got, name), getattr(fresh, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.global_label, got.change_point) == (fresh.global_label,
                                                        fresh.change_point)


def test_annotated_copies_only_annotations():
    seq = make_seq("a", [10, 20, 10], amounts=[1.0, -2.0, 3.0])
    out = seq.annotated(local_labels=[0, 1, 1], global_label=1)
    assert out.local_labels.dtype == np.int64 and seq.local_labels is None
    assert out.amounts_t is seq.amounts_t and out.global_label == 1
    with pytest.raises(TypeError, match="not an annotation"):
        seq.annotated(amounts=[1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_client_sequence_rejects_non_finite_amounts(bad):
    with pytest.raises(ValueError, match="client a: non-finite amount"):
        make_seq("a", [10, 20, 10], amounts=[1.0, bad, 3.0])


def test_synthetic_amount_overflow_names_the_client():
    # exp of a draw with sigma 1000 overflows to inf in the first client; the
    # typed error is the only signal, with no numpy warning ahead of it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="client c0: non-finite amount"):
            generate_synthetic(SyntheticConfig(n_clients=4, amount_sigma=1000.0))


def test_ingest_missing_column_is_typed_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("client_id,timestamp\na,1\n")
    with pytest.raises(IngestError):
        ingest_csv(p)


def test_ingest_sorts_unsorted_timestamps_with_warning(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("client_id,timestamp,mcc,amount\n"
                 "a,5,10,1.0\na,3,11,2.0\n")
    with pytest.warns(UserWarning, match="out-of-order"):
        ds = ingest_csv(p)
    seq = ds.clients[0]
    np.testing.assert_array_equal(seq.timestamps, [3, 5])
    np.testing.assert_array_equal(seq.mcc, [11, 10])


# ---------------------------------------------------------------- csv reader against a row-wise reference

def reference_rows(path, n_fields):
    """The row-wise parser the columnar reader replaced: csv.reader, one row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            assert len(row) == n_fields, f"line {lineno}"
            yield row


def reference_load(directory):
    """(id, timestamps, mcc, amounts, label, local labels, change point) per client."""
    groups = {}
    for row in reference_rows(directory / "transactions.csv", 4):
        groups.setdefault(row[0].strip(), []).append((int(row[1]), int(row[2]), float(row[3])))
    labels = {r[0].strip(): int(r[1]) for r in reference_rows(directory / "labels.csv", 2)}
    cps = {r[0].strip(): int(r[1])
           for r in reference_rows(directory / "change_points.csv", 2)}
    local = {}
    for r in reference_rows(directory / "local_labels.csv", 3):
        local.setdefault(r[0].strip(), []).append((int(r[1]), int(r[2])))
    out = []
    for cid in sorted(groups):
        rows = groups[cid]
        order = np.argsort([r[0] for r in rows], kind="stable")
        rows = [rows[i] for i in order]
        loc = None
        if cid in local:
            loc = np.zeros(len(rows), dtype=np.int64)
            for idx, lab in local[cid]:
                loc[idx] = lab
        out.append((cid, np.array([r[0] for r in rows], dtype=np.int64),
                    np.array([r[1] for r in rows], dtype=np.int64),
                    np.array([r[2] for r in rows], dtype=np.float64),
                    labels.get(cid), loc, cps.get(cid)))
    return out


ID_CHARS = list("abcxyz019") + [",", " ", '"', "#", "é", "-"]
BLANK_ROWS = ["", "   ", "\t", ",,,", " , ,", '"",""', ",", '" "']


def random_csv_dir(directory, seed):
    """Four input files from one seed, in the shapes real exports take.

    Quoted ids with commas and quotes, ids padded with spaces or starting
    with '#', CRLF or LF endings, blank and whitespace-only rows, numbers
    padded with spaces or tabs, clients interleaved and out of time order,
    repeated timestamps, repr floats and repeated local-label rows.
    """
    rng = np.random.default_rng(seed)
    ending = "\r\n" if rng.random() < 0.5 else "\n"
    blanks = rng.random() < 0.7
    n_clients = int(rng.integers(1, 9))
    ids = set()
    while len(ids) < n_clients:
        cid = "".join(rng.choice(ID_CHARS, size=int(rng.integers(1, 7))))
        if cid.strip() and not (cid[0] == " " and '"' in cid):
            ids.add(cid)
    ids = sorted(ids)

    def pad(text):
        return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " "])

    def field(cid):
        buf = io.StringIO()
        csv.writer(buf).writerow([cid])
        return buf.getvalue().rstrip("\r\n")

    def write(name, header, rows):
        lines = [header]
        for row in rows:
            if blanks and rng.random() < 0.15:
                lines.append(str(rng.choice(BLANK_ROWS)))
            lines.append(",".join(row))
        (directory / name).write_bytes((ending.join(lines) + ending).encode())

    txns, lengths = [], {}
    for cid in ids:
        n = int(rng.integers(1, 25))
        lengths[cid] = n
        ts = rng.integers(1_600_000_000, 1_600_000_000 + 40, size=n)
        for t in ts:
            amount = rng.choice([rng.normal() * 100, -rng.random() * 1e-7,
                                 float(rng.integers(-5, 5)), rng.normal() * 1e300, -0.0])
            text = repr(float(amount)) if rng.random() < 0.8 else str(int(amount))
            txns.append([field(cid), pad(str(int(t))), pad(str(int(rng.integers(0, 9999)))),
                         pad(text)])
    order = rng.permutation(len(txns))
    write("transactions.csv", "client_id,timestamp,mcc,amount", [txns[i] for i in order])
    write("labels.csv", "client_id,label",
          [[field(c), pad(str(int(rng.integers(0, 2))))] for c in ids if rng.random() < 0.8])
    write("change_points.csv", "client_id,txn_index",
          [[field(c), str(int(rng.integers(0, lengths[c])))] for c in ids if rng.random() < 0.5])
    local = [[field(c), pad(str(int(i))), str(int(rng.integers(0, 3)))]
             for c in ids if rng.random() < 0.8
             for i in rng.integers(0, lengths[c], size=lengths[c] + 3)]
    write("local_labels.csv", "client_id,txn_index,label", local)


def columnar_load(directory):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = ingest_csv(directory / "transactions.csv")
    ds = attach_annotations(ds, labels=load_labels(directory / "labels.csv"),
                            local_labels=load_local_labels(directory / "local_labels.csv"),
                            change_points=load_change_points(directory / "change_points.csv"))
    return ds, [str(w.message) for w in caught]


@pytest.mark.parametrize("seed", range(40))
def test_columnar_reader_matches_row_wise_reference(tmp_path, seed):
    random_csv_dir(tmp_path, seed)
    want = reference_load(tmp_path)
    got, caught = columnar_load(tmp_path)
    assert [c.client_id for c in got] == [w[0] for w in want]
    for c, (cid, ts, mcc, amounts, label, local, cp) in zip(got, want):
        assert type(c.client_id) is str
        for a, b in ((c.timestamps, ts), (c.mcc, mcc), (c.amounts, amounts)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(np.signbit(c.amounts), np.signbit(amounts))
        assert c.global_label == label and c.change_point == cp
        assert (c.local_labels is None) == (local is None)
        if local is not None:
            assert np.array_equal(c.local_labels, local)
    by_client = {}
    for row in reference_rows(tmp_path / "transactions.csv", 4):
        by_client.setdefault(row[0].strip(), []).append(int(row[1]))
    unsorted = sum(1 for ts in by_client.values() if np.any(np.diff(ts) < 0))
    assert caught == ([f"{tmp_path / 'transactions.csv'}: reordered out-of-order "
                       f"timestamps for {unsorted} client(s)"] if unsorted else [])


def test_local_labels_come_sorted_and_last_row_wins(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("client_id,txn_index,label\nb,2,1\na,1,1\nb,0,1\nb,2,0\na,0,2\n")
    got = load_local_labels(p)
    assert list(got) == ["a", "b"]
    np.testing.assert_array_equal(got["a"][0], [0, 1])
    np.testing.assert_array_equal(got["a"][1], [2, 1])
    np.testing.assert_array_equal(got["b"][0], [0, 2])
    np.testing.assert_array_equal(got["b"][1], [1, 0])


# ---------------------------------------------------------------- csv errors

HEADER = "client_id,timestamp,mcc,amount\n"


def ingest_text(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    return p


def test_ingest_rejects_a_wrong_header(tmp_path):
    p = ingest_text(tmp_path, "client_id,ts,mcc,amount\na,1,2,3\n")
    with pytest.raises(IngestError, match="expected header client_id,timestamp,mcc,amount, "
                                          "got client_id,ts,mcc,amount"):
        ingest_csv(p)


def test_ingest_rejects_an_empty_file(tmp_path):
    with pytest.raises(IngestError, match="t.csv: file is empty"):
        ingest_csv(ingest_text(tmp_path, ""))


@pytest.mark.parametrize("body", ["", "\n\n", "  \n,,,\n \t \n", '"","","",""\n'])
def test_ingest_rejects_no_records_without_leaking_warnings(tmp_path, body):
    p = ingest_text(tmp_path, HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestError, match="t.csv: no transaction records"):
            ingest_csv(p)
        assert load_labels(ingest_text(tmp_path, "client_id,label\n" + body)) == {}


def test_blank_rows_are_skipped_without_warnings(tmp_path):
    p = ingest_text(tmp_path, HEADER + "a,1,2,3.5\n\n   \n,,,\nb,4,5,-6\n \t\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = ingest_csv(p)
    assert [c.client_id for c in ds] == ["a", "b"]
    assert ds.clients[1].amounts.tolist() == [-6.0]


@pytest.mark.parametrize("rows, message", [
    ("a,1,2,3\n\n  \nb,1,2\n", "line 5: expected 4 fields, got 3"),
    ("a,1,2,3\nb,1,2,3,4\n", "line 3: expected 4 fields, got 5"),
    ("a,1,2,3\n  ,1,2,3\n", "line 3: empty client_id"),
    (',,,\n"",1,2,3\n', "line 3: empty client_id"),
    ("a,1,2,3\na,x,2,3\n", "line 3: invalid literal for int"),
    ("a,1,2,3\na,1,2.5,3\n", "line 3: invalid literal for int"),
    ("a,1_000,2,3\n", "line 2: timestamp '1_000' is not a plain decimal integer"),
    ("a,1,2,abc\n", "line 2: could not convert string to float"),
    ("a,1,2,3\r\nb,1,2,1_0.5\r\n", "line 3: amount '1_0.5' is not a plain decimal number"),
    ("a,1,2,3\na,2,2,inf\n", "line 3: amount inf is not finite"),
    ("a,1,2,3\n\na,2,2,nan\n", "line 4: amount nan is not finite"),
    ("a,1,2,1e400\n", "line 2: amount 1e400 is not finite"),
    ("a,9223372036854775808,2,3\n", "line 2: timestamp 9223372036854775808 is outside "
                                    "the int64 range"),
    ("a,1,-99999999999999999999,3\n", "line 2: mcc -99999999999999999999 is outside"),
])
def test_ingest_errors_name_their_line(tmp_path, rows, message):
    p = ingest_text(tmp_path, HEADER + rows)
    with pytest.raises(IngestError) as err:
        ingest_csv(p)
    assert str(err.value).startswith(f"{p} line ")
    assert message in str(err.value)


def test_label_files_check_their_rows_too(tmp_path):
    p = ingest_text(tmp_path, "client_id,txn_index,label\na,0,1\n\na,1\n")
    with pytest.raises(IngestError, match="line 4: expected 3 fields, got 2"):
        load_local_labels(p)
    p = ingest_text(tmp_path, "client_id,label\na,1\n ,0\n")
    with pytest.raises(IngestError, match="line 3: empty client_id"):
        load_labels(p)
    p = ingest_text(tmp_path, "client_id,txn_index\na,99999999999999999999\n")
    with pytest.raises(IngestError, match="line 2: txn_index 99999999999999999999 is outside"):
        load_change_points(p)


@pytest.mark.parametrize("index", ["3", "-1"])
def test_local_label_index_out_of_range(tmp_path, index):
    ds = ingest_csv(ingest_text(tmp_path, HEADER + "a,1,2,3\na,2,2,3\nb,1,1,1\nb,2,1,1\nb,3,1,1\n"))
    p = tmp_path / "local.csv"
    p.write_text(f"client_id,txn_index,label\nb,0,1\na,1,1\na,{index},1\n")
    with pytest.raises(IngestError, match=f"local label index {index} out of range for "
                                          f"client a \\(length 2\\)"):
        attach_annotations(ds, local_labels=load_local_labels(p))
