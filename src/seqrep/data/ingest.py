"""CSV ingestion and export for transaction, label, and annotation files."""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np

from .types import ClientSequence, Dataset

__all__ = [
    "ingest_csv",
    "write_transactions_csv",
    "load_labels",
    "write_labels_csv",
    "load_local_labels",
    "write_local_labels_csv",
    "load_change_points",
    "write_change_points_csv",
    "attach_annotations",
]

TRANSACTIONS_HEADER = ["client_id", "timestamp", "mcc", "amount"]
_INT64 = np.iinfo(np.int64)
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


class IngestError(ValueError):
    pass


def _read_table(path: Path, fields: list[tuple[str, type]]) -> tuple[np.ndarray, np.ndarray]:
    """Stripped client ids and the numeric columns of one input file.

    The header must read `client_id` followed by the field names. The rows
    are parsed by numpy's C reader into one structured array; blank rows are
    skipped. Any row the reader rejects (or whose id is empty or whose float
    is not finite) is reported by `_bad_line` with its 1-based line.
    """
    names = ["client_id"] + [name for name, _ in fields]
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise IngestError(f"{path}: file is empty")
    if [h.strip() for h in header] != names:
        raise IngestError(
            f"{path}: expected header {','.join(names)}, got {','.join(header)}"
        )
    dtype = np.dtype([("client_id", object)] + fields)
    try:
        table = _loadtxt(path, dtype, skiprows=1)
    except ValueError:
        # Whitespace-only and all-empty rows are the reader's only rejects
        # that are not errors: drop them and read once more.
        lines = path.read_text().split("\n")[1:]
        kept = "\n".join(line for line in lines if not _is_blank(line))
        try:
            table = _loadtxt(io.StringIO(kept), dtype)
        except ValueError as e:
            raise _bad_line(path, fields, str(e)) from None
    # Ids are read as Python strings, so the str array is as wide as the
    # longest id: a fixed-width read would truncate.
    ids = np.char.strip(table["client_id"].astype(str))
    finite = all(np.isfinite(table[name]).all() for name, kind in fields if kind is np.float64)
    if not finite or (ids == "").any():
        raise _bad_line(path, fields, "an empty client_id or a non-finite number")
    return ids, table


def _loadtxt(source, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():
        # An input of no rows is reported by the caller, not as a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', skiprows=skiprows, ndmin=1)


def _is_blank(line: str) -> bool:
    """A row that holds no field but whitespace (or no field at all)."""
    if line.replace(",", "").replace('"', "").strip():
        return False
    return all(not cell.strip() for cell in next(csv.reader([line]), []))


def _bad_line(path: Path, fields: list[tuple[str, type]], cause: str) -> IngestError:
    """The first row of `path` that does not parse, named by its 1-based line.

    Walks the file once with `csv.reader`, checking what the columnar read
    checks. Falls back to `cause` if every row passes.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(fields) + 1:
                return IngestError(
                    f"{path} line {lineno}: expected {len(fields) + 1} fields, got {len(row)}"
                )
            if not row[0].strip():
                return IngestError(f"{path} line {lineno}: empty client_id")
            for (name, kind), text in zip(fields, row[1:]):
                try:
                    _check_number(name, kind, text)
                except ValueError as e:
                    return IngestError(f"{path} line {lineno}: {e}")
    return IngestError(f"{path}: {cause}")


def _check_number(name: str, kind: type, text: str) -> None:
    """Raise ValueError unless `text` is a value the columnar read accepts.

    `int`/`float` parse first, so text they reject keeps their message.
    """
    if kind is np.int64:
        value = int(text)
        if not _PLAIN_INT.fullmatch(text.strip()):
            raise ValueError(f"{name} {text!r} is not a plain decimal integer")
        if not _INT64.min <= value <= _INT64.max:
            raise ValueError(f"{name} {text.strip()} is outside the int64 range")
    else:
        value = float(text)
        if "_" in text or not text.isascii():
            raise ValueError(f"{name} {text!r} is not a plain decimal number")
        if not math.isfinite(value):
            raise ValueError(f"{name} {text.strip()} is not finite")


def _group(ids: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Client names in id order, the row order grouping them, and each
    ordered row's client number.

    Rows are sorted by client, then stably by `keys` (last key first, as
    `np.lexsort` takes them), so rows with equal keys keep their file order.
    """
    names, inverse = np.unique(ids, return_inverse=True)
    order = np.lexsort(keys + (inverse,))
    return names, order, inverse[order]


def _cuts(group: np.ndarray) -> np.ndarray:
    """Where each client's run of ordered rows starts, the first one left out."""
    return np.flatnonzero(np.diff(group)) + 1


def ingest_csv(path) -> Dataset:
    """Load `client_id,timestamp,mcc,amount` rows into a Dataset.

    Rows are grouped by client and stably sorted by timestamp; out-of-order
    input is tolerated with a warning. Malformed rows raise with their
    1-based line number. The vocabulary is left unfitted.
    """
    path = Path(path)
    ids, table = _read_table(
        path, [("timestamp", np.int64), ("mcc", np.int64), ("amount", np.float64)]
    )
    if len(ids) == 0:
        raise IngestError(f"{path}: no transaction records")
    names, order, group = _group(ids, table["timestamp"])
    # A client's rows were in time order iff the stable sort kept their file order.
    moved = (np.diff(order) < 0) & (np.diff(group) == 0)
    unsorted_clients = len(np.unique(group[1:][moved]))
    cuts = _cuts(group)
    columns = [np.split(table[name][order], cuts) for name in ("timestamp", "mcc", "amount")]
    clients = [
        ClientSequence(client_id=cid, timestamps=ts, mcc=mcc, amounts=amounts)
        for cid, ts, mcc, amounts in zip(names.tolist(), *columns)
    ]
    if unsorted_clients:
        warnings.warn(
            f"{path}: reordered out-of-order timestamps for {unsorted_clients} client(s)",
            stacklevel=2,
        )
    return Dataset(clients)


def write_transactions_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTIONS_HEADER)
        for seq in dataset.clients:
            for i in range(len(seq)):
                writer.writerow(
                    [seq.client_id, int(seq.timestamps[i]), int(seq.mcc[i]),
                     repr(float(seq.amounts[i]))]
                )


def load_labels(path) -> dict[str, int]:
    """Read `client_id,label` into a dict; a later row for a client wins."""
    ids, table = _read_table(Path(path), [("label", np.int64)])
    return dict(zip(ids.tolist(), table["label"].tolist()))


def write_labels_csv(labels: dict[str, int], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "label"])
        for cid in sorted(labels):
            writer.writerow([cid, int(labels[cid])])


def load_local_labels(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read `client_id,txn_index,label` into per-client (indices, labels).

    Each client's indices come sorted and distinct: of rows naming the same
    transaction, the last one in the file wins.
    """
    ids, table = _read_table(Path(path), [("txn_index", np.int64), ("label", np.int64)])
    names, order, group = _group(ids, table["txn_index"])
    index, label = table["txn_index"][order], table["label"][order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (np.diff(group) != 0) | (np.diff(index) != 0)
    cuts = _cuts(group[last])
    return dict(zip(names.tolist(), zip(np.split(index[last], cuts),
                                        np.split(label[last], cuts))))


def write_local_labels_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "txn_index", "label"])
        for seq in dataset.clients:
            if seq.local_labels is None:
                continue
            for i, lab in enumerate(seq.local_labels):
                writer.writerow([seq.client_id, i, int(lab)])


def load_change_points(path) -> dict[str, int]:
    """Read `client_id,txn_index` planted change points."""
    ids, table = _read_table(Path(path), [("txn_index", np.int64)])
    return dict(zip(ids.tolist(), table["txn_index"].tolist()))


def write_change_points_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "txn_index"])
        for seq in dataset.clients:
            if seq.change_point is not None:
                writer.writerow([seq.client_id, int(seq.change_point)])


def attach_annotations(
    dataset: Dataset,
    labels: dict[str, int] | None = None,
    local_labels: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    change_points: dict[str, int] | None = None,
) -> Dataset:
    """Return a copy of `dataset` with label/annotation columns filled in."""
    out = []
    for seq in dataset.clients:
        glob = seq.global_label
        if labels is not None:
            glob = labels.get(seq.client_id, glob)
        loc = seq.local_labels
        if local_labels is not None and seq.client_id in local_labels:
            index, label = local_labels[seq.client_id]
            out_of_range = (index < 0) | (index >= len(seq))
            if out_of_range.any():
                raise IngestError(
                    f"local label index {index[out_of_range][0]} out of range for client "
                    f"{seq.client_id} (length {len(seq)})"
                )
            loc = np.zeros(len(seq), dtype=np.int64)
            loc[index] = label
        cp = seq.change_point
        if change_points is not None:
            cp = change_points.get(seq.client_id, cp)
        out.append(seq.annotated(global_label=glob, local_labels=loc, change_point=cp))
    return Dataset(out)
