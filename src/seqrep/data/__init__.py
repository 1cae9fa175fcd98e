"""Transaction data model: ingestion, preprocessing, synthesis, splicing."""

from .ingest import (
    IngestError,
    attach_annotations,
    ingest_csv,
    load_change_points,
    load_labels,
    load_local_labels,
    write_change_points_csv,
    write_labels_csv,
    write_local_labels_csv,
    write_transactions_csv,
)
from .preprocess import derive_local_labels, fit_mcc_vocab, split_dataset
from .splice import splice_pair
from .synthetic import SyntheticConfig, generate_synthetic
from .types import ClientSequence, Dataset, MccVocab, transform_amount

__all__ = [
    "ClientSequence",
    "Dataset",
    "IngestError",
    "MccVocab",
    "SyntheticConfig",
    "attach_annotations",
    "derive_local_labels",
    "fit_mcc_vocab",
    "generate_synthetic",
    "ingest_csv",
    "load_change_points",
    "load_labels",
    "load_local_labels",
    "splice_pair",
    "split_dataset",
    "transform_amount",
    "write_change_points_csv",
    "write_labels_csv",
    "write_local_labels_csv",
    "write_transactions_csv",
]
