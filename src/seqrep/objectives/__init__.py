"""Pretraining objectives: sampling, losses, models, and the training loop."""

from .losses import (
    contrastive_loss,
    masked_joint_loss,
    normalize_rows,
    ts2vec_hierarchical_loss,
)
from .models import (
    OBJECTIVES,
    AeModel,
    ArModel,
    ColesModel,
    MlmModel,
    SupervisedModel,
    TrainConfig,
    Ts2VecModel,
    build_model,
)
from .sampling import (
    CorruptionPlan,
    SubsequenceSample,
    coles_sample_subsequences,
    mlm_corrupt,
    pad_batch,
)
from .train import EpochStats, TrainResult, named_grads, train

__all__ = [
    "OBJECTIVES",
    "AeModel",
    "ArModel",
    "ColesModel",
    "CorruptionPlan",
    "EpochStats",
    "MlmModel",
    "SubsequenceSample",
    "SupervisedModel",
    "TrainConfig",
    "TrainResult",
    "Ts2VecModel",
    "build_model",
    "coles_sample_subsequences",
    "contrastive_loss",
    "masked_joint_loss",
    "mlm_corrupt",
    "named_grads",
    "normalize_rows",
    "pad_batch",
    "train",
]
