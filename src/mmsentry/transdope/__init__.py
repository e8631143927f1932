"""Sequence classifier over range-Doppler frames: shared per-frame
convolutions, sinusoidal positions, attention encoder blocks with a
token-axis convolution in place of the dense feed-forward, trained by
hand-written backpropagation."""

from .model import (
    NumericsError,
    SlidingClassifier,
    TransDopeConfig,
    TransDopeModel,
    classify_tokens,
    embed_frame,
    forward_batch,
    param_count,
    positional_table,
)
from .training import (
    EpochStats,
    PretrainResult,
    TrainConfig,
    TrainingDivergedError,
    apply_pretrained,
    evaluate,
    learning_rate,
    pretrain_time_convs,
    train,
)
from .checkpoint import CheckpointError, load_model, save_model

__all__ = [
    "NumericsError",
    "SlidingClassifier",
    "TransDopeConfig",
    "TransDopeModel",
    "classify_tokens",
    "embed_frame",
    "forward_batch",
    "param_count",
    "positional_table",
    "EpochStats",
    "PretrainResult",
    "TrainConfig",
    "TrainingDivergedError",
    "apply_pretrained",
    "evaluate",
    "learning_rate",
    "pretrain_time_convs",
    "train",
    "CheckpointError",
    "load_model",
    "save_model",
]
