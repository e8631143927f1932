"""Minibatch SGD with hand-written backpropagation.

Two entry points mirror the two-stage recipe: :func:`pretrain_time_convs`
fits the shared convolution stack on single labeled frames behind a throwaway
one-wide embedding, and :func:`train` fine-tunes the full sequence model after
:func:`apply_pretrained` copies those convolution weights in.  Both run the
one SGD loop, :func:`_sgd`, each with its own forward/backward pair taken
from the model module.

The learning rate follows an inverse step decay: lr(e) = lr0 / (1 + e // 10).
Plain SGD, no momentum, so the finite-difference gradient oracle applies to
exactly the quantities being descended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from . import model as tdmodel
from .model import (
    NumericsError,
    TransDopeConfig,
    TransDopeModel,
    _backward_batch,
    _embed_backward,
    _forward_batch,
)

DECAY_EVERY = 10  # epochs per learning-rate step


class TrainingDivergedError(ArithmeticError):
    """Raised when the loss stops being finite; message carries diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    lr0: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr0 / (1 + epoch // DECAY_EVERY)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    loss: float
    accuracy: float


@dataclass(frozen=True)
class PretrainResult:
    """Convolution weights fitted on single frames, plus the loss trace."""

    weights: dict[str, np.ndarray]
    history: list[EpochStats]


CONV_PARAM_NAMES = ("conv1_w", "conv1_b", "conv2_w", "conv2_b")


def _as_xy(dataset, expect_seq: bool) -> tuple[np.ndarray, np.ndarray]:
    """Accept a Dataset object or an (inputs, labels) pair."""
    if hasattr(dataset, "sequences"):
        if expect_seq:
            x, y = dataset.sequences, dataset.labels
        else:
            x, y = dataset.frames()
    else:
        x, y = dataset
    x = np.asarray(x)  # its own dtype; the model converts each batch exactly
    y = np.asarray(y, dtype=np.float64)
    want = 5 if expect_seq else 4
    if x.ndim != want:
        raise ValueError(f"expected {want}-D inputs, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} inputs")
    if x.shape[0] == 0:
        raise ValueError("dataset is empty")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary (0 or 1)")
    return x, y


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _sgd(params: dict, x, y, cfg: TrainConfig, rng, forward, backward) -> list[EpochStats]:
    """Descend ``params`` in place; the one epoch loop of both training stages.

    ``forward(xb)`` returns (logits, caches) and ``backward(dlogits, caches)``
    returns the gradients by parameter name.
    """
    history: list[EpochStats] = []
    count = x.shape[0]
    for epoch in range(cfg.epochs):
        lr = learning_rate(cfg, epoch)
        order = rng.permutation(count)
        loss_sum = 0.0
        correct = 0
        for start in range(0, count, cfg.batch_size):
            where = f"epoch {epoch}, batch {start // cfg.batch_size}, lr {lr:g}"
            idx = order[start : start + cfg.batch_size]
            yb = y[idx]
            try:
                logits, caches = forward(x[idx])
            except NumericsError as exc:
                raise TrainingDivergedError(f"{exc} at {where}") from exc
            loss, dlogits = layers.bce_with_logits(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at {where}; lower lr0 or inspect the input scaling"
                )
            for name, g in backward(dlogits, caches).items():
                params[name] -= lr * g
            loss_sum += loss * len(idx)
            correct += int(np.sum((logits >= 0.0) == (yb == 1.0)))
        history.append(EpochStats(epoch, lr, loss_sum / count, correct / count))
    return history


def train(
    model: TransDopeModel, dataset, cfg: TrainConfig
) -> tuple[TransDopeModel, list[EpochStats]]:
    """Fine-tune the full model in place on labeled 8-frame sequences."""
    x, y = _as_xy(dataset, expect_seq=True)
    want = (model.config.seq_len, *model.config.frame_shape)
    if x.shape[1:] != want:
        raise ValueError(f"sequences shaped {x.shape[1:]} do not fit model {want}")
    history = _sgd(
        model.params, x, y, cfg, _rng(cfg.seed),
        lambda xb: _forward_batch(xb, model, with_cache=True),
        lambda dlogits, caches: _backward_batch(dlogits, caches, model),
    )
    return model, history


def pretrain_time_convs(dataset, cfg: TrainConfig, config: TransDopeConfig) -> PretrainResult:
    """Fit conv1/conv2 on single frames behind a one-wide embedding.

    The embedding's single column is each frame's logit; it is discarded and
    only the convolution weights survive.  Frames pass through
    ``embed_frame`` itself, so the transferred filters meet the same input
    scaling and identically distributed activations.
    """
    x, y = _as_xy(dataset, expect_seq=False)
    if x.shape[1:] != config.frame_shape:
        raise ValueError(f"frames shaped {x.shape[1:]} do not fit config {config.frame_shape}")

    rng = _rng(cfg.seed)
    k, c, f = config.conv_kernel, config.channels, config.conv_filters
    feat = config.feature_count
    init = lambda shape, fan: rng.uniform(-np.sqrt(6.0 / fan), np.sqrt(6.0 / fan), shape)
    params = {
        "conv1_w": init((k, k, c, f), k * k * c),
        "conv1_b": np.zeros(f),
        "conv2_w": init((k, k, f, f), k * k * f),
        "conv2_b": np.zeros(f),
        "embed_w": init((feat, 1), feat),
        "embed_b": np.zeros(1),
    }
    model = TransDopeModel(config=config, params=params)

    def forward(xb):
        caches = []
        # Looked up on the module, so perfbench/tracing.py's wrapper counts it.
        return tdmodel.embed_frame(model, xb, caches)[:, 0], caches

    def backward(dlogits, caches):
        grads: dict[str, np.ndarray] = {}
        _embed_backward(dlogits[:, None], caches, model, grads)
        return grads

    history = _sgd(params, x, y, cfg, rng, forward, backward)
    weights = {name: params[name].copy() for name in CONV_PARAM_NAMES}
    return PretrainResult(weights=weights, history=history)


def apply_pretrained(model: TransDopeModel, pretrained: PretrainResult) -> TransDopeModel:
    """Copy pretrained convolution weights into the model, bit for bit."""
    for name in CONV_PARAM_NAMES:
        src = np.asarray(pretrained.weights[name], dtype=np.float64)
        if src.shape != model.params[name].shape:
            raise ValueError(
                f"pretrained {name} shape {src.shape} does not match "
                f"model shape {model.params[name].shape}"
            )
        model.params[name] = src.copy()
    return model


def evaluate(model: TransDopeModel, dataset, batch_size: int = 16) -> float:
    """Fraction of sequences classified correctly at threshold 0.5."""
    x, y = _as_xy(dataset, expect_seq=True)
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits, _ = _forward_batch(xb, model, with_cache=False)
        correct += int(np.sum((logits >= 0.0) == (yb == 1.0)))
    return correct / x.shape[0]
