"""Minibatch SGD with hand-written backpropagation.

Two entry points mirror the two-stage recipe: :func:`pretrain_time_convs`
fits the shared convolution stack on single labeled frames behind a throwaway
one-wide embedding, and :func:`train` fine-tunes the full sequence model after
:func:`apply_pretrained` copies those convolution weights in.  Both run the
one SGD loop, :func:`_sgd`, each with its own forward/backward pair taken
from the model module.

Training computes in its inputs' floating dtype, so float32 ``.ards`` data
train in float32 (see :func:`_sgd`); inference computes in the parameters'.

The learning rate follows an inverse step decay: lr(e) = lr0 / (1 + e // 10).
Plain SGD, no momentum, so the finite-difference gradient oracle applies to
exactly the quantities being descended.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    he_uniform_params,
    param_spec,
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
    x = np.asarray(x)  # its own dtype: training computes in it, evaluate in the params'
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


def _sgd(model, x, y, cfg: TrainConfig, rng, forward, backward) -> list[EpochStats]:
    """Descend ``model.params`` in place; the one epoch loop of both training stages.

    A working model holds the parameters cast once to the data's floating
    dtype; it is descended and written back into ``model.params`` on return.
    For float64 data it shares the parameters' arrays.  ``forward(work, xb)``
    returns (logits, caches), ``backward(work, dlogits, caches)`` the gradients.
    """
    dtype = np.result_type(x.dtype, np.float32)
    work = replace(model, params={k: p.astype(dtype, copy=False) for k, p in model.params.items()})
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
                logits, caches = forward(work, x[idx])
            except NumericsError as exc:
                raise TrainingDivergedError(f"{exc} at {where}") from exc
            loss, dlogits = layers.bce_with_logits(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at {where}; lower lr0 or inspect the input scaling"
                )
            for name, g in backward(work, dlogits, caches).items():
                work.params[name] -= lr * g
            loss_sum += loss * len(idx)
            correct += int(np.sum((logits >= 0.0) == (yb == 1.0)))
        history.append(EpochStats(epoch, lr, loss_sum / count, correct / count))
    for name, p in model.params.items():
        p[...] = work.params[name]
    return history


def train(
    model: TransDopeModel, dataset, cfg: TrainConfig
) -> tuple[TransDopeModel, list[EpochStats]]:
    """Fine-tune the full model in place on labeled 8-frame sequences."""
    x, y = _as_xy(dataset, expect_seq=True)
    tdmodel._check_sequences(x, model.config)
    history = _sgd(
        model, x, y, cfg, _rng(cfg.seed),
        lambda work, xb: _forward_batch(xb, work, with_cache=True),
        lambda work, dlogits, caches: _backward_batch(dlogits, caches, work),
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
    feat = config.feature_count
    spec = [*param_spec(config)[:4], ("embed_w", (feat, 1), feat), ("embed_b", (1,), None)]
    model = TransDopeModel(config=config, params=he_uniform_params(spec, rng))

    def forward(work, xb):
        caches = []
        # Looked up on the module, so perfbench/tracing.py's wrapper counts it.
        return tdmodel.embed_frame(work, xb, caches)[:, 0], caches

    def backward(work, dlogits, caches):
        grads: dict[str, np.ndarray] = {}
        _embed_backward(dlogits[:, None], caches, work, grads)
        return grads

    history = _sgd(model, x, y, cfg, rng, forward, backward)
    weights = {name: model.params[name].copy() for name in CONV_PARAM_NAMES}
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
    tdmodel._check_sequences(x, model.config)
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits, _ = _forward_batch(xb, model, with_cache=False)
        correct += int(np.sum((logits >= 0.0) == (yb == 1.0)))
    return correct / x.shape[0]
