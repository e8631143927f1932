"""The range-Doppler sequence classifier.

Per frame: two shared-weight 3x3 convolutions, each followed by ReLU and 2x2
max pooling, then a dense projection of the flattened feature maps into an
embedding with fixed sinusoidal positional encoding.  The token sequence runs
through pre-norm encoder blocks in which a width-3 convolution along the
token axis replaces the usual dense feed-forward:

    x = x + MHA(LN(x))
    x = x + ReLU(TokenConv(LN(x)))

Global average pooling over tokens feeds a single sigmoid output unit.

Inputs are scaled by 1 / (range_bins * doppler_bins) on entry so raw
range-Doppler magnitudes (whose peaks grow with the FFT sizes) land in a
range where the fixed learning-rate recipe is stable.

The forward pass is two stages, and batch inference, the sliding window and
training all compose them: :func:`embed_frame` maps frames to position-free
tokens, and :func:`classify_tokens` maps a token sequence to logits.
Pretraining composes :func:`embed_frame` too: its throwaway model has a
one-wide embedding, whose single column is the logit of a frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import layers

POOL_STAGES = 2  # two fixed 2x2 max-pool stages after the convolutions


class NumericsError(ArithmeticError):
    """Raised when a forward pass produces a non-finite intermediate."""


@dataclass(frozen=True)
class TransDopeConfig:
    """Architecture hyperparameters; every tensor shape derives from these."""

    seq_len: int = 8
    range_bins: int = 64
    doppler_bins: int = 16
    channels: int = 3
    conv_filters: int = 32
    conv_kernel: int = 3
    embed_dim: int = 128
    heads: int = 2
    encoder_layers: int = 3
    ffn_conv_kernel: int = 3

    def __post_init__(self):
        if self.seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {self.seq_len}")
        if min(self.channels, self.conv_filters, self.encoder_layers + 1, self.heads) < 1:
            raise ValueError("channels, conv_filters, and heads must be >= 1")
        divisor = 2 ** POOL_STAGES
        if self.range_bins % divisor or self.doppler_bins % divisor:
            raise ValueError(
                f"range_bins and doppler_bins must be divisible by {divisor} "
                f"for {POOL_STAGES} pooling stages, got "
                f"{self.range_bins} x {self.doppler_bins}"
            )
        if self.embed_dim % self.heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.embed_dim % 2:
            raise ValueError("embed_dim must be even for sinusoidal encoding pairs")
        if self.conv_kernel % 2 == 0 or self.ffn_conv_kernel % 2 == 0:
            raise ValueError("convolution kernels must be odd for same padding")

    @property
    def pooled_shape(self) -> tuple[int, int, int]:
        divisor = 2 ** POOL_STAGES
        return (self.range_bins // divisor, self.doppler_bins // divisor, self.conv_filters)

    @property
    def feature_count(self) -> int:
        h, w, f = self.pooled_shape
        return h * w * f

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        return (self.range_bins, self.doppler_bins, self.channels)

    @property
    def input_scale(self) -> float:
        return 1.0 / (self.range_bins * self.doppler_bins)


def param_spec(config: TransDopeConfig) -> list[tuple[str, tuple[int, ...], int | None]]:
    """Trainable tensors in declaration order: (name, shape, fan_in).

    ``fan_in`` is None for tensors initialized to constants (biases, norms).
    The positional table is a fixed function of the config, not a parameter.
    """
    k, c, f = config.conv_kernel, config.channels, config.conv_filters
    d, feat, kf = config.embed_dim, config.feature_count, config.ffn_conv_kernel
    spec: list[tuple[str, tuple[int, ...], int | None]] = [
        ("conv1_w", (k, k, c, f), k * k * c),
        ("conv1_b", (f,), None),
        ("conv2_w", (k, k, f, f), k * k * f),
        ("conv2_b", (f,), None),
        ("embed_w", (feat, d), feat),
        ("embed_b", (d,), None),
    ]
    for i in range(config.encoder_layers):
        prefix = f"l{i}_"
        for proj in ("q", "k", "v", "out"):
            spec.append((f"{prefix}{proj}_w", (d, d), d))
            spec.append((f"{prefix}{proj}_b", (d,), None))
        spec.append((f"{prefix}ffn_w", (kf, d, d), kf * d))
        spec.append((f"{prefix}ffn_b", (d,), None))
        spec.append((f"{prefix}ln1_g", (d,), None))
        spec.append((f"{prefix}ln1_b", (d,), None))
        spec.append((f"{prefix}ln2_g", (d,), None))
        spec.append((f"{prefix}ln2_b", (d,), None))
    spec.append(("head_w", (d, 1), d))
    spec.append(("head_b", (1,), None))
    return spec


def positional_table(seq_len: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding: sin on even columns, cos on odd columns."""
    positions = np.arange(seq_len, dtype=np.float64)[:, None]
    denom = np.power(10000.0, np.arange(0, dim, 2, dtype=np.float64) / dim)
    table = np.empty((seq_len, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(positions / denom)
    table[:, 1::2] = np.cos(positions / denom)
    table.flags.writeable = False
    return table


@dataclass
class TransDopeModel:
    """Trainable tensors plus the architecture they belong to.

    Weights are mutated in place by the trainer; inference never mutates.
    """

    config: TransDopeConfig
    params: dict[str, np.ndarray]
    pos_table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.pos_table is None:
            self.pos_table = positional_table(self.config.seq_len, self.config.embed_dim)

    @classmethod
    def initialize(cls, config: TransDopeConfig, seed: int = 0) -> "TransDopeModel":
        """He-style fan-in uniform init for weights, constants elsewhere (PCG64)."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        params: dict[str, np.ndarray] = {}
        for name, shape, fan_in in param_spec(config):
            if fan_in is not None:
                bound = np.sqrt(6.0 / fan_in)
                params[name] = rng.uniform(-bound, bound, size=shape)
            elif name.endswith("_g"):
                params[name] = np.ones(shape)
            else:
                params[name] = np.zeros(shape)
        return cls(config=config, params=params)


def param_count(model: TransDopeModel) -> int:
    """Number of trainable scalars (the fixed positional table is excluded)."""
    return sum(int(p.size) for p in model.params.values())


def _check_sequences(x: np.ndarray, config: TransDopeConfig):
    want = (config.seq_len, *config.frame_shape)
    if x.ndim != 5 or x.shape[1:] != want:
        raise ValueError(f"expected a batch of sequences shaped (B, {want}), got {x.shape}")


def _keep(result, caches: list | None):
    """A layer's output; its cache is appended to ``caches`` unless that is None."""
    y, cache = result
    if caches is not None:
        caches.append(cache)
    return y


def _encoder_forward(tokens: np.ndarray, p: dict, prefix: str, heads: int, with_cache: bool):
    h1, cl1 = layers.layer_norm_forward(tokens, p[prefix + "ln1_g"], p[prefix + "ln1_b"])
    attn_out, ca = layers.attention_forward(h1, p, prefix, heads)
    x = tokens + attn_out
    h2, cl2 = layers.layer_norm_forward(x, p[prefix + "ln2_g"], p[prefix + "ln2_b"])
    conv_out, cf = layers.token_conv_forward(h2, p[prefix + "ffn_w"], p[prefix + "ffn_b"])
    act, mf = layers.relu_forward(conv_out)
    y = x + act
    cache = (cl1, ca, cl2, cf, mf, prefix) if with_cache else None
    return y, cache


def _encoder_backward(dy: np.ndarray, cache, p: dict, grads: dict):
    cl1, ca, cl2, cf, mf, prefix = cache
    d_act = layers.relu_backward(dy, mf)
    dh2, grads[prefix + "ffn_w"], grads[prefix + "ffn_b"] = layers.token_conv_backward(
        d_act, cf
    )
    dx, grads[prefix + "ln2_g"], grads[prefix + "ln2_b"] = layers.layer_norm_backward(
        dh2, cl2
    )
    dx = dx + dy  # residual
    dh1, attn_grads = layers.attention_backward(dx, ca, p)
    grads.update(attn_grads)
    dtokens, grads[prefix + "ln1_g"], grads[prefix + "ln1_b"] = layers.layer_norm_backward(
        dh1, cl1
    )
    return dtokens + dx  # residual


def embed_frame(model: TransDopeModel, frames: np.ndarray, caches: list | None = None):
    """(M, N, P, C) raw magnitudes -> (M, width of embed_w) position-free tokens.

    Given a list, appends one entry (the layer caches and ``flat``) for
    :func:`_embed_backward`.  Without one no name stays bound to a layer's
    cache (im2col columns, ReLU mask, pooling input), so each temporary is
    freed as soon as the next layer has consumed it.  That keeps the peak of
    one frame small enough for the allocator to hold on to the memory
    between frames.
    """
    cfg = model.config
    p = model.params
    stage = [] if caches is not None else None
    x = np.asarray(frames, dtype=np.float64) * cfg.input_scale
    for conv in ("conv1", "conv2"):
        x = _keep(layers.conv2d_forward(x, p[conv + "_w"], p[conv + "_b"]), stage)
        x = _keep(layers.relu_forward(x), stage)
        x = _keep(layers.maxpool2_forward(x), stage)
    flat = x.reshape(len(x), cfg.feature_count)
    if caches is not None:
        caches.append((*stage, flat))
    emb, _ = layers.linear_forward(flat, p["embed_w"], p["embed_b"])
    return emb


def _embed_backward(demb: np.ndarray, caches: list, model: TransDopeModel, grads: dict):
    """Gradients of the embedding and the conv stack; the input needs none.

    ``caches`` is the list :func:`embed_frame` appended to; its entry comes first.
    """
    cc1, m1, cp1, cc2, m2, cp2, flat = caches[0]
    dflat, grads["embed_w"], grads["embed_b"] = layers.linear_backward(
        demb, (flat, model.params["embed_w"])
    )
    d = layers.maxpool2_backward(dflat.reshape(len(flat), *model.config.pooled_shape), cp2)
    d = layers.relu_backward(d, m2)
    d, grads["conv2_w"], grads["conv2_b"] = layers.conv2d_backward(d, cc2)
    d = layers.maxpool2_backward(d, cp1)
    d = layers.relu_backward(d, m1)
    grads["conv1_w"], grads["conv1_b"] = layers.conv2d_param_grads(d, cc1)


def classify_tokens(model: TransDopeModel, tokens: np.ndarray, caches: list | None = None):
    """(B, T, embed_dim) position-free tokens -> (B,) logits.

    Given a list, appends ``pooled`` and the encoder caches for backward.
    """
    cfg = model.config
    p = model.params
    x = tokens + model.pos_table
    enc_caches = []
    for i in range(cfg.encoder_layers):
        x, cache = _encoder_forward(x, p, f"l{i}_", cfg.heads, caches is not None)
        enc_caches.append(cache)
    pooled = x.mean(axis=1)
    logits, _ = layers.linear_forward(pooled, p["head_w"], p["head_b"])
    logits = logits[:, 0]
    if not np.all(np.isfinite(logits)):
        raise NumericsError("forward pass produced a non-finite logit")
    if caches is not None:
        caches.extend((pooled, enc_caches))
    return logits


def _forward_batch(x: np.ndarray, model: TransDopeModel, with_cache: bool):
    """x: (B, T, N, P, C) raw magnitudes -> (logits (B,), caches)."""
    cfg = model.config
    b, t = x.shape[:2]
    caches = [] if with_cache else None
    emb = embed_frame(model, x.reshape(b * t, *cfg.frame_shape), caches)
    logits = classify_tokens(model, emb.reshape(b, t, cfg.embed_dim), caches)
    return logits, caches


def _backward_batch(dlogits: np.ndarray, caches, model: TransDopeModel) -> dict:
    cfg = model.config
    p = model.params
    _, pooled, enc_caches = caches
    b, t = dlogits.shape[0], cfg.seq_len
    grads: dict[str, np.ndarray] = {}

    dpooled, grads["head_w"], grads["head_b"] = layers.linear_backward(
        dlogits[:, None], (pooled, p["head_w"])
    )
    dtokens = np.repeat(dpooled[:, None, :], t, axis=1) / t
    for i in reversed(range(cfg.encoder_layers)):
        dtokens = _encoder_backward(dtokens, enc_caches[i], p, grads)
    _embed_backward(dtokens.reshape(b * t, cfg.embed_dim), caches, model, grads)
    return grads


# ---------------------------------------------------------------------------
# Public inference operations


def forward_batch(x: np.ndarray, model: TransDopeModel) -> np.ndarray:
    """Probabilities for a batch of sequences; x: (B, T, N, P, C) -> (B,)."""
    _check_sequences(x, model.config)
    logits, _ = _forward_batch(x, model, with_cache=False)
    return layers.sigmoid(logits)


# ---------------------------------------------------------------------------
# Streaming inference over a sliding window


class SlidingClassifier:
    """Keeps the most recent ``seq_len`` frames and classifies the window.

    Per-frame convolution features are computed once when a frame arrives;
    positional encoding is re-applied per window, so results match
    :func:`forward_batch` on the stacked window exactly.
    """

    def __init__(self, model: TransDopeModel):
        self.model = model
        self._tokens: deque[np.ndarray] = deque(maxlen=model.config.seq_len)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def ready(self) -> bool:
        return len(self._tokens) == self.model.config.seq_len

    def reset(self):
        self._tokens.clear()

    def push(self, frame_values: np.ndarray) -> float | None:
        """Add a frame; returns the window probability once full, else None."""
        frame = np.asarray(frame_values)
        if frame.shape != self.model.config.frame_shape:
            raise ValueError(
                f"expected a frame shaped {self.model.config.frame_shape}, got {frame.shape}"
            )
        self._tokens.append(embed_frame(self.model, frame[None])[0])
        if not self.ready:
            return None
        logits = classify_tokens(self.model, np.stack(tuple(self._tokens))[None])
        return float(layers.sigmoid(logits)[0])
