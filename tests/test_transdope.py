"""The sequence classifier: shapes, closed-form sizes, gradients, training."""

import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmsentry.transdope import (
    CheckpointError,
    NumericsError,
    PretrainResult,
    SlidingClassifier,
    TrainConfig,
    TrainingDivergedError,
    TransDopeConfig,
    TransDopeModel,
    apply_pretrained,
    classify_tokens,
    embed_frame,
    evaluate,
    forward_batch,
    learning_rate,
    load_model,
    param_count,
    positional_table,
    pretrain_time_convs,
    save_model,
    train,
)
from mmsentry.transdope import layers
from mmsentry.transdope import model as tdmodel
from mmsentry.transdope.model import _backward_batch, _forward_batch, param_spec

from oracles import (
    im2col_helper_form,
    layer_norm_helper_form,
    linear_helper_form,
    oracle_conv2d_forward,
    oracle_conv2d_input_grad,
    oracle_conv_stack_backward,
    oracle_conv_stack_forward,
    oracle_im2col,
    oracle_maxpool2_backward,
    oracle_maxpool2_forward,
    softmax_helper_form,
    token_conv_helper_form,
)

TINY = TransDopeConfig(
    seq_len=2,
    range_bins=8,
    doppler_bins=4,
    channels=2,
    conv_filters=4,
    embed_dim=8,
    heads=2,
    encoder_layers=2,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_batch(config, count, seed=0, offset=0.0):
    shape = (count, config.seq_len, *config.frame_shape)
    return rng(seed).uniform(0.0, 1.0, shape) + offset


def expected_param_count(cfg):
    k, c, f = cfg.conv_kernel, cfg.channels, cfg.conv_filters
    d, kf = cfg.embed_dim, cfg.ffn_conv_kernel
    feat = (cfg.range_bins // 4) * (cfg.doppler_bins // 4) * f
    conv = (k * k * c * f + f) + (k * k * f * f + f)
    embed = feat * d + d
    per_layer = 4 * (d * d + d) + (kf * d * d + d) + 4 * d
    return conv + embed + cfg.encoder_layers * per_layer + (d + 1)


# ---------------------------------------------------------------------------
# Configuration and parameter bookkeeping


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(range_bins=8, doppler_bins=4, channels=1, conv_filters=4, embed_dim=8,
             heads=2, encoder_layers=1),
        dict(range_bins=16, doppler_bins=8, channels=2, conv_filters=8, embed_dim=16,
             heads=4, encoder_layers=2, conv_kernel=5),
        dict(range_bins=32, doppler_bins=16, conv_filters=16, embed_dim=32,
             ffn_conv_kernel=5),
        dict(range_bins=8, doppler_bins=8, channels=4, conv_filters=4, embed_dim=12,
             heads=3, encoder_layers=2),
        dict(range_bins=16, doppler_bins=4, channels=1, conv_filters=2, embed_dim=4,
             heads=2, encoder_layers=4, conv_kernel=1, ffn_conv_kernel=1),
    ],
)
def test_param_count_matches_closed_form(kwargs):
    cfg = TransDopeConfig(**kwargs)
    model = TransDopeModel.initialize(cfg, seed=1)
    assert param_count(model) == expected_param_count(cfg)
    assert param_count(model) == sum(
        int(np.prod(shape)) for _, shape, _ in param_spec(cfg)
    )


def test_default_model_size():
    model = TransDopeModel.initialize(TransDopeConfig(), seed=0)
    assert param_count(model) == 620065
    assert 560_000 <= param_count(model) <= 1_040_000
    assert model.params["conv1_w"].size + model.params["conv1_b"].size == 896


def test_encoder_layer_cost_is_additive():
    base = TransDopeConfig()
    shallow = TransDopeConfig(encoder_layers=0)
    diff = expected_param_count(base) - expected_param_count(shallow)
    assert diff == 3 * 115840


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seq_len=0),
        dict(range_bins=10),
        dict(doppler_bins=6),
        dict(embed_dim=127),
        dict(embed_dim=130, heads=4),
        dict(conv_kernel=4),
        dict(ffn_conv_kernel=2),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        TransDopeConfig(**kwargs)


def test_initialize_is_seeded_and_shaped():
    a = TransDopeModel.initialize(TINY, seed=3)
    b = TransDopeModel.initialize(TINY, seed=3)
    c = TransDopeModel.initialize(TINY, seed=4)
    for name, shape, fan_in in param_spec(TINY):
        assert a.params[name].shape == shape
        assert np.array_equal(a.params[name], b.params[name])
        if fan_in is not None:
            bound = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(a.params[name]) <= bound)
            assert not np.array_equal(a.params[name], c.params[name])
        elif name.endswith("_g"):
            assert np.all(a.params[name] == 1.0)
        else:
            assert np.all(a.params[name] == 0.0)


def test_positional_table_values():
    table = positional_table(8, 128)
    assert table.shape == (8, 128)
    assert not table.flags.writeable
    assert np.all(table[0, 0::2] == 0.0)
    assert np.all(table[0, 1::2] == 1.0)
    denom = 10000.0 ** (np.arange(0, 128, 2) / 128)
    assert np.allclose(table[5, 0::2], np.sin(5.0 / denom))
    assert np.allclose(table[5, 1::2], np.cos(5.0 / denom))


# ---------------------------------------------------------------------------
# Forward-pass building blocks


def test_time_conv_shapes_and_zero_input():
    model = TransDopeModel.initialize(TINY, seed=0)
    tokens = embed_frame(model, np.zeros((2, 8, 4, 2)))
    assert tokens.shape == (2, TINY.embed_dim)
    assert np.all(tokens == 0.0)  # zero conv and embedding biases at init


def test_time_conv_is_shared_across_frames():
    model = TransDopeModel.initialize(TINY, seed=0)
    frame = rng(1).uniform(0.0, 2.0, (8, 4, 2))
    tokens = embed_frame(model, np.stack([frame, frame]))
    assert tokens[0].tobytes() == tokens[1].tobytes()


def test_time_conv_rejects_wrong_shapes():
    clf = SlidingClassifier(TransDopeModel.initialize(TINY, seed=0))
    with pytest.raises(ValueError):
        clf.push(np.zeros((8, 4, 3)))
    with pytest.raises(ValueError):
        clf.push(np.zeros((1, 8, 4, 2)))
    assert len(clf) == 0


def test_embed_tokens_zero_features_give_positional_table():
    # with no encoder blocks the pooled token is the mean of what the head
    # sees, so zero frames leave exactly the mean positional row there
    cfg = TransDopeConfig(
        seq_len=2, range_bins=8, doppler_bins=4, channels=2,
        conv_filters=4, embed_dim=8, heads=2, encoder_layers=0,
    )
    model = TransDopeModel.initialize(cfg, seed=0)
    tokens = embed_frame(model, np.zeros((2, 8, 4, 2)))
    caches: list = []
    classify_tokens(model, tokens[None], caches)
    pooled, _ = caches
    assert np.array_equal(pooled[0], model.pos_table.mean(axis=0))


def test_embed_tokens_are_position_dependent():
    model = TransDopeModel.initialize(TINY, seed=0)
    tokens = rng(2).uniform(0.0, 1.0, (1, 2, 8))
    unplaced = TransDopeModel(config=TINY, params=model.params, pos_table=np.zeros((2, 8)))
    assert classify_tokens(model, tokens) != pytest.approx(
        classify_tokens(unplaced, tokens), abs=1e-12
    )


def attention_matrix(tokens, params, prefix, heads):
    """The (B, H, T, T) softmax weights that attention_forward caches."""
    _, cache = layers.attention_forward(tokens, params, prefix, heads)
    return cache[4]


def test_attention_rows_are_distributions():
    model = TransDopeModel.initialize(TransDopeConfig(), seed=1)
    tokens = rng(3).normal(size=(2, 8, 128))
    attn = attention_matrix(tokens, model.params, "l0_", model.config.heads)
    assert attn.shape == (2, 2, 8, 8)
    assert np.all(attn >= 0.0)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_uniform_over_identical_tokens():
    model = TransDopeModel.initialize(TransDopeConfig(), seed=1)
    tokens = np.tile(rng(4).normal(size=(1, 1, 128)), (1, 8, 1))
    attn = attention_matrix(tokens, model.params, "l1_", model.config.heads)
    assert np.allclose(attn, 1.0 / 8.0, atol=1e-12)


def test_attention_is_permutation_equivariant():
    model = TransDopeModel.initialize(TransDopeConfig(), seed=2)
    tokens = rng(5).normal(size=(1, 8, 128))
    perm = rng(6).permutation(8)
    out, _ = layers.attention_forward(tokens, model.params, "l0_", 2)
    out_perm, _ = layers.attention_forward(tokens[:, perm], model.params, "l0_", 2)
    assert np.allclose(out_perm, out[:, perm], atol=1e-12)


def test_pooling_is_frame_order_invariant_without_encoder():
    # with no encoder layers and no positions, only the token mean survives,
    # so frame order cannot matter; the token conv deliberately breaks this
    # once encoder layers are present
    cfg = TransDopeConfig(
        seq_len=2, range_bins=8, doppler_bins=4, channels=2,
        conv_filters=4, embed_dim=8, heads=2, encoder_layers=0,
    )
    params = TransDopeModel.initialize(cfg, seed=8).params
    model = TransDopeModel(config=cfg, params=params, pos_table=np.zeros((2, 8)))
    x = random_batch(cfg, 1, seed=9)
    assert forward_batch(x, model)[0] == pytest.approx(
        forward_batch(x[:, ::-1], model)[0], abs=1e-12
    )


def test_encoder_token_conv_is_frame_order_sensitive():
    params = TransDopeModel.initialize(TINY, seed=8).params
    model = TransDopeModel(config=TINY, params=params, pos_table=np.zeros((2, 8)))
    x = random_batch(TINY, 1, seed=9)
    assert forward_batch(x, model)[0] != pytest.approx(
        forward_batch(x[:, ::-1], model)[0], abs=1e-12
    )


# ---------------------------------------------------------------------------
# End-to-end forward


def test_forward_probabilities_are_valid():
    model = TransDopeModel.initialize(TINY, seed=0)
    x = random_batch(TINY, 100, seed=10)
    probs = forward_batch(x, model)
    assert probs.shape == (100,)
    assert np.all((probs > 0.0) & (probs < 1.0))
    again = forward_batch(x, model)
    assert np.array_equal(probs, again)


def test_forward_does_not_mutate_params():
    model = TransDopeModel.initialize(TINY, seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    forward_batch(random_batch(TINY, 3, seed=13), model)
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def test_forward_rejects_bad_shapes():
    model = TransDopeModel.initialize(TINY, seed=0)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 1, 2, 8, 4, 2)), model)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((2, 8, 4, 2)), model)
    with pytest.raises(ValueError):
        forward_batch(np.zeros((1, 2, 8, 4, 3)), model)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_raises_on_nonfinite_input():
    model = TransDopeModel.initialize(TINY, seed=0)
    x = random_batch(TINY, 1, seed=14)
    x[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(NumericsError):
        forward_batch(x, model)


# ---------------------------------------------------------------------------
# Gradients against central finite differences


def loss_and_grads(model, x, y):
    logits, caches = _forward_batch(x, model, with_cache=True)
    loss, dlogits = layers.bce_with_logits(logits, y)
    return loss, _backward_batch(dlogits, caches, model)


def loss_only(model, x, y):
    logits, _ = _forward_batch(x, model, with_cache=False)
    loss, _ = layers.bce_with_logits(logits, y)
    return loss


def test_gradients_match_finite_differences_sampled():
    model = TransDopeModel.initialize(TINY, seed=42)
    x = random_batch(TINY, 2, seed=43)
    y = np.array([1.0, 0.0])
    _, grads = loss_and_grads(model, x, y)
    assert set(grads) == set(model.params)

    h = 1e-5
    sampler = rng(44)
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        picks = sampler.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in picks:
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_only(model, x, y)
            flat[i] = keep - h
            lo = loss_only(model, x, y)
            flat[i] = keep
            fd = (hi - lo) / (2.0 * h)
            ana = grads[name].reshape(-1)[i]
            rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-6)
            assert rel < 1e-4, f"{name}[{i}]: analytic {ana}, fd {fd}, rel {rel}"


# ---------------------------------------------------------------------------
# Strided layers against the loop im2col and argmax pooling references

DEFAULT = TransDopeConfig()


def pool_input(kind, batch, seed):
    """A (batch, 64, 16, 32) pooling input, the shape of the first pool."""
    shape = (batch, DEFAULT.range_bins, DEFAULT.doppler_bins, DEFAULT.conv_filters)
    if kind == "relu":
        # -0.0 where the pre-activation is negative: windows of zeros
        return layers.relu_forward(rng(seed).normal(size=shape))[0]
    if kind == "ties":
        # small integers: +0.0 and -0.0 zeros and repeated positive maxima
        x = rng(seed).integers(-2, 3, size=shape).astype(np.float64)
        return layers.relu_forward(x)[0]
    # raw conv outputs, as the model pools them now: where the 3x3 input
    # window is all zero after ReLU, every filter outputs its bias exactly
    x = layers.relu_forward(rng(seed).normal(size=shape))[0]
    x[:, 8:24] = 0.0
    bias = rng(seed + 1).normal(size=DEFAULT.conv_filters)
    w = rng(seed + 2).normal(size=(3, 3, DEFAULT.conv_filters, DEFAULT.conv_filters)) * 0.1
    return layers.conv2d_forward(x, w, bias)[0]


@pytest.mark.parametrize("batch", [1, 64])
def test_conv2d_forward_matches_loop_im2col(batch):
    k, c, f = DEFAULT.conv_kernel, DEFAULT.channels, DEFAULT.conv_filters
    for cin, h, w in ((c, 64, 16), (f, 32, 8)):
        x = rng(batch).uniform(0.0, 1.0, (batch, h, w, cin))
        wt = rng(batch + 1).normal(size=(k, k, cin, f))
        b = rng(batch + 2).normal(size=f)
        y, (cols, _) = layers.conv2d_forward(x, wt, b)
        assert y.tobytes() == oracle_conv2d_forward(x, wt, b).tobytes()
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        assert cols.tobytes() == oracle_im2col(xp, k, k).tobytes()
        assert cols.tobytes() == im2col_helper_form(xp, k, k).tobytes()


@pytest.mark.parametrize("batch", [1, 64])
def test_conv2d_input_grad_matches_dcols_col2im(batch):
    k, c, f = DEFAULT.conv_kernel, DEFAULT.channels, DEFAULT.conv_filters
    for cin, h, w in ((c, 64, 16), (f, 32, 8)):
        x = rng(batch).uniform(0.0, 1.0, (batch, h, w, cin))
        wt = rng(batch + 1).normal(size=(k, k, cin, f))
        _, cache = layers.conv2d_forward(x, wt, np.zeros(f))
        dy = rng(batch + 3).normal(size=(batch, h, w, f))
        dx = layers.conv2d_backward(dy, cache)
        assert dx.tobytes() == oracle_conv2d_input_grad(dy, wt).tobytes()


def test_conv2d_param_grads_by_output_channel_match_whole():
    # the model splits a weight gradient's output channels across workers
    x = rng(20).uniform(0.0, 1.0, (4, 8, 4, 3))
    w = rng(21).normal(size=(3, 3, 3, 5))
    _, (cols, _) = layers.conv2d_forward(x, w, np.zeros(5))
    dy = rng(22).normal(size=(4, 8, 4, 5))
    dw, db = layers.conv2d_param_grads(dy, (cols, w))
    for c in (slice(0, 2), slice(2, 5)):
        pw, pb = layers.conv2d_param_grads(dy[..., c], (cols, w[..., c]))
        assert pw.tobytes() == np.ascontiguousarray(dw[..., c]).tobytes()
        assert pb.tobytes() == db[c].tobytes()


# ---------------------------------------------------------------------------
# Per-burst layers against the numpy-helper forms they replaced, by bytes
# (``_im2col``'s is checked with the loop im2col above)


def helper_form_inputs(width, dtype, seed):
    """Tokens off zero and far from unit scale, and parameters, all in ``dtype``."""
    r = rng(seed)
    x = (r.normal(size=(3, 8, width)) * 10.0 + 3.0).astype(dtype)
    return x, r.normal(size=width).astype(dtype), r.normal(size=width).astype(dtype)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [8, 96, 128])
def test_layer_norm_forward_matches_mean_form(width, dtype):
    x, gamma, beta = helper_form_inputs(width, dtype, seed=width)
    y, (xhat, inv, _) = layers.layer_norm_forward(x, gamma, beta)
    want_y, want_xhat, want_inv = layer_norm_helper_form(x, gamma, beta)
    assert_same_bytes(y, want_y)
    assert_same_bytes(xhat, want_xhat)
    assert_same_bytes(inv, want_inv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [8, 96, 128])
def test_softmax_and_linear_forward_match_helper_forms(width, dtype):
    x, _, b = helper_form_inputs(width, dtype, seed=width + 1)
    assert_same_bytes(layers.softmax(x), softmax_helper_form(x))
    w = rng(width + 2).normal(size=(width, width)).astype(dtype)
    assert_same_bytes(layers.linear_forward(x, w, b)[0], linear_helper_form(x, w, b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [8, 96, 128])
def test_token_conv_forward_matches_tile_form(width, dtype):
    x, _, b = helper_form_inputs(width, dtype, seed=width + 3)
    w = rng(width + 4).normal(size=(3, width, width)).astype(dtype)
    assert_same_bytes(layers.token_conv_forward(x, w, b)[0], token_conv_helper_form(x, w, b))


@pytest.mark.parametrize("kind", ["relu", "ties", "conv_bias", "conv_bias_masked_dy"])
@pytest.mark.parametrize("batch", [1, 64])
def test_maxpool2_matches_argmax_reference(kind, batch):
    x = pool_input(kind, batch, seed=batch)
    y, cache = layers.maxpool2_forward(x)
    want_y, idx = oracle_maxpool2_forward(x)
    assert y.tobytes() == want_y.tobytes()
    dy = rng(batch + 7).normal(size=y.shape)
    if kind == "conv_bias_masked_dy":
        # what the model's pool backward receives: the pooled ReLU's -0.0s
        dy = layers.relu_backward(dy, y > 0.0)
        assert np.any(np.signbit(dy) & (dy == 0.0))
    dx = layers.maxpool2_backward(dy, cache)
    assert dx.tobytes() == oracle_maxpool2_backward(dy, idx, x.shape).tobytes()

    # the input really holds the ties the tie-break is about
    windows = np.stack([x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)])
    ties = (windows == y).sum(axis=0) > 1
    if kind.startswith("conv_bias"):
        bias = y[0, 8, 2]  # a pooled window inside the zeroed block
        assert np.all(ties[0, 8, 2]) and np.any(bias > 0.0) and np.any(bias < 0.0)
        return
    assert np.any(ties & (y == 0.0))
    if kind == "ties":
        assert np.any(ties & (y > 0.0))
        assert np.any(np.signbit(x)) and np.any((x == 0.0) & ~np.signbit(x))


def stack_case(kind, count):
    """A default-shape model with nonzero conv biases, and ``count`` frames.

    "radar": positive magnitudes with a zeroed band, so whole windows tie at
    the biases.  "ties": conv1 reads only its centre tap and the frames are
    constant over each 2x2 pooling window, so every pool1 window ties on
    positions whose im2col rows differ: the tie-break moves conv1's gradient.
    """
    model = TransDopeModel.initialize(DEFAULT, seed=60)
    p = model.params
    p["conv1_b"] = rng(61).normal(size=p["conv1_b"].shape) * 0.1
    p["conv2_b"] = rng(62).normal(size=p["conv2_b"].shape) * 0.1
    shape = (count, *DEFAULT.frame_shape)
    if kind == "radar":
        frames = rng(63).uniform(0.0, 2000.0, shape)
        frames[:, 24:40] = 0.0
    else:
        half = rng(63).uniform(0.0, 2000.0, (count, shape[1] // 2, shape[2] // 2, shape[3]))
        frames = half.repeat(2, axis=1).repeat(2, axis=2)
        centre = p["conv1_w"][1, 1].copy()
        p["conv1_w"][...] = 0.0
        p["conv1_w"][1, 1] = centre
    return model, frames


@pytest.mark.parametrize("kind", ["radar", "ties"])
@pytest.mark.parametrize("count", [16, 37])
def test_conv_stack_matches_relu_then_pool_oracle(count, kind):
    # Pooling before ReLU is exact: embeddings, gradients (by tobytes, so
    # -0.0 counts) and one SGD step all match the ReLU-then-pool reference.
    # 16 frames are one chunk of the conv stack, 37 two and a 5-frame tail.
    model, frames = stack_case(kind, count)
    caches = []
    emb = embed_frame(model, frames, caches)
    want, cache = oracle_conv_stack_forward(model.params, frames, DEFAULT.input_scale)
    assert emb.tobytes() == want.tobytes()

    demb = rng(64).normal(size=emb.shape)
    grads = {}
    tdmodel._embed_backward(demb, caches, model, grads)
    want_grads = oracle_conv_stack_backward(demb, cache, model.params)
    assert set(grads) == set(want_grads)
    for name in grads:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name

    # one SGD step on a one-wide embedding, as pretraining takes it
    y = (np.arange(len(frames)) % 2).astype(np.float64)
    model.params["embed_w"] = model.params["embed_w"][:, :1].copy()
    model.params["embed_b"] = model.params["embed_b"][:1].copy()
    ref = {name: t.copy() for name, t in model.params.items()}
    caches = []
    _, dlogits = layers.bce_with_logits(embed_frame(model, frames, caches)[:, 0], y)
    grads = {}
    tdmodel._embed_backward(dlogits[:, None], caches, model, grads)
    logits, cache = oracle_conv_stack_forward(ref, frames, DEFAULT.input_scale)
    _, dlogits = layers.bce_with_logits(logits[:, 0], y)
    want_grads = oracle_conv_stack_backward(dlogits[:, None], cache, ref)
    for name, g in grads.items():
        model.params[name] -= 3e-2 * g
        ref[name] -= 3e-2 * want_grads[name]
    for name in ref:
        assert model.params[name].tobytes() == ref[name].tobytes(), name


def forward_and_grads(model, x, y):
    logits, caches = _forward_batch(x, model, with_cache=True)
    _, dlogits = layers.bce_with_logits(logits, y)
    return logits, _backward_batch(dlogits, caches, model)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_bytes_do_not_depend_on_worker_count(dtype, monkeypatch):
    # 5 sequences of 8 frames: chunks of 16, 16 and 8 frames
    model = TransDopeModel.initialize(DEFAULT, seed=70)
    model.params = {k: p.astype(dtype) for k, p in model.params.items()}
    x = random_batch(DEFAULT, 5, seed=71).astype(dtype) * 500.0
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    runs = []
    for workers in (1, tdmodel.WORKERS, 3):
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(tdmodel, "WORKERS", workers)
            monkeypatch.setattr(tdmodel, "_pool", pool)
            runs.append(forward_and_grads(model, x, y))
    (want_logits, want), *others = runs
    assert want_logits.dtype == dtype and want["conv1_w"].dtype == dtype
    for logits, grads in others:
        assert logits.tobytes() == want_logits.tobytes()
        assert grads.keys() == want.keys()
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name


def test_one_chunk_batches_start_no_thread(monkeypatch):
    # a fresh pool has no thread until something is submitted to it
    with ThreadPoolExecutor(tdmodel.WORKERS) as pool:
        monkeypatch.setattr(tdmodel, "_pool", pool)
        model = TransDopeModel.initialize(DEFAULT, seed=72)
        clf = SlidingClassifier(model)
        before = threading.active_count()
        for frame in random_batch(DEFAULT, 1, seed=73)[0]:
            clf.push(frame)
        assert clf.ready
        two = random_batch(DEFAULT, 2, seed=74)  # 16 frames
        forward_batch(two, model)
        forward_and_grads(model, two, np.array([1.0, 0.0]))
        assert threading.active_count() == before
        embed_frame(model, random_batch(DEFAULT, 1, seed=75)[0, :1].repeat(17, axis=0))
        assert threading.active_count() > before


BLAS_THREADS_SCRIPT = """
import ctypes, numpy as np
from mmsentry.transdope import model as tdmodel
paths = {l.split(maxsplit=5)[5].strip() for l in open("/proc/self/maps") if "openblas" in l}
getters = [getattr(lib, n) for lib in map(ctypes.CDLL, paths) for n in (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads",
) if hasattr(lib, n)]
for getter in getters:
    getter.argtypes, getter.restype = [], ctypes.c_int
count = lambda: getters[0]() if getters else 0
before = count()
m = tdmodel.TransDopeModel.initialize(tdmodel.TransDopeConfig(), seed=0)
tdmodel.embed_frame(m, np.ones((16, *m.config.frame_shape)))
inline = count()
tdmodel.embed_frame(m, np.ones((17, *m.config.frame_shape)))
print(before, inline, count())
"""


def test_workers_take_numpy_blas_to_one_thread():
    # a fresh process with two BLAS threads: a one-chunk batch leaves them,
    # the first batch on the workers leaves one
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tdmodel.__file__).parents[2]), *sys.path])
    out = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    if out[0] == "0":
        pytest.skip("numpy does not call an OpenBLAS found in /proc/self/maps")
    assert out == ["2", "2", "1"]


# ---------------------------------------------------------------------------
# Sliding-window streaming inference


def test_sliding_classifier_matches_batch_forward():
    model = TransDopeModel.initialize(TINY, seed=0)
    frames = rng(15).uniform(0.0, 3.0, (6, 8, 4, 2))
    clf = SlidingClassifier(model)
    assert clf.push(frames[0]) is None
    assert not clf.ready
    for k in range(1, 6):
        prob = clf.push(frames[k])
        assert prob is not None  # window is full from the second frame on
        window = frames[k - 1 : k + 1]
        assert prob == pytest.approx(forward_batch(window[None], model)[0], abs=1e-12)
    assert len(clf) == 2
    clf.reset()
    assert len(clf) == 0
    assert clf.push(frames[0]) is None


def test_sliding_probabilities_match_stacked_tokens_bit_for_bit():
    # a reset mid-stream: the next window must not see a stale token row
    cfg = replace(TINY, seq_len=4)
    model = TransDopeModel.initialize(cfg, seed=0)
    frames = rng(17).uniform(0.0, 3.0, (11, *cfg.frame_shape))
    clf = SlidingClassifier(model)
    tokens = []
    for k, frame in enumerate(frames):
        if k == 5:
            clf.reset()
            tokens.clear()
        prob = clf.push(frame)
        tokens.append(embed_frame(model, frame[None])[0])
        if len(tokens) < cfg.seq_len:
            assert prob is None
            continue
        window = np.stack(tokens[-cfg.seq_len:])[None]
        assert prob == float(layers.sigmoid(classify_tokens(model, window))[0])


def test_sliding_push_peak_memory_under_one_mib():
    """One warm push at the default size holds no layer cache past its use."""
    clf = SlidingClassifier(TransDopeModel.initialize(DEFAULT, seed=0))
    frame = rng(16).uniform(0.0, 3.0, DEFAULT.frame_shape)
    for _ in range(DEFAULT.seq_len):
        clf.push(frame)
    tracemalloc.start()
    try:
        clf.push(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"one push peaked at {peak / 1024:.0f} KiB"


# ---------------------------------------------------------------------------
# Training


def separable_sequences(count, seed):
    x = rng(seed).uniform(0.0, 1.0, (count, 2, 8, 4, 2))
    y = np.arange(count) % 2
    x[y == 1] += 4.0
    return x, y.astype(np.float64)


def test_learning_rate_schedule():
    cfg = TrainConfig()
    assert learning_rate(cfg, 0) == pytest.approx(1e-2)
    assert learning_rate(cfg, 9) == pytest.approx(1e-2)
    assert learning_rate(cfg, 10) == pytest.approx(5e-3)
    assert learning_rate(cfg, 20) == pytest.approx(1e-2 / 3.0)
    assert learning_rate(cfg, 49) == pytest.approx(2e-3)


def test_train_reduces_loss_and_reports_history():
    model = TransDopeModel.initialize(TINY, seed=1)
    data = separable_sequences(16, seed=20)
    cfg = TrainConfig(epochs=12, batch_size=4, lr0=2e-2, seed=5)
    trained, history = train(model, data, cfg)
    assert trained is model
    assert len(history) == 12
    assert [h.epoch for h in history] == list(range(12))
    assert history[0].lr == pytest.approx(2e-2)
    assert history[11].lr == pytest.approx(1e-2)
    assert history[-1].loss < history[0].loss
    assert history[-1].accuracy >= 0.9


def test_train_is_deterministic():
    data = separable_sequences(8, seed=21)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=2)
    m1, h1 = train(TransDopeModel.initialize(TINY, seed=6), data, cfg)
    m2, h2 = train(TransDopeModel.initialize(TINY, seed=6), data, cfg)
    assert h1 == h2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises_with_diagnostics():
    model = TransDopeModel.initialize(TINY, seed=1)
    data = separable_sequences(16, seed=23)
    with pytest.raises(TrainingDivergedError, match="epoch"):
        train(model, data, TrainConfig(epochs=50, batch_size=4, lr0=1e8))


def test_train_rejects_bad_data():
    model = TransDopeModel.initialize(TINY, seed=1)
    x, y = separable_sequences(4, seed=24)
    with pytest.raises(ValueError):
        train(model, (x, y + 1.0), TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, (x[:, :, :, :, :1], y), TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, (x[:0], y[:0]), TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# Float32 training: steps follow the data's dtype, parameters stay float64

# Worst float32-against-float64 gradient error of a group, relative to the
# group's float64 norm; measured at 1.5e-6 to 2.4e-6 over six default-shape
# batches (uniform and synthetic-scene inputs), median 2e-7 to 8e-7.
FLOAT32_GRAD_RTOL = 1e-5


def float32_copy(model):
    params = {name: p.astype(np.float32) for name, p in model.params.items()}
    return TransDopeModel(model.config, params, model.pos_table)


def test_float32_step_stays_float32():
    model = float32_copy(TransDopeModel.initialize(TINY, seed=0))
    x = random_batch(TINY, 3, seed=1).astype(np.float32)
    logits, caches = _forward_batch(x, model, with_cache=True)
    _, dz = layers.bce_with_logits(logits, np.array([1.0, 0.0, 1.0]))
    grads = _backward_batch(dz, caches, model)
    assert logits.dtype == np.float32
    assert dz.dtype == np.float32
    assert sorted(grads) == sorted(model.params)
    assert {name: g.dtype.name for name, g in grads.items() if g.dtype != np.float32} == {}


def test_train_on_float32_data_writes_back_into_float64_params():
    model = TransDopeModel.initialize(TINY, seed=1)
    arrays = dict(model.params)
    before = {name: p.copy() for name, p in arrays.items()}
    x, y = separable_sequences(16, seed=20)
    train(model, (x.astype(np.float32), y), TrainConfig(epochs=2, batch_size=8, seed=5))
    for name, p in model.params.items():
        assert p is arrays[name], name
        assert p.dtype == np.float64, name
        assert np.array_equal(p, p.astype(np.float32)), name  # descended in float32
    assert not np.array_equal(model.params["conv1_w"], before["conv1_w"])
    assert not np.array_equal(model.params["head_w"], before["head_w"])


def test_float32_gradients_match_float64_within_written_tolerance():
    cfg = TransDopeConfig()
    model = TransDopeModel.initialize(cfg, seed=0)
    x = rng(0).uniform(0.0, 50.0, (8, cfg.seq_len, *cfg.frame_shape))
    y = np.array([1.0, 0.0] * 4)
    _, g64 = loss_and_grads(model, x, y)
    _, g32 = loss_and_grads(float32_copy(model), x.astype(np.float32), y)
    total = np.sqrt(sum(np.sum(g * g) for g in g64.values()))
    errors = {}
    for name, g in g64.items():
        # softmax ignores a constant per query, so the key bias has zero
        # exact gradient; its float32 noise is judged against the whole
        scale = total if name.endswith("_k_b") else np.linalg.norm(g)
        errors[name] = np.linalg.norm(g32[name] - g) / scale
    worst = max(errors, key=errors.get)
    assert errors[worst] <= FLOAT32_GRAD_RTOL, (worst, errors[worst])


# ---------------------------------------------------------------------------
# Pretraining the convolution stack


def separable_frames(count, seed):
    x = rng(seed).uniform(0.0, 1.0, (count, 8, 4, 2))
    y = np.arange(count) % 2
    x[y == 1] += 8.0
    return x, y.astype(np.float64)


def test_pretrain_learns_and_transfers():
    data = separable_frames(64, seed=30)
    cfg = TrainConfig(epochs=8, batch_size=8, lr0=0.2, seed=1)
    result = pretrain_time_convs(data, cfg, config=TINY)
    assert len(result.history) == 8
    assert result.history[-1].loss < result.history[0].loss
    assert result.history[-1].accuracy >= 0.9
    assert set(result.weights) == {"conv1_w", "conv1_b", "conv2_w", "conv2_b"}

    model = TransDopeModel.initialize(TINY, seed=2)
    apply_pretrained(model, result)
    for name, tensor in result.weights.items():
        assert np.array_equal(model.params[name], tensor)
        assert model.params[name] is not tensor  # a copy, not a shared buffer


def test_pretrain_rejects_empty_or_mismatched_data():
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        pretrain_time_convs((np.zeros((0, 8, 4, 2)), np.zeros(0)), cfg, config=TINY)
    with pytest.raises(ValueError):
        pretrain_time_convs(separable_frames(4, 0), cfg, config=TransDopeConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_divergence_names_epoch_and_batch():
    # The loss stays finite at lr0=1e8 on these frames; at 1e200 the first
    # step overflows the weights.
    data = separable_frames(16, seed=32)
    with pytest.raises(TrainingDivergedError, match="at epoch 0, batch 1,"):
        pretrain_time_convs(data, TrainConfig(epochs=5, batch_size=4, lr0=1e200), config=TINY)


def test_pretrain_runs_through_traceable_embed_frame(monkeypatch):
    # perfbench/tracing.py wraps the model module's attribute; pretraining
    # must look embed_frame up there to be seen.
    calls = []
    inner = tdmodel.embed_frame

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tdmodel, "embed_frame", counting)
    cfg = TrainConfig(epochs=3, batch_size=8, lr0=0.2, seed=1)
    pretrain_time_convs(separable_frames(20, seed=33), cfg, config=TINY)
    assert len(calls) == 3 * 3  # epochs x ceil(20 / 8) batches


def test_apply_pretrained_rejects_wrong_shapes():
    model = TransDopeModel.initialize(TINY, seed=0)
    bad = {name: np.zeros((1, 1)) for name in
           ("conv1_w", "conv1_b", "conv2_w", "conv2_b")}
    with pytest.raises(ValueError):
        apply_pretrained(model, PretrainResult(weights=bad, history=[]))


def test_evaluate_agrees_with_forward():
    model = TransDopeModel.initialize(TINY, seed=3)
    x = random_batch(TINY, 10, seed=31)
    preds = (forward_batch(x, model) >= 0.5).astype(np.float64)
    assert evaluate(model, (x, preds)) == 1.0
    assert evaluate(model, (x, 1.0 - preds)) == 0.0


@pytest.mark.parametrize(
    "shape",
    [
        (4, 8, 16, 64, 3),  # range and Doppler swapped: same size, wrong layout
        (4, 4, 64, 16, 3),  # seq_len 4 against the model's 8
    ],
)
def test_evaluate_rejects_sequences_that_do_not_fit(shape):
    model = TransDopeModel.initialize(DEFAULT, seed=3)
    x = rng(32).uniform(0.0, 1.0, shape)
    with pytest.raises(ValueError, match="expected a batch of sequences shaped"):
        evaluate(model, (x, np.array([0.0, 1.0, 0.0, 1.0])))


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip(tmp_path):
    model = TransDopeModel.initialize(TINY, seed=5)
    path = save_model(model, tmp_path / "m.tdop")
    loaded = load_model(path)
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for name, tensor in model.params.items():
        # storage is float32; values survive exactly at that precision
        want = tensor.astype("<f4").astype(np.float64)
        assert np.array_equal(loaded.params[name], want)
        assert loaded.params[name].dtype == np.float64
    assert np.array_equal(loaded.pos_table, model.pos_table)


def test_checkpoint_header_layout(tmp_path):
    model = TransDopeModel.initialize(TINY, seed=5)
    raw = save_model(model, tmp_path / "m.tdop").read_bytes()
    assert raw[:4] == b"TDOP"
    assert struct.unpack_from("<I", raw, 4) == (1,)
    assert struct.unpack_from("<10H", raw, 8) == (2, 8, 4, 2, 4, 3, 8, 2, 2, 3)
    assert len(raw) == 28 + 4 * param_count(model)


def test_checkpoint_save_load_save_is_stable(tmp_path):
    model = TransDopeModel.initialize(TINY, seed=6)
    first = save_model(model, tmp_path / "a.tdop").read_bytes()
    second = save_model(load_model(tmp_path / "a.tdop"), tmp_path / "b.tdop").read_bytes()
    assert first == second


def test_checkpoint_predictions_survive_round_trip(tmp_path):
    model = TransDopeModel.initialize(TINY, seed=7)
    x = random_batch(TINY, 4, seed=40)
    save_model(model, tmp_path / "m.tdop")
    probs = forward_batch(x, load_model(tmp_path / "m.tdop"))
    # float32 quantization moves probabilities only marginally
    assert np.allclose(probs, forward_batch(x, model), atol=1e-5)


def test_checkpoint_rejects_corruption(tmp_path):
    model = TransDopeModel.initialize(TINY, seed=8)
    good = save_model(model, tmp_path / "m.tdop").read_bytes()

    bad_magic = tmp_path / "magic.tdop"
    bad_magic.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_model(bad_magic)

    bad_version = tmp_path / "version.tdop"
    bad_version.write_bytes(good[:4] + struct.pack("<I", 9) + good[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_model(bad_version)

    short = tmp_path / "short.tdop"
    short.write_bytes(good[:10])
    with pytest.raises(CheckpointError, match="short"):
        load_model(short)

    truncated = tmp_path / "trunc.tdop"
    truncated.write_bytes(good[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(truncated)

    trailing = tmp_path / "trail.tdop"
    trailing.write_bytes(good + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_model(trailing)


def test_checkpoint_rejects_invalid_architecture(tmp_path):
    # heads = 0 can never describe a model
    fields = struct.pack("<10H", 2, 8, 4, 2, 4, 3, 8, 0, 2, 3)
    path = tmp_path / "arch.tdop"
    path.write_bytes(b"TDOP" + struct.pack("<I", 1) + fields)
    with pytest.raises(CheckpointError, match="architecture"):
        load_model(path)
