"""Array layer primitives with hand-written forward and backward passes.

Every ``*_forward`` returns ``(output, cache)`` and the matching
``*_backward`` consumes the upstream gradient plus that cache.  No autodiff
framework is involved anywhere; gradients are verified against central
finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# 2-D convolution (stride 1, same zero padding) via im2col


def _im2col(xp: np.ndarray, kh: int, kw: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, H+kh-1, W+kw-1, C) padded input -> (B, H, W, kh*kw*C) columns.

    Column order is (dy, dx, channel), matching ``w.reshape(kh*kw*C, Cout)``.
    The (B, H, W, kh, kw, C) window view costs nothing and never leaves this
    function; the reshape makes the one copy, or copying into ``out`` does.
    """
    b, hp, wp, c = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    sb, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(xp, (b, h, w, kh, kw, c), (sb, sh, sw, sh, sw, sc))
    if out is None:
        return windows.reshape(b, h, w, kh * kw * c)
    out.reshape(windows.shape)[...] = windows
    return out


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, cols=None, out=None):
    """x: (B, H, W, Cin), w: (kh, kw, Cin, Cout), b: (Cout,) -> (B, H, W, Cout).

    ``cols`` and ``out``, C-contiguous arrays shaped as the cached columns
    and the output, are filled in place of new arrays: a chunk's rows of a
    larger batch's buffers.
    """
    kh, kw, cin, cout = w.shape
    pad_h, pad_w = kh // 2, kw // 2
    bs, h, wd, _ = x.shape
    xp = np.zeros((bs, h + 2 * pad_h, wd + 2 * pad_w, cin), dtype=x.dtype)
    xp[:, pad_h:pad_h + h, pad_w:pad_w + wd, :] = x
    cols = _im2col(xp, kh, kw, cols)
    y = np.matmul(
        cols.reshape(bs * h * wd, -1), w.reshape(-1, cout),
        out=None if out is None else out.reshape(bs * h * wd, cout),
    )
    y += b
    return y.reshape(bs, h, wd, cout), (cols, w)


def conv2d_param_grads(dy: np.ndarray, cache):
    """Weight and bias gradients of a convolution: one product over all of dy's rows.

    A slice of the output channels (``dy[..., c]`` with ``w[..., c]`` in the
    cache) gives those channels' entries with the same bytes.
    """
    cols, w = cache
    dyf = dy.reshape(-1, w.shape[-1])
    dw = (cols.reshape(dyf.shape[0], -1).T @ dyf).reshape(w.shape)
    return dw, dyf.sum(axis=0)


def conv2d_backward(dy: np.ndarray, cache) -> np.ndarray:
    """Input gradient of a convolution; :func:`conv2d_param_grads` gives the rest."""
    cols, w = cache
    kh, kw, cin, cout = w.shape
    pad_h, pad_w = kh // 2, kw // 2
    bs, h, wd, _ = cols.shape
    dyf = dy.reshape(-1, cout)
    # col2im one kernel offset at a time: no (rows, kh*kw*cin) array is built
    dxp = np.zeros((bs, h + 2 * pad_h, wd + 2 * pad_w, cin), dtype=dy.dtype)
    for ddy in range(kh):
        for ddx in range(kw):
            dxp[:, ddy:ddy + h, ddx:ddx + wd, :] += (dyf @ w[ddy, ddx].T).reshape(bs, h, wd, cin)
    return dxp[:, pad_h:pad_h + h, pad_w:pad_w + wd, :]


# ---------------------------------------------------------------------------
# ReLU


def relu_forward(x: np.ndarray, out=None, mask=None):
    """``out`` and ``mask``, when given, receive the output and the mask."""
    mask = np.greater(x, 0.0, out=mask)
    return np.multiply(x, mask, out=out), mask


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


# ---------------------------------------------------------------------------
# 2x2 max pooling, stride 2


def maxpool2_forward(x: np.ndarray, out=None):
    """x: (B, H, W, C) with even H, W -> (B, H/2, W/2, C), into ``out`` if given."""
    # np.maximum returns its second argument when both are zeros of either
    # sign, so the earlier position goes second: a window of zeros then
    # yields the zero (and its sign) at its first position, as argmax does.
    y = np.maximum(
        np.maximum(x[:, 1::2, 1::2], x[:, 1::2, 0::2]),
        np.maximum(x[:, 0::2, 1::2], x[:, 0::2, 0::2]),
        out=out,
    )
    return y, (x, y)


def maxpool2_backward(dy: np.ndarray, cache, out=None) -> np.ndarray:
    """dy: (B, H/2, W/2, C) -> (B, H, W, C), into ``out`` (C-contiguous) if given."""
    x, y = cache
    b, h, w, c = x.shape
    hit = x.reshape(b, h // 2, 2, w // 2, 2, c) == y[:, :, None, :, None, :]
    # keep the first hit in argmax order; on booleans ``a > b`` is ``a and not b``
    h00, h01, h10, h11 = (hit[:, :, i, :, j] for i in (0, 1) for j in (0, 1))
    np.greater(h01, h00, out=h01)
    seen = h00 | h01
    np.greater(h10, seen, out=h10)
    np.greater(h11, seen | h10, out=h11)
    # dy's bits where hit, +0.0 elsewhere: exact where a multiply is not (-0.0, inf)
    bits = f"i{dy.itemsize}"
    dx = np.bitwise_and(
        dy[:, :, None, :, None, :].view(bits), -hit.view(np.int8),
        out=None if out is None else out.reshape(hit.shape).view(bits),
    )
    return dx.view(dy.dtype).reshape(x.shape)


# ---------------------------------------------------------------------------
# Dense projection


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (..., Din), w: (Din, Dout), b: (Dout,)."""
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(dy: np.ndarray, cache):
    x, w = cache
    din, dout = w.shape
    xf = x.reshape(-1, din)
    dyf = dy.reshape(-1, dout)
    dw = xf.T @ dyf
    db = dyf.sum(axis=0)
    dx = (dyf @ w.T).reshape(x.shape)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Layer normalization over the last axis


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    # ``x.mean`` is ``add.reduce`` divided by the count, so these are its bits;
    # each in-place step acts on a temporary made just before it.
    n = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / n
    var = np.add.reduce(xc * xc, -1, keepdims=True) / n
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat = np.multiply(xc, inv, out=xc)
    y = gamma * xhat
    y += beta
    return y, (xhat, inv, gamma)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv, gamma = cache
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    axes = tuple(range(dy.ndim - 1))
    dgamma = np.sum(dy * xhat, axis=axes)
    dbeta = np.sum(dy, axis=axes)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Softmax (last axis)


def softmax(x: np.ndarray) -> np.ndarray:
    e = x - np.maximum.reduce(x, -1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def softmax_backward(dy: np.ndarray, s: np.ndarray) -> np.ndarray:
    return s * (dy - np.sum(dy * s, axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Multi-head scaled dot-product self-attention


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attention_forward(x: np.ndarray, p: dict, prefix: str, heads: int):
    """x: (B, T, D); projections taken from ``p[prefix + 'q_w']`` etc."""
    q_m, _ = linear_forward(x, p[prefix + "q_w"], p[prefix + "q_b"])
    k_m, _ = linear_forward(x, p[prefix + "k_w"], p[prefix + "k_b"])
    v_m, _ = linear_forward(x, p[prefix + "v_w"], p[prefix + "v_b"])
    q = _split_heads(q_m, heads)
    k = _split_heads(k_m, heads)
    v = _split_heads(v_m, heads)
    scale = 1.0 / math.sqrt(q.shape[-1])  # a Python float keeps float32 float32
    logits = (q @ k.swapaxes(-1, -2)) * scale
    attn = softmax(logits)
    ctx = _merge_heads(attn @ v)
    y, _ = linear_forward(ctx, p[prefix + "out_w"], p[prefix + "out_b"])
    return y, (x, q, k, v, attn, ctx, scale, prefix, heads)


def attention_backward(dy: np.ndarray, cache, p: dict):
    x, q, k, v, attn, ctx, scale, prefix, heads = cache
    grads = {}
    dctx, grads[prefix + "out_w"], grads[prefix + "out_b"] = linear_backward(
        dy, (ctx, p[prefix + "out_w"])
    )
    dctx = _split_heads(dctx, heads)
    dattn = dctx @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dctx
    dlogits = softmax_backward(dattn, attn) * scale
    dq = dlogits @ k
    dk = dlogits.swapaxes(-1, -2) @ q
    dx = np.zeros_like(x)
    for name, grad in (("q", dq), ("k", dk), ("v", dv)):
        dm, dw, db = linear_backward(
            _merge_heads(grad), (x, p[prefix + name + "_w"])
        )
        grads[prefix + name + "_w"] = dw
        grads[prefix + name + "_b"] = db
        dx += dm
    return dx, grads


# ---------------------------------------------------------------------------
# Width-k convolution along the token axis (same zero padding)


def token_conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (B, T, D), w: (k, D, Dout), b: (Dout,)."""
    kw, d, dout = w.shape
    pad = kw // 2
    bs, t, _ = x.shape
    xp = np.zeros((bs, t + 2 * pad, d), dtype=x.dtype)
    xp[:, pad:pad + t, :] = x
    y = np.empty((bs, t, dout), dtype=x.dtype)
    y[...] = b
    for j in range(kw):
        y += xp[:, j:j + t, :] @ w[j]
    return y, (xp, w, t)


def token_conv_backward(dy: np.ndarray, cache):
    xp, w, t = cache
    kw, d, dout = w.shape
    pad = kw // 2
    bs = dy.shape[0]
    dyf = dy.reshape(bs * t, dout)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(kw):
        dw[j] = xp[:, j:j + t, :].reshape(bs * t, d).T @ dyf
        dxp[:, j:j + t, :] += dy @ w[j].T
    db = dyf.sum(axis=0)
    return dxp[:, pad:pad + t, :], dw, db


# ---------------------------------------------------------------------------
# Sigmoid and binary cross-entropy on logits


def sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def bce_with_logits(z: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy; returns (loss, dloss/dz), dz in ``z``'s dtype."""
    losses = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    dz = (sigmoid(z) - y) / z.shape[0]
    return float(losses.mean()), dz.astype(z.dtype, copy=False)
