"""Independent references the fast implementations are checked against.

The DSP references are O(N^2) basis-matrix arithmetic on purpose; keep them
free of np.fft so the two routes share no code.  The layer references are
the straightforward loop im2col, ``dcols`` col2im and argmax pooling that
the layers in ``transdope.layers`` must match bit for bit, and a conv
stack composed of them with ReLU before pooling, which
``model.embed_frame`` must match although it pools before ReLU.

The ``*_helper_form`` references are earlier forms of the per-burst code,
written with numpy's convenience helpers (``sliding_window_view``,
``fftshift``, ``mean``, ``tile``).  The faster forms that replaced them
must produce the same bytes.
"""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def oracle_range_profile(data: np.ndarray) -> np.ndarray:
    """(P, N, C) samples -> (N, P, C) fast-time spectrum, unnormalized."""
    w = dft_matrix(data.shape[1])
    return np.einsum("kn,pnc->kpc", w, data)


def oracle_crd(rp: np.ndarray) -> np.ndarray:
    """(N, P, C) range profiles -> center-shifted complex range-Doppler."""
    p = rp.shape[1]
    w = dft_matrix(p)
    crd = np.einsum("dp,kpc->kdc", w, rp)
    half = p // 2  # move zero Doppler to the middle bin
    return np.concatenate([crd[:, half:, :], crd[:, :half, :]], axis=1)


def oracle_chain(data: np.ndarray) -> np.ndarray:
    return np.abs(oracle_crd(oracle_range_profile(data)))


def oracle_im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, H+kh-1, W+kw-1, C) -> (B, H, W, kh*kw*C), one slice copy per offset."""
    b, hp, wp, c = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    cols = np.empty((b, h, w, kh * kw * c), dtype=xp.dtype)
    i = 0
    for dy in range(kh):
        for dx in range(kw):
            cols[..., i * c:(i + 1) * c] = xp[:, dy:dy + h, dx:dx + w, :]
            i += 1
    return cols


def oracle_conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 convolution through np.pad and the loop im2col."""
    kh, kw, cin, cout = w.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    cols = oracle_im2col(xp, kh, kw)
    bs, h, wd, k = cols.shape
    y = cols.reshape(bs * h * wd, k) @ w.reshape(k, cout) + b
    return y.reshape(bs, h, wd, cout)


def _pool_windows(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B, H/2, W/2, C, 4), window positions in row-major order."""
    b, h, w, c = x.shape
    return (
        x.reshape(b, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h // 2, w // 2, c, 4)
    )


def oracle_maxpool2_forward(x: np.ndarray):
    """2x2 stride-2 max pooling by argmax; returns (output, argmax indices)."""
    xw = _pool_windows(x)
    idx = xw.argmax(axis=-1)
    return np.take_along_axis(xw, idx[..., None], axis=-1)[..., 0], idx


def oracle_maxpool2_backward(dy: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """Route each window's gradient to its argmax position."""
    b, h, w, c = x_shape
    dxw = np.zeros((b, h // 2, w // 2, c, 4), dtype=dy.dtype)
    np.put_along_axis(dxw, idx[..., None], dy[..., None], axis=-1)
    return (
        dxw.reshape(b, h // 2, w // 2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, h, w, c)
    )


def oracle_conv2d_input_grad(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of the same-padded convolution: one (rows, kh*kw*cin)
    ``dcols`` product, then col2im by a loop over the kernel offsets."""
    kh, kw, cin, cout = w.shape
    bs, h, wd, _ = dy.shape
    k = kh * kw * cin
    dcols = (dy.reshape(-1, cout) @ w.reshape(k, cout).T).reshape(bs, h, wd, k)
    dxp = np.zeros((bs, h + kh - 1, wd + kw - 1, cin), dtype=dy.dtype)
    i = 0
    for ddy in range(kh):
        for ddx in range(kw):
            dxp[:, ddy:ddy + h, ddx:ddx + wd, :] += dcols[..., i * cin:(i + 1) * cin]
            i += 1
    return dxp[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd, :]


def oracle_conv_stack_forward(params: dict, frames: np.ndarray, scale: float):
    """Frames -> embedding by conv -> ReLU -> argmax pool, twice, then the
    dense embedding; returns (embedding, cache for the backward)."""
    x = np.asarray(frames, dtype=np.float64) * scale
    stages = []
    for conv in ("conv1", "conv2"):
        w = params[conv + "_w"]
        kh, kw, cin, cout = w.shape
        xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
        cols = oracle_im2col(xp, kh, kw)
        pre = cols.reshape(-1, kh * kw * cin) @ w.reshape(-1, cout) + params[conv + "_b"]
        pre = pre.reshape(*x.shape[:3], cout)
        x, idx = oracle_maxpool2_forward(pre * (pre > 0.0))  # ReLU, then pool
        stages.append((cols, pre, idx))
    flat = x.reshape(len(x), -1)
    return flat @ params["embed_w"] + params["embed_b"], (stages, x)


def oracle_conv_stack_backward(demb: np.ndarray, cache, params: dict) -> dict:
    """Gradients of every conv-stack and embedding parameter, in the same
    order: argmax routing, then the full-size ReLU mask."""
    stages, pooled = cache
    flat = pooled.reshape(len(pooled), -1)
    grads = {
        "embed_w": flat.T @ demb,
        "embed_b": demb.sum(axis=0),
    }
    d = (demb @ params["embed_w"].T).reshape(pooled.shape)
    for conv, (cols, pre, idx) in zip(("conv2", "conv1"), reversed(stages)):
        d = oracle_maxpool2_backward(d, idx, pre.shape) * (pre > 0.0)
        dyf = d.reshape(-1, pre.shape[-1])
        w = params[conv + "_w"]
        grads[conv + "_w"] = (cols.reshape(len(dyf), -1).T @ dyf).reshape(w.shape)
        grads[conv + "_b"] = dyf.sum(axis=0)
        if conv == "conv2":
            d = oracle_conv2d_input_grad(d, w)
    return grads


# ---------------------------------------------------------------------------
# Helper forms of the per-burst code


def im2col_helper_form(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """``layers._im2col`` through ``sliding_window_view`` and a transpose."""
    b, hp, wp, c = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, h, w, kh * kw * c)


def crd_helper_form(rp: np.ndarray) -> np.ndarray:
    """``dsp.complex_range_doppler`` through ``np.fft.fftshift``."""
    return np.fft.fftshift(np.fft.fft(rp, axis=1), axes=1)


def linear_helper_form(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def layer_norm_helper_form(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps=1e-5):
    """``layers.layer_norm_forward`` through ``mean``; returns (y, xhat, inv)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gamma * xhat + beta, xhat, inv


def softmax_helper_form(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def token_conv_helper_form(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``layers.token_conv_forward`` with its bias laid down by ``np.tile``."""
    kw, d, _ = w.shape
    pad = kw // 2
    bs, t, _ = x.shape
    xp = np.zeros((bs, t + 2 * pad, d), dtype=x.dtype)
    xp[:, pad:pad + t, :] = x
    y = np.tile(b, (bs, t, 1)).astype(x.dtype)
    for j in range(kw):
        y += xp[:, j:j + t, :] @ w[j]
    return y
