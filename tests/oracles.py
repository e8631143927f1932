"""Independent references the fast implementations are checked against.

The DSP references are O(N^2) basis-matrix arithmetic on purpose; keep them
free of np.fft so the two routes share no code.  The layer references are
the straightforward loop im2col and argmax pooling that the strided layers
in ``transdope.layers`` must match bit for bit.
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
