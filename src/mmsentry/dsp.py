"""Burst signal chain: raw samples -> range profile -> range-Doppler -> magnitudes.

Both FFTs are unnormalized forward transforms, so a unit-amplitude reflector
at integer bins (b, d) produces a range-profile peak of magnitude N and a
range-Doppler peak of magnitude N * P.  No window is applied; channels are
processed independently end to end.  The stages work on bare arrays; only
``process_burst`` builds data types.  ``RawBurst`` checks the input once, at
the boundary; ``ARDFrame`` checks only the rank of the output.
"""

from __future__ import annotations

import numpy as np

from .radar_core import ARDFrame, RawBurst


def range_profile(samples: np.ndarray) -> np.ndarray:
    """Fast-time FFT: (P, N, C) samples -> complex128 (N, P, C) range profile."""
    # cast first: NumPy transforms complex64 input in single precision
    rp = np.fft.fft(samples.astype(np.complex128, copy=False), axis=1)  # axis 1 -> range bins
    return rp.transpose(1, 0, 2)


def complex_range_doppler(rp: np.ndarray) -> np.ndarray:
    """Slow-time FFT of an (N, P, C) range profile, center-shifted on the Doppler axis."""
    crd = np.fft.fft(rp, axis=1)
    cut = crd.shape[1] - crd.shape[1] // 2  # zero velocity -> bin P/2, as fftshift
    return np.concatenate((crd[:, cut:], crd[:, :cut]), axis=1)


def ard(crd: np.ndarray) -> np.ndarray:
    """Elementwise magnitude of the complex range-Doppler."""
    return np.abs(crd)


def process_burst(burst: RawBurst) -> ARDFrame:
    """Full chain: range profile -> complex range-Doppler -> magnitudes."""
    values = ard(complex_range_doppler(range_profile(burst.data)))
    return ARDFrame(burst_id=burst.burst_id, timestamp_us=burst.timestamp_us, values=values)
