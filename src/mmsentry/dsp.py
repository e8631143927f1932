"""Burst signal chain: raw samples -> range profile -> range-Doppler -> magnitudes.

Both FFTs are unnormalized forward transforms, so a unit-amplitude reflector
at integer bins (b, d) produces a range-profile peak of magnitude N and a
range-Doppler peak of magnitude N * P.  No window is applied; channels are
processed independently end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radar_core import ARDFrame, RadarConfig, RawBurst, _freeze


@dataclass(frozen=True)
class RangeProfile:
    """Complex range profile, laid out [range bin, chirp, channel]."""

    burst_id: int
    timestamp_us: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise ValueError(f"range profile must be 3-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"range profile {self.burst_id} contains non-finite values")
        object.__setattr__(self, "data", _freeze(data))


@dataclass(frozen=True)
class CRD:
    """Complex range-Doppler, laid out [range bin, doppler bin, channel].

    The Doppler axis is center-shifted (zero velocity at bin P/2).
    """

    burst_id: int
    timestamp_us: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise ValueError(f"CRD must be 3-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"CRD {self.burst_id} contains non-finite values")
        object.__setattr__(self, "data", _freeze(data))


def _check_dims(burst: RawBurst, config: RadarConfig | None):
    if config is not None and burst.shape != config.burst_shape:
        raise ValueError(
            f"burst shape {burst.shape} does not match config shape {config.burst_shape}"
        )


def _range_spectrum(samples: np.ndarray) -> np.ndarray:
    """(P, N, C) samples -> complex128 (N, P, C) fast-time spectrum, a transposed view."""
    rp = np.fft.fft(samples, axis=1)          # (P, N, C), axis 1 -> range bins
    return np.transpose(rp, (1, 0, 2)).astype(np.complex128, copy=False)


def _doppler_spectrum(rp: np.ndarray) -> np.ndarray:
    """(N, P, C) range profiles -> center-shifted complex128 range-Doppler."""
    crd = np.fft.fft(rp, axis=1)
    return np.fft.fftshift(crd, axes=1)       # zero velocity -> bin P/2


def range_profile(burst: RawBurst, config: RadarConfig | None = None) -> RangeProfile:
    """Fast-time FFT per chirp and channel.

    Input layout is [chirp, sample, channel]; output is [range bin, chirp,
    channel].
    """
    _check_dims(burst, config)
    return RangeProfile(
        burst_id=burst.burst_id,
        timestamp_us=burst.timestamp_us,
        data=_range_spectrum(burst.data),
    )


def complex_range_doppler(rp: RangeProfile) -> CRD:
    """Slow-time FFT per range bin and channel, center-shifted on the Doppler axis."""
    return CRD(
        burst_id=rp.burst_id, timestamp_us=rp.timestamp_us, data=_doppler_spectrum(rp.data)
    )


def ard(crd: CRD) -> ARDFrame:
    """Elementwise magnitude of the complex range-Doppler."""
    return ARDFrame(
        burst_id=crd.burst_id, timestamp_us=crd.timestamp_us, values=np.abs(crd.data)
    )


def process_burst(burst: RawBurst, config: RadarConfig | None = None) -> ARDFrame:
    """Full chain: range profile -> complex range-Doppler -> magnitudes.

    The same steps as ``ard(complex_range_doppler(range_profile(...)))`` on
    bare arrays: ``RawBurst`` has already checked the samples, and only the
    final frame is built and checked.
    """
    _check_dims(burst, config)
    crd = _doppler_spectrum(_range_spectrum(burst.data))
    return ARDFrame(burst_id=burst.burst_id, timestamp_us=burst.timestamp_us, values=np.abs(crd))
