"""Radar burst parameterization, physical-unit conversions, and core data types.

Conventions used throughout the package:

* a *burst* is ``chirps_per_burst`` chirps of ``samples_per_chirp`` complex
  baseband samples on each of ``channels`` receive channels,
* range bins index fast time (one bin is ``c / (2 * bandwidth)`` metres),
* Doppler bins index slow time and are center-shifted: zero radial velocity
  maps to bin ``chirps_per_burst / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class ConfigError(ValueError):
    """Raised when a RadarConfig violates one of its invariants."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RadarConfig:
    """Immutable burst/waveform parameterization shared by every module."""

    chirps_per_burst: int = 16
    samples_per_chirp: int = 64
    channels: int = 3
    prf_hz: float = 2000.0        # intra-burst chirp repetition rate
    burst_rate_hz: float = 25.0   # bursts per second
    center_freq_hz: float = 60e9
    bandwidth_hz: float = 1e9

    def __post_init__(self):
        if self.chirps_per_burst < 2 or not _is_pow2(self.chirps_per_burst):
            raise ConfigError(
                f"chirps_per_burst must be a power of two >= 2, got {self.chirps_per_burst}"
            )
        if self.samples_per_chirp < 2 or not _is_pow2(self.samples_per_chirp):
            raise ConfigError(
                f"samples_per_chirp must be a power of two >= 2, got {self.samples_per_chirp}"
            )
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        for name in ("prf_hz", "burst_rate_hz", "center_freq_hz", "bandwidth_hz"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be strictly positive, got {value}")
        if not self.prf_hz > self.burst_rate_hz * self.chirps_per_burst:
            raise ConfigError(
                "burst does not fit in its interval: prf_hz must exceed "
                f"burst_rate_hz * chirps_per_burst = {self.burst_rate_hz * self.chirps_per_burst}"
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.center_freq_hz

    @property
    def doppler_bin_hz(self) -> float:
        """Width of one Doppler bin [Hz]: the slow-time FFT resolution."""
        return self.prf_hz / self.chirps_per_burst

    @property
    def velocity_per_bin_mps(self) -> float:
        """Radial velocity represented by one Doppler bin [m/s]."""
        return self.wavelength_m * self.doppler_bin_hz / 2.0

    @property
    def max_velocity_mps(self) -> float:
        """Unambiguous radial velocity limit [m/s] (half the Doppler span)."""
        return self.wavelength_m * self.prf_hz / 4.0

    @property
    def burst_shape(self) -> tuple[int, int, int]:
        """Raw burst array shape: (chirps, samples, channels)."""
        return (self.chirps_per_burst, self.samples_per_chirp, self.channels)

    @property
    def ard_shape(self) -> tuple[int, int, int]:
        """Range-Doppler array shape: (range bins, doppler bins, channels)."""
        return (self.samples_per_chirp, self.chirps_per_burst, self.channels)


def range_resolution(config: RadarConfig) -> float:
    """Size of one range bin [m]: c / (2 * bandwidth)."""
    return SPEED_OF_LIGHT / (2.0 * config.bandwidth_hz)


def max_range(config: RadarConfig) -> float:
    """Maximum unambiguous range [m]: one bin per fast-time sample."""
    return config.samples_per_chirp * range_resolution(config)


def physical_to_bins(
    range_m: float, velocity_mps: float, config: RadarConfig
) -> tuple[float, float]:
    """Map a physical (range, radial velocity) to fractional (range bin, doppler bin).

    The Doppler bin is signed and relative to the center bin: zero velocity
    maps to 0.0, positive radial velocity (towards the radar) to positive bins.

    Raises ValueError if the range falls outside [0, max_range) or the
    velocity magnitude reaches the unambiguous limit wavelength * prf / 4.
    """
    r_max = max_range(config)
    if not (0.0 <= range_m < r_max):
        raise ValueError(
            f"range {range_m} m outside the unambiguous span [0, {r_max:.4f}) m"
        )
    v_max = config.max_velocity_mps
    if not abs(velocity_mps) < v_max:
        raise ValueError(
            f"radial velocity {velocity_mps} m/s reaches the unambiguous "
            f"limit +/-{v_max:.4f} m/s"
        )
    range_bin = range_m / range_resolution(config)
    doppler_hz = 2.0 * velocity_mps / config.wavelength_m
    doppler_bin = doppler_hz / config.doppler_bin_hz
    return range_bin, doppler_bin


def bins_to_physical(
    range_bin: float, doppler_bin: float, config: RadarConfig
) -> tuple[float, float]:
    """Inverse of :func:`physical_to_bins` (fractional bins accepted)."""
    range_m = range_bin * range_resolution(config)
    velocity_mps = doppler_bin * config.velocity_per_bin_mps
    return range_m, velocity_mps


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class RawBurst:
    """One burst of complex baseband samples, laid out [chirp, sample, channel]."""

    burst_id: int
    timestamp_us: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data)
        if data.ndim != 3:
            raise ValueError(f"burst data must be 3-D, got shape {data.shape}")
        if not np.iscomplexobj(data):
            data = data.astype(np.complex128)
        if not np.all(np.isfinite(data)):
            raise ValueError(f"burst {self.burst_id} contains non-finite samples")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class ARDFrame:
    """Absolute range-Doppler magnitudes, laid out [range bin, doppler bin, channel].

    The Doppler axis is center-shifted: zero radial velocity sits at bin
    ``chirps_per_burst / 2``.
    """

    burst_id: int
    timestamp_us: int
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(f"ARD values must be 3-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"ARD frame {self.burst_id} contains non-finite values")
        if np.any(values < 0.0):
            raise ValueError(f"ARD frame {self.burst_id} contains negative values")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape
