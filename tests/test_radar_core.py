"""Unit conversions, config invariants, and the frozen data types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsentry.radar_core import (
    ARDFrame,
    ConfigError,
    RadarConfig,
    RawBurst,
    SPEED_OF_LIGHT,
    bins_to_physical,
    max_range,
    physical_to_bins,
    range_resolution,
)

# values computed by hand from c / (2 * BW); frozen, not re-derived
HAND_RESOLUTION = {
    1e9: 0.149896229,
    2e9: 0.0749481145,
    0.5e9: 0.299792458,
}


def test_default_waveform_numbers():
    cfg = RadarConfig()
    assert cfg.chirps_per_burst == 16
    assert cfg.samples_per_chirp == 64
    assert cfg.channels == 3
    assert cfg.prf_hz == 2000.0
    assert cfg.burst_rate_hz == 25.0
    assert cfg.center_freq_hz == 60e9
    assert cfg.bandwidth_hz == 1e9


@pytest.mark.parametrize("bw,expected", sorted(HAND_RESOLUTION.items()))
def test_range_resolution_hand_values(bw, expected):
    cfg = RadarConfig(bandwidth_hz=bw)
    assert range_resolution(cfg) == pytest.approx(expected, rel=1e-12)


def test_default_resolution_and_max_range_within_band():
    cfg = RadarConfig()
    assert range_resolution(cfg) == pytest.approx(0.15, rel=1e-3)
    assert max_range(cfg) == pytest.approx(9.6, rel=1e-3)
    assert max_range(cfg) == pytest.approx(64 * range_resolution(cfg), rel=1e-15)


def test_derived_waveform_quantities():
    cfg = RadarConfig()
    assert cfg.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 60e9, rel=1e-15)
    assert cfg.doppler_bin_hz == pytest.approx(125.0, rel=1e-15)
    # one bin of Doppler shift as radial velocity: lambda/2 * bin width
    assert cfg.velocity_per_bin_mps == pytest.approx(0.3122838104166, rel=1e-9)
    assert cfg.max_velocity_mps == pytest.approx(2.4982704833, rel=1e-9)
    assert cfg.max_velocity_mps == pytest.approx(
        cfg.velocity_per_bin_mps * cfg.chirps_per_burst / 2, rel=1e-12
    )
    assert cfg.burst_shape == (16, 64, 3)
    assert cfg.ard_shape == (64, 16, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(chirps_per_burst=12),       # not a power of two
        dict(chirps_per_burst=1),
        dict(samples_per_chirp=48),
        dict(channels=0),
        dict(prf_hz=0.0),
        dict(prf_hz=-2000.0),
        dict(bandwidth_hz=float("nan")),
        dict(burst_rate_hz=float("inf")),
        dict(prf_hz=300.0),              # 16 chirps at 25 bursts/s need prf > 400
    ],
)
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ConfigError):
        RadarConfig(**kwargs)


def test_integer_bins_map_exactly():
    cfg = RadarConfig()
    rr = range_resolution(cfg)
    vpb = cfg.velocity_per_bin_mps
    for b, d in [(0, 0), (1, 1), (17, -3), (63, 7), (32, -7)]:
        rb, db = physical_to_bins(b * rr, d * vpb, cfg)
        assert rb == pytest.approx(b, abs=1e-9)
        assert db == pytest.approx(d, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    range_frac=st.floats(min_value=0.0, max_value=0.999999),
    vel_frac=st.floats(min_value=-0.999999, max_value=0.999999),
)
def test_bin_round_trip(range_frac, vel_frac):
    cfg = RadarConfig()
    r = range_frac * max_range(cfg)
    v = vel_frac * cfg.max_velocity_mps
    rb, db = physical_to_bins(r, v, cfg)
    r2, v2 = bins_to_physical(rb, db, cfg)
    assert r2 == pytest.approx(r, abs=1e-9)
    assert v2 == pytest.approx(v, abs=1e-9)


def test_out_of_span_rejected():
    cfg = RadarConfig()
    with pytest.raises(ValueError):
        physical_to_bins(max_range(cfg), 0.0, cfg)
    with pytest.raises(ValueError):
        physical_to_bins(-0.001, 0.0, cfg)
    with pytest.raises(ValueError):
        physical_to_bins(1.0, cfg.max_velocity_mps, cfg)
    with pytest.raises(ValueError):
        physical_to_bins(1.0, -cfg.max_velocity_mps, cfg)


def test_raw_burst_validation():
    cfg = RadarConfig()
    data = np.zeros(cfg.burst_shape, dtype=np.complex128)
    burst = RawBurst(burst_id=3, timestamp_us=120, data=data)
    assert burst.shape == cfg.burst_shape
    with pytest.raises(ValueError):
        RawBurst(burst_id=0, timestamp_us=0, data=np.zeros((4, 4)))
    bad = data.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        RawBurst(burst_id=0, timestamp_us=0, data=bad)


def test_burst_data_is_immutable():
    burst = RawBurst(burst_id=0, timestamp_us=0, data=np.zeros((2, 4, 1), np.complex128))
    with pytest.raises(ValueError):
        burst.data[0, 0, 0] = 1.0


def test_ard_frame_checks_rank_and_freezes():
    # finiteness and sign are RawBurst's and np.abs's to guarantee, not re-checked here
    good = ARDFrame(burst_id=1, timestamp_us=0, values=np.ones((4, 2, 1)))
    assert good.shape == (4, 2, 1)
    with pytest.raises(ValueError):
        good.values[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        ARDFrame(burst_id=1, timestamp_us=0, values=np.ones((4, 2)))
