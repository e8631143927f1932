"""The FFT signal chain against analytic cases and the brute-force oracle."""

import numpy as np
import pytest

from mmsentry import dsp
from mmsentry.radar_core import RadarConfig, RawBurst

from oracles import oracle_chain, oracle_crd, oracle_range_profile

CFG = RadarConfig()


def random_burst(rng, config=CFG, burst_id=0):
    data = rng.normal(size=config.burst_shape) + 1j * rng.normal(size=config.burst_shape)
    return RawBurst(burst_id=burst_id, timestamp_us=0, data=data)


def test_layouts_and_metadata():
    burst = random_burst(np.random.default_rng(0))
    rp = dsp.range_profile(burst, CFG)
    crd = dsp.complex_range_doppler(rp)
    frame = dsp.ard(crd)
    n, p, c = CFG.ard_shape
    assert rp.data.shape == (n, p, c)
    assert crd.data.shape == (n, p, c)
    assert frame.values.shape == (n, p, c)
    assert rp.data.dtype == np.complex128
    assert frame.values.dtype == np.float64
    assert frame.burst_id == burst.burst_id
    assert frame.timestamp_us == burst.timestamp_us
    assert np.all(frame.values >= 0.0)


def test_impulse_has_flat_spectrum():
    data = np.zeros(CFG.burst_shape, dtype=np.complex128)
    data[:, 0, :] = 1.0  # fast-time impulse on every chirp and channel
    rp = dsp.range_profile(RawBurst(0, 0, data), CFG)
    assert np.allclose(rp.data, 1.0, atol=1e-12)


def test_constant_signal_concentrates_at_zero_bins():
    n, p, c = CFG.ard_shape
    data = np.ones(CFG.burst_shape, dtype=np.complex128)
    frame = dsp.process_burst(RawBurst(0, 0, data), CFG)
    # all energy at range bin 0, center Doppler bin, every channel
    peak = frame.values[0, p // 2, :]
    assert np.allclose(peak, n * p, rtol=1e-12)
    rest = frame.values.copy()
    rest[0, p // 2, :] = 0.0
    assert np.all(rest < 1e-6)


def test_single_tone_lands_on_its_bin():
    n, p, c = CFG.ard_shape
    b, d = 11, 5
    chirp = np.exp(2j * np.pi * b * np.arange(n) / n)
    slow = np.exp(2j * np.pi * d * np.arange(p) / p)
    data = np.einsum("p,n->pn", slow, chirp)[:, :, None] * np.ones((1, 1, c))
    frame = dsp.process_burst(RawBurst(0, 0, data), CFG)
    for ch in range(c):
        idx = np.unravel_index(np.argmax(frame.values[:, :, ch]), (n, p))
        assert idx == (b, d + p // 2)
    assert frame.values[b, d + p // 2, 0] == pytest.approx(n * p, rel=1e-12)


def test_chain_matches_bruteforce_dft():
    rng = np.random.default_rng(42)
    for i in range(10):
        burst = random_burst(rng, burst_id=i)
        rp = dsp.range_profile(burst, CFG)
        crd = dsp.complex_range_doppler(rp)
        ref_rp = oracle_range_profile(burst.data)
        ref_crd = oracle_crd(ref_rp)
        assert np.max(np.abs(rp.data - ref_rp) / np.abs(ref_rp)) < 1e-9
        assert np.max(np.abs(crd.data - ref_crd) / np.abs(ref_crd)) < 1e-9
        assert np.max(np.abs(dsp.ard(crd).values - np.abs(ref_crd))) < 1e-9 * np.max(
            np.abs(ref_crd)
        )


def test_parseval_through_both_ffts():
    rng = np.random.default_rng(7)
    n, p, c = CFG.ard_shape
    for i in range(10):
        burst = random_burst(rng, burst_id=i)
        crd = dsp.complex_range_doppler(dsp.range_profile(burst, CFG))
        for ch in range(c):
            e_time = np.sum(np.abs(burst.data[:, :, ch]) ** 2)
            e_freq = np.sum(np.abs(crd.data[:, :, ch]) ** 2)
            assert abs(e_freq - n * p * e_time) / (n * p * e_time) < 1e-9


def test_single_tone_range_profile_closed_form():
    n, p, c = CFG.ard_shape
    b = 10
    chirp = np.exp(2j * np.pi * b * np.arange(n) / n)
    data = np.broadcast_to(chirp[None, :, None], CFG.burst_shape).copy()
    rp = dsp.range_profile(RawBurst(0, 0, data), CFG)
    assert np.allclose(np.abs(rp.data[b]), n, rtol=1e-12)
    off_peak = np.delete(np.abs(rp.data), b, axis=0)
    assert np.all(off_peak < 1e-9)


def test_magnitude_of_known_complex_value():
    crd = dsp.CRD(burst_id=0, timestamp_us=0, data=np.full((1, 1, 1), 3.0 + 4.0j))
    assert dsp.ard(crd).values[0, 0, 0] == pytest.approx(5.0, rel=1e-15)


def test_linearity_of_the_chain():
    rng = np.random.default_rng(13)
    a = random_burst(rng, burst_id=0)
    b = random_burst(rng, burst_id=1)
    summed = RawBurst(2, 0, a.data + b.data)
    crd_sum = dsp.complex_range_doppler(dsp.range_profile(summed, CFG))
    crd_a = dsp.complex_range_doppler(dsp.range_profile(a, CFG))
    crd_b = dsp.complex_range_doppler(dsp.range_profile(b, CFG))
    # linear pre-magnitude; process(a+b) = |CRD(a) + CRD(b)|
    assert np.allclose(crd_sum.data, crd_a.data + crd_b.data, atol=1e-9)
    assert np.allclose(
        dsp.process_burst(summed, CFG).values, np.abs(crd_a.data + crd_b.data), atol=1e-9
    )


def test_fast_time_modulation_shifts_range_argmax():
    rng = np.random.default_rng(17)
    n, p, c = CFG.ard_shape
    burst = random_burst(rng)
    base = dsp.process_burst(burst, CFG).values
    for k in (1, 5, 63):
        mod = np.exp(2j * np.pi * k * np.arange(n) / n)
        shifted = RawBurst(0, 0, burst.data * mod[None, :, None])
        out = dsp.process_burst(shifted, CFG).values
        for ch in range(c):
            r0, d0 = np.unravel_index(np.argmax(base[:, :, ch]), (n, p))
            r1, d1 = np.unravel_index(np.argmax(out[:, :, ch]), (n, p))
            assert (r1, d1) == ((r0 + k) % n, d0)


def test_nonsquare_config_chain():
    cfg = RadarConfig(chirps_per_burst=8, samples_per_chirp=32, channels=2, bandwidth_hz=2e9)
    rng = np.random.default_rng(3)
    burst = random_burst(rng, cfg)
    frame = dsp.process_burst(burst, cfg)
    assert frame.values.shape == cfg.ard_shape
    assert np.allclose(frame.values, oracle_chain(burst.data), atol=1e-9)


def test_dimension_mismatch_rejected():
    cfg_small = RadarConfig(chirps_per_burst=8, samples_per_chirp=32, bandwidth_hz=2e9)
    burst = random_burst(np.random.default_rng(0), cfg_small)
    with pytest.raises(ValueError):
        dsp.range_profile(burst, CFG)
    with pytest.raises(ValueError):
        dsp.process_burst(burst, CFG)


def test_process_burst_composition_identity():
    rng = np.random.default_rng(5)
    data = rng.normal(size=CFG.burst_shape) + 1j * rng.normal(size=CFG.burst_shape)
    for dtype in (np.complex128, np.complex64):
        burst = RawBurst(burst_id=3, timestamp_us=9, data=data.astype(dtype))
        direct = dsp.process_burst(burst, CFG)
        staged = dsp.ard(dsp.complex_range_doppler(dsp.range_profile(burst, CFG)))
        assert direct.values.tobytes() == staged.values.tobytes(), dtype
        assert (direct.burst_id, direct.timestamp_us) == (3, 9)
