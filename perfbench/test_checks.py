"""Every benchmark check passes on a correct output and fails on a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import train_recipe  # noqa: E402
from checks import CheckFailed  # noqa: E402
from mmsentry import dsp, stream  # noqa: E402
from mmsentry.radar_core import RadarConfig, RawBurst  # noqa: E402
from mmsentry.transdope import model as tdmodel  # noqa: E402

CFG = RadarConfig()


def _samples(seed=0):
    rng = np.random.default_rng(seed)
    shape = CFG.burst_shape
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)


def test_range_doppler_check():
    samples = _samples()
    values = dsp.process_burst(RawBurst(0, 0, samples.astype(np.complex128))).values
    checks.check_range_doppler(samples, values)
    bad = values.copy()
    bad[3, 5, 1] *= 1 + 1e-7
    with pytest.raises(CheckFailed):
        checks.check_range_doppler(samples, bad)
    with pytest.raises(CheckFailed):  # Doppler axis left unshifted
        checks.check_range_doppler(samples, np.fft.ifftshift(values, axes=1))


def test_decoded_check():
    samples = _samples()
    raw = stream.encode_frame(
        stream.WireFrame(stream.KIND_BURST, 0, 0, stream.encode_burst_payload(RawBurst(0, 0, samples)))
    )
    frame = stream.decode_frame(raw)
    decoded = stream.decode_burst_payload(frame.payload, CFG, 0, 0).data
    checks.check_decoded(samples, decoded)
    bad = decoded.copy()
    bad[1, 2, 0] += 1e-3j
    with pytest.raises(CheckFailed):
        checks.check_decoded(samples, bad)
    with pytest.raises(CheckFailed):
        checks.check_decoded(samples, decoded[:, ::-1])


def test_window_prob_check():
    arch = tdmodel.TransDopeConfig(seq_len=3, range_bins=8, doppler_bins=4, channels=3,
                                   conv_filters=4, embed_dim=8, heads=2, encoder_layers=1)
    model = tdmodel.TransDopeModel.initialize(arch, seed=3)
    frames = np.random.default_rng(4).uniform(0, 50, size=(5, *arch.frame_shape))
    sliding = tdmodel.SlidingClassifier(model)
    probs = [p for p in (sliding.push(f) for f in frames) if p is not None]
    windows = np.stack([frames[i : i + 3] for i in range(3)])
    reference = tdmodel.forward_batch(windows, model)
    checks.check_window_probs(probs, reference)
    with pytest.raises(CheckFailed):
        checks.check_window_probs(np.add(probs, [0.0, 1e-6, 0.0]), reference)
    with pytest.raises(CheckFailed):  # outside [0, 1] even where the reference agrees
        checks.check_window_probs([1.5], [1.5])


def test_window_count_check():
    checks.check_window_count(100, 93, 8)
    for windows in (92, 94, 100):
        with pytest.raises(CheckFailed):
            checks.check_window_count(100, windows, 8)


def test_all_counted_check():
    checks.check_all_counted(50, 50, 50)
    with pytest.raises(CheckFailed):
        checks.check_all_counted(50, 50, 49)
    with pytest.raises(CheckFailed):
        checks.check_all_counted(50, 49, 49)


def test_detection_id_check():
    good = [(last - 7, last) for last in range(7, 20)]
    checks.check_detection_ids(good, 20, 8)
    with pytest.raises(CheckFailed):  # a window missing
        checks.check_detection_ids(good[:5] + good[6:], 20, 8)
    with pytest.raises(CheckFailed):  # the last window missing
        checks.check_detection_ids(good[:-1], 20, 8)
    with pytest.raises(CheckFailed):  # a window of the wrong length
        checks.check_detection_ids(good[:3] + [(good[3][0] + 1, good[3][1])] + good[4:], 20, 8)


def test_counters_zero_check():
    stats = stream.ConsumerStats(frames=10, bursts=9, configs=1, detections=2)
    checks.check_counters_zero(stats)
    for name in checks.ZERO_COUNTERS:
        with pytest.raises(CheckFailed):
            checks.check_counters_zero(replace(stats, **{name: 1}))


def test_gradient_check():
    descended, finite_diff = train_recipe.gradient_pair(train_recipe.GRAD_SEED)
    checks.check_gradient(descended, finite_diff)
    name = next(iter(descended))
    bad = dict(descended)
    bad[name] = descended[name] * (1 + 1e-3)
    with pytest.raises(CheckFailed):
        checks.check_gradient(bad, finite_diff)
    with pytest.raises(CheckFailed):  # the sign of an ascent step
        checks.check_gradient({k: -v for k, v in descended.items()}, finite_diff)


def test_loss_falls_check():
    checks.check_loss_falls([5.0, 9.0, 0.1])
    with pytest.raises(CheckFailed):
        checks.check_loss_falls([0.5, 0.1, 0.5])


def test_evaluate_check():
    probs = np.array([0.9, 0.2, 0.6, 0.4])
    labels = np.array([1, 0, 0, 0])
    checks.check_evaluate(0.75, probs, labels)
    with pytest.raises(CheckFailed):
        checks.check_evaluate(1.0, probs, labels)
