"""Benchmark harness: stage statistics, report invariants, small runs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mmsentry.bench import BenchReport, StageStats, machine_descriptor, run_bench
from mmsentry.radar_core import RadarConfig
from mmsentry.transdope import TransDopeConfig, TransDopeModel

SMALL = RadarConfig(chirps_per_burst=4, samples_per_chirp=8, channels=1)


def small_model():
    cfg = TransDopeConfig(
        seq_len=8, range_bins=8, doppler_bins=4, channels=1,
        conv_filters=4, embed_dim=8, heads=2, encoder_layers=1,
    )
    return TransDopeModel.initialize(cfg, seed=0)


def test_stage_stats_from_samples():
    stats = StageStats.from_samples("decode", [1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.min_us == 1.0
    assert stats.max_us == 4.0
    assert stats.mean_us == 2.5
    assert stats.min_us <= stats.p95_us <= stats.max_us
    stats.validate()


def test_stage_stats_reject_empty_and_disorder():
    with pytest.raises(ValueError):
        StageStats.from_samples("dsp", [])
    broken = StageStats(name="dsp", count=1, min_us=5.0, mean_us=1.0,
                        p95_us=2.0, max_us=3.0)
    with pytest.raises(ValueError):
        broken.validate()


def test_stage_stats_accept_mean_above_p95():
    # one stall among 100 samples lifts the mean above p95
    stats = StageStats.from_samples("decode", [100.0] * 99 + [1e5])
    assert stats.mean_us > stats.p95_us
    stats.validate()


def test_stage_stats_accept_equal_samples():
    # the float mean of three 0.1s is one ulp above 0.1
    assert np.mean([0.1] * 3) > 0.1
    stats = StageStats.from_samples("decode", [0.1] * 3)
    assert stats.mean_us == stats.max_us == 0.1
    stats.validate()


def test_stage_stats_reject_mean_outside_range():
    broken = StageStats(name="dsp", count=2, min_us=1.0, mean_us=4.0,
                        p95_us=2.0, max_us=3.0)
    with pytest.raises(ValueError, match="not ordered"):
        broken.validate()


def test_machine_descriptor_mentions_cores():
    assert "cores" in machine_descriptor()


def report_with(total_mean, stage_mean, throughput=100.0):
    stage = lambda name, mean: StageStats(name, 10, mean, mean, mean, mean)
    return BenchReport(
        machine="test", bursts=10, throughput_bps=throughput,
        drops=0,
        decode=stage("decode", stage_mean),
        dsp=stage("dsp", stage_mean),
        inference=stage("inference", stage_mean),
        total=stage("total", total_mean),
        batch1_ms=1.0, batch2_ms=2.0, batch_ratio=2.0, per_frame_ms=0.125,
    )


def test_report_requires_stage_sum_to_match_total():
    report_with(total_mean=300.0, stage_mean=100.0).validate()
    with pytest.raises(ValueError, match="stage means"):
        report_with(total_mean=400.0, stage_mean=100.0).validate()
    with pytest.raises(ValueError, match="throughput"):
        report_with(total_mean=300.0, stage_mean=100.0, throughput=0.0).validate()


def test_run_bench_serial_report():
    report = run_bench(small_model(), bursts=60, config=SMALL, seed=3)
    assert report.bursts == 60
    assert report.decode.count == 60
    assert report.dsp.count == 60
    assert report.inference.count == 60
    assert report.throughput_bps > 0.0
    assert report.batch_ratio == report.batch2_ms / report.batch1_ms
    assert report.per_frame_ms == report.batch1_ms / 8

    text = report.to_text()
    keys = dict(line.split("=", 1) for line in text.splitlines())
    assert keys["bursts"] == "60"
    assert float(keys["throughput_bps"]) > 0.0
    assert "total_p95_us" in keys
    assert "batch_ratio" in keys


def test_run_bench_rejects_mismatched_model():
    with pytest.raises(ValueError, match="do not fit"):
        run_bench(small_model(), bursts=10, config=RadarConfig())
    with pytest.raises(ValueError, match="bursts"):
        run_bench(small_model(), bursts=0, config=SMALL)


def test_perfbench_traced_functions_exist():
    """Every function perfbench/tracing.py wraps by name still exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_path, owner_name, attr, name in tracing.TRACED:
        module = importlib.import_module(module_path)
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone from {module_path}"
