"""In-process latency/throughput benchmark for the burst pipeline.

Feeds pre-encoded wire frames through decode -> range-Doppler DSP ->
inference on one thread and reports per-stage latency percentiles,
sustained throughput, and how inference time scales from one 8-frame
sequence to two (batched in a single call, not two sequential calls).
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import dsp, scene_sim, stream
from .radar_core import RadarConfig
from .transdope.model import SlidingClassifier, TransDopeModel, forward_batch

DEFAULT_POOL = 256


def machine_descriptor() -> str:
    name = platform.machine() or "unknown"
    cores = os.cpu_count() or 1
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    parts = [p for p in (model, name, f"{cores} cores") if p]
    return ", ".join(parts)


@dataclass(frozen=True)
class StageStats:
    name: str
    count: int
    min_us: float
    mean_us: float
    p95_us: float
    max_us: float

    @classmethod
    def from_samples(cls, name: str, samples_us) -> "StageStats":
        arr = np.asarray(samples_us, dtype=np.float64)
        if arr.size == 0:
            raise ValueError(f"stage {name} recorded no samples")
        return cls(
            name=name,
            count=int(arr.size),
            min_us=float(arr.min()),
            # rounding can put the mean of equal samples one ulp above them
            mean_us=float(np.clip(arr.mean(), arr.min(), arr.max())),
            p95_us=float(np.percentile(arr, 95)),
            max_us=float(arr.max()),
        )

    def validate(self):
        # the mean may lie above p95 (one stall among fast samples), so only
        # orders that hold for every sample set are checked
        if not (
            self.max_us >= self.p95_us >= self.min_us >= 0.0
            and self.max_us >= self.mean_us >= self.min_us
        ):
            raise ValueError(f"stage {self.name} stats are not ordered: {self}")


@dataclass(frozen=True)
class BenchReport:
    machine: str
    bursts: int
    throughput_bps: float
    drops: int
    decode: StageStats
    dsp: StageStats
    inference: StageStats
    total: StageStats
    batch1_ms: float
    batch2_ms: float
    batch_ratio: float
    per_frame_ms: float

    def validate(self):
        for stage in (self.decode, self.dsp, self.inference, self.total):
            stage.validate()
        if not self.throughput_bps > 0:
            raise ValueError(f"throughput must be positive, got {self.throughput_bps}")
        # stages are sub-spans of the same walk through each burst
        stage_sum = self.decode.mean_us + self.dsp.mean_us + self.inference.mean_us
        if abs(stage_sum - self.total.mean_us) > 0.05 * self.total.mean_us:
            raise ValueError(
                f"stage means sum to {stage_sum:.1f} us but total is "
                f"{self.total.mean_us:.1f} us"
            )

    def to_text(self) -> str:
        lines = [
            f"machine={self.machine}",
            f"bursts={self.bursts}",
            f"throughput_bps={self.throughput_bps:.2f}",
            f"drops={self.drops}",
        ]
        for stage in (self.decode, self.dsp, self.inference, self.total):
            for metric in ("min_us", "mean_us", "p95_us", "max_us"):
                lines.append(f"{stage.name}_{metric}={getattr(stage, metric):.1f}")
        lines += [
            f"batch1x8_ms={self.batch1_ms:.3f}",
            f"batch2x8_ms={self.batch2_ms:.3f}",
            f"batch_ratio={self.batch_ratio:.3f}",
            f"per_frame_ms={self.per_frame_ms:.3f}",
        ]
        return "\n".join(lines)


def _burst_pool(config: RadarConfig, seed: int, size: int) -> list[bytes]:
    """Encoded wire frames for one scene take, cycled by the feed loop."""
    scene = scene_sim.make_scene("person_with_metal", seed, config)
    horizon = scene_sim.scene_horizon_s(scene, config)
    frames = []
    for i in range(size):
        t = (i / config.burst_rate_hz) % horizon
        burst = scene_sim.synthesize_burst(scene, config, t, burst_id=i)
        frames.append(
            stream.encode_frame(
                stream.WireFrame(
                    kind=stream.KIND_BURST,
                    burst_id=i,
                    timestamp_us=int(t * 1e6),
                    payload=stream.encode_burst_payload(burst),
                )
            )
        )
    return frames


def _decode_stage(raw: bytes, config: RadarConfig):
    frame = stream.decode_frame(raw)
    return stream.decode_burst_payload(
        frame.payload, config, frame.burst_id, frame.timestamp_us
    )


def _measure_batch_scaling(
    model: TransDopeModel, config: RadarConfig, seed: int, reps: int = 30
) -> tuple[float, float]:
    """Median wall time (ms) of a batched forward over 1 and 2 sequences."""
    t = model.config.seq_len
    rng = scene_sim.rng_from_seed(seed, 9090)
    x2 = rng.uniform(0.0, 1.0, size=(2, t, *model.config.frame_shape))
    x1 = x2[:1]
    times = {1: [], 2: []}
    forward_batch(x1, model)  # warm both paths once
    forward_batch(x2, model)
    for _ in range(reps):
        for b, x in ((1, x1), (2, x2)):
            start = time.perf_counter_ns()
            forward_batch(x, model)
            times[b].append(time.perf_counter_ns() - start)
    return (
        float(np.median(times[1])) / 1e6,
        float(np.median(times[2])) / 1e6,
    )


def _run_serial(pool, config, classifier, bursts):
    decode_us, dsp_us, infer_us, total_us = [], [], [], []
    period_us = 1e6 / config.burst_rate_hz
    drops = 0
    wall_start = time.perf_counter_ns()
    for i in range(bursts):
        raw = pool[i % len(pool)]
        t0 = time.perf_counter_ns()
        burst = _decode_stage(raw, config)
        t1 = time.perf_counter_ns()
        frame = dsp.process_burst(burst)
        t2 = time.perf_counter_ns()
        classifier.push(frame.values)
        t3 = time.perf_counter_ns()
        decode_us.append((t1 - t0) / 1e3)
        dsp_us.append((t2 - t1) / 1e3)
        infer_us.append((t3 - t2) / 1e3)
        total_us.append((t3 - t0) / 1e3)
        if t3 - t0 > period_us * 1e3:
            drops += 1
    wall_s = (time.perf_counter_ns() - wall_start) / 1e9
    return decode_us, dsp_us, infer_us, total_us, drops, wall_s


def run_bench(
    model: TransDopeModel,
    bursts: int = 10_000,
    config: RadarConfig | None = None,
    seed: int = 7,
) -> BenchReport:
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    config = config or RadarConfig()
    if config.ard_shape != model.config.frame_shape:
        raise ValueError(
            f"radar frames {config.ard_shape} do not fit model {model.config.frame_shape}"
        )
    pool = _burst_pool(config, seed, min(bursts, DEFAULT_POOL))
    classifier = SlidingClassifier(model)
    # warm caches and fill the window outside the timed region
    for raw in pool[: model.config.seq_len]:
        classifier.push(dsp.process_burst(_decode_stage(raw, config)).values)

    decode_us, dsp_us, infer_us, total_us, drops, wall_s = _run_serial(
        pool, config, classifier, bursts
    )

    batch1_ms, batch2_ms = _measure_batch_scaling(model, config, seed)
    report = BenchReport(
        machine=machine_descriptor(),
        bursts=bursts,
        throughput_bps=bursts / wall_s,
        drops=drops,
        decode=StageStats.from_samples("decode", decode_us),
        dsp=StageStats.from_samples("dsp", dsp_us),
        inference=StageStats.from_samples("inference", infer_us),
        total=StageStats.from_samples("total", total_us),
        batch1_ms=batch1_ms,
        batch2_ms=batch2_ms,
        batch_ratio=batch2_ms / batch1_ms,
        per_frame_ms=batch1_ms / model.config.seq_len,
    )
    report.validate()
    return report
