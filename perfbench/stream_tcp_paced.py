"""stream_tcp_paced: an open loop over loopback TCP into BurstConsumer.

generator.py, a separate process, sends the seeded pool at RATE_HZ on a
fixed schedule; this process runs the program's own BurstConsumer with a
model loaded through checkpoint.load_model.  Latency runs from each burst's
due time to the Detection that closes its window, so a stall also counts
against the bursts queued behind it.  At RATE_HZ the consumer is busy about
a third of the time and the layers run cold after each idle gap.

The reported p50 is the median over one-second windows (WINDOW
detections) of each window's p50.  A host that stops this virtual machine
for a moment backs up a second or two of bursts; that moves those windows
and not the run's figure, while a consumer that cannot keep up with the
schedule falls further behind in every window.  The p90 taken the same way
(ten detections beyond it in each window) and whole-run percentiles go to
stderr: the p90 moved with the host (most likely with how long it takes to
wake an idle virtual CPU) by more between runs than any bound allows.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path


import checks
from inputs import burst_pool, derive_seed
from outcome import Outcome, median_of, percentile
from mmsentry import dsp, stream
from mmsentry.radar_core import RadarConfig
from mmsentry.transdope import checkpoint
from mmsentry.transdope import model as tdmodel

RATE_HZ = 100.0  # four 25 Hz sensors
WINDOW = int(RATE_HZ)  # detections per second of schedule
GENERATOR = Path(__file__).resolve().parent / "generator.py"
CONSUMER_COUNTERS = (
    "frames", "bursts", "configs", "detections",
    "crc_errors", "other_errors", "skipped_bursts", "order_regressions",
)
# The per-layer extras of this workload; the other workloads report them as 0.
COUNTER_UNITS = {
    **{f"consumer.{name}": "count" for name in CONSUMER_COUNTERS},
    "generator.late_us_p50": "us",
    "generator.late_us_p99": "us",
}


def _write_capture(path: Path, frames: list[bytes], config: RadarConfig):
    config_frame = stream.WireFrame(
        kind=stream.KIND_CONFIG,
        burst_id=0,
        timestamp_us=0,
        payload=stream.encode_config_payload(config),
    )
    path.write_bytes(stream.encode_frame(config_frame) + b"".join(frames))


def run(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    bursts = int(seconds * RATE_HZ)
    with tracer.phase("setup"):
        config = RadarConfig()
        arch = tdmodel.TransDopeConfig()
        saved = checkpoint.save_model(
            tdmodel.TransDopeModel.initialize(arch, seed=derive_seed(seed, 2)),
            workdir / "model.tdop",
        )
        model = checkpoint.load_model(saved)
        frames, _ = burst_pool(seed, config)
        capture = workdir / "pool.bin"
        _write_capture(capture, frames, config)
        warm = tdmodel.SlidingClassifier(model)
        for raw in frames[: 2 * arch.seq_len]:
            frame = stream.decode_frame(raw)
            burst = stream.decode_burst_payload(
                frame.payload, config, frame.burst_id, frame.timestamp_us
            )
            warm.push(dsp.process_burst(burst).values)
        generator = subprocess.Popen(
            [sys.executable, str(GENERATOR), "--capture", str(capture),
             "--bursts", str(bursts), "--rate", str(RATE_HZ)],
            stdout=subprocess.PIPE,
            text=True,
        )
    try:
        with tracer.phase("setup"):
            port = json.loads(generator.stdout.readline())["port"]
            consumer = stream.BurstConsumer(f"127.0.0.1:{port}", model=model)
            consumer.connect()
        setup_end = time.perf_counter()
        windows = []  # (first id, last id, monotonic ns when the Detection arrived)
        try:
            with tracer.phase("measure"):
                for detection in consumer.detections(max_bursts=bursts):
                    windows.append(
                        (detection.first_burst_id, detection.last_burst_id, time.monotonic_ns())
                    )
        finally:
            consumer.close()
        out, _ = generator.communicate(timeout=60)
    finally:
        if generator.poll() is None:
            generator.kill()
        generator.wait()
    if generator.returncode != 0:
        raise RuntimeError(f"generator exited with code {generator.returncode}")
    report = json.loads(out.strip().splitlines()[-1])

    stats = consumer.stats
    errors = checks.collect(
        lambda: checks.check_all_counted(bursts, report["sent"], stats.bursts),
        lambda: checks.check_detection_ids([w[:2] for w in windows], bursts, arch.seq_len),
        lambda: checks.check_counters_zero(stats),
    )
    t0, period = report["t0_ns"], report["period_ns"]
    latency_us = [(arrived - (t0 + last * period)) / 1e3 for _, last, arrived in windows]
    per_second = [
        latency_us[i : i + WINDOW] for i in range(0, len(latency_us) - WINDOW + 1, WINDOW)
    ] or [latency_us]  # runs shorter than a window
    late_us = [ns / 1e3 for ns in report["late_ns"]]
    counters = {f"consumer.{name}": (getattr(stats, name), "count") for name in CONSUMER_COUNTERS}
    counters["generator.late_us_p50"] = (percentile(late_us, 50), "us")
    counters["generator.late_us_p99"] = (percentile(late_us, 99), "us")
    # Bursts over the schedule's length plus the last latency: just under the
    # send rate while the consumer keeps up, lower when it falls behind.
    frames_per_s = stats.bursts / ((windows[-1][2] - t0 + period) / 1e9)
    return Outcome(
        setup_end=setup_end,
        metrics={
            "frames_per_s": frames_per_s,
            "latency_p50_us": median_of(per_second, 50),
        },
        attempted=bursts,
        failed=bursts - stats.bursts,
        errors=errors,
        counters=counters,
        notes={
            "latency_p90_us": median_of(per_second, 90),
            "run_latency_p50_us": percentile(latency_us, 50),
            "run_latency_p90_us": percentile(latency_us, 90),
            "run_latency_p99_us": percentile(latency_us, 99),
            "second_latency_p90_us": [round(percentile(w, 90)) for w in per_second],
            "generator_late_us_p50": counters["generator.late_us_p50"][0],
            "generator_late_us_p99": counters["generator.late_us_p99"][0],
            "detections": len(windows),
        },
    )
