"""stream_inproc: the detection path in a closed loop on one thread.

Each pre-encoded wire frame goes decode_frame -> decode_burst_payload ->
dsp.process_burst -> SlidingClassifier.push, and the next starts when the
previous returns.  The loop makes whole passes over the pool until the run
time is used, so it measures the capacity of the path with warm caches.

Latency is each burst's time from wire frame to probability.  Its p50 is
taken in each second of the run and the median over the seconds is
reported, as on stream_tcp_paced, so a few slow seconds of the host do not
move it; the p90 taken the same way and whole-run percentiles go to stderr.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

import checks
from inputs import burst_pool, derive_seed
from outcome import Outcome, median_of, percentile
from mmsentry import dsp, stream
from mmsentry.radar_core import RadarConfig
from mmsentry.transdope import model as tdmodel

SAMPLE_BURST_EVERY = 64  # bursts whose DSP output and decode are checked
SAMPLE_WINDOW_EVERY = 128  # windows cross-checked against forward_batch
CHECK_BATCH = 16


def run(seed: int, seconds: float, tracer, workdir) -> Outcome:
    with tracer.phase("setup"):
        config = RadarConfig()
        arch = tdmodel.TransDopeConfig()
        model = tdmodel.TransDopeModel.initialize(arch, seed=derive_seed(seed, 2))
        frames, samples = burst_pool(seed, config)
        warm = tdmodel.SlidingClassifier(model)
        for raw in frames[: 2 * arch.seq_len]:
            frame = stream.decode_frame(raw)
            burst = stream.decode_burst_payload(
                frame.payload, config, frame.burst_id, frame.timestamp_us
            )
            warm.push(dsp.process_burst(burst).values)
    setup_end = time.perf_counter()

    classifier = tdmodel.SlidingClassifier(model)
    recent: deque = deque(maxlen=arch.seq_len)
    latency_ns: list[int] = []
    ended_ns: list[int] = []  # since the loop started, to group latencies by second
    burst_samples = []  # (pool index, decoded samples, ARD values)
    window_samples = []  # (probability, the window's ARD frames)
    windows = 0
    with tracer.phase("measure"):
        wall_start = time.perf_counter_ns()
        deadline = wall_start + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            for index, raw in enumerate(frames):
                t0 = time.perf_counter_ns()
                frame = stream.decode_frame(raw)
                burst = stream.decode_burst_payload(
                    frame.payload, config, frame.burst_id, frame.timestamp_us
                )
                ard = dsp.process_burst(burst)
                probability = classifier.push(ard.values)
                t1 = time.perf_counter_ns()
                latency_ns.append(t1 - t0)
                ended_ns.append(t1 - wall_start)
                recent.append(ard.values)
                if len(latency_ns) % SAMPLE_BURST_EVERY == 1:
                    burst_samples.append((index, burst.data, ard.values))
                if probability is not None:
                    if windows % SAMPLE_WINDOW_EVERY == 0:
                        window_samples.append((probability, tuple(recent)))
                    windows += 1
        wall_s = (time.perf_counter_ns() - wall_start) / 1e9

    bursts = len(latency_ns)
    errors = []
    with tracer.paused():
        for index, decoded, values in burst_samples:
            errors += checks.collect(
                lambda: checks.check_decoded(samples[index], decoded),
                lambda: checks.check_range_doppler(samples[index], values),
            )
        errors += checks.collect(
            lambda: checks.check_window_count(bursts, windows, arch.seq_len)
        )
    with tracer.phase("check"):
        probs = [p for p, _ in window_samples]
        stacked = np.array([np.stack(w) for _, w in window_samples])
        reference = np.concatenate(
            [
                tdmodel.forward_batch(stacked[i : i + CHECK_BATCH], model)
                for i in range(0, len(stacked), CHECK_BATCH)
            ]
        )
        errors += checks.collect(lambda: checks.check_window_probs(probs, reference))

    latency_us = np.asarray(latency_ns) / 1e3
    second = np.asarray(ended_ns) // 1_000_000_000
    per_second = [latency_us[second == s] for s in np.unique(second)]
    return Outcome(
        setup_end=setup_end,
        metrics={
            "frames_per_s": bursts / wall_s,
            "latency_p50_us": median_of(per_second, 50),
        },
        attempted=bursts,
        failed=0,
        errors=errors,
        notes={
            "latency_p90_us": median_of(per_second, 90),
            "run_latency_p50_us": percentile(latency_us, 50),
            "run_latency_p90_us": percentile(latency_us, 90),
            "run_latency_p99_us": percentile(latency_us, 99),
            "second_latency_p50_us": [round(percentile(w, 50)) for w in per_second],
            "windows": windows,
            "checked_bursts": len(burst_samples),
            "checked_windows": len(window_samples),
        },
    )
