"""Acceptance gate: nine release criteria, one printed verdict line each.

Every test computes its result, emits ``ACCEPTANCE n: PASS|FAIL (...)`` on
the real stdout so the lines survive pytest's capture, then asserts the same
condition.  Tolerances and runtime budgets are pinned here on purpose; do
not loosen them to make a regression green.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

import conftest

from mmsentry import bench, dsp, scene_sim, stream
from mmsentry.dataset_io import read_dataset
from mmsentry.radar_core import (
    RadarConfig,
    RawBurst,
    bins_to_physical,
    max_range,
    range_resolution,
)
from mmsentry.transdope import (
    TrainConfig,
    TransDopeConfig,
    TransDopeModel,
    apply_pretrained,
    evaluate,
    layers,
    param_count,
    pretrain_time_convs,
    save_model,
    train,
)
from mmsentry.transdope.model import _backward_batch, _forward_batch

from oracles import oracle_crd, oracle_range_profile

CFG = RadarConfig()


def _verdict(criterion: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)  # live under -s, captured otherwise
    conftest.record_verdict(line)  # replayed after the run by the summary hook
    return line


# ---------------------------------------------------------------------------
# Shared generators; criterion 9 reruns these to prove the artifacts repeat.


def _chain_crds(count: int, seed: int, config: RadarConfig):
    """(burst, range profile, CRD) from the fast chain for seeded noise bursts."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        data = rng.normal(size=config.burst_shape) + 1j * rng.normal(
            size=config.burst_shape
        )
        burst = RawBurst(burst_id=i, timestamp_us=0, data=data)
        rp = dsp.range_profile(burst, config)
        yield burst, rp, dsp.complex_range_doppler(rp)


def _lone_scatterer_frames(count: int, seed: int, config: RadarConfig):
    """(b, d, amplitude, ARD values) for random integer-bin lone scatterers."""
    rng = np.random.default_rng(seed)
    n, p, _ = config.ard_shape
    for _ in range(count):
        b = int(rng.integers(1, n - 1))
        d = int(rng.integers(1 - p // 2, p // 2))
        amp = float(rng.uniform(0.5, 2.0))
        range_m, velocity = bins_to_physical(b, d, config)
        scene = scene_sim.Scene(
            scatterers=(
                scene_sim.Scatterer(range_m, velocity, amp, (0.0,) * config.channels),
            ),
            noise_std=0.0,
        )
        burst = scene_sim.synthesize_burst(scene, config, t=0.0, burst_id=0)
        yield b, d, amp, dsp.process_burst(burst, config).values


GRAD_CHECK = TransDopeConfig(
    seq_len=2,
    range_bins=8,
    doppler_bins=4,
    channels=3,
    conv_filters=8,
    embed_dim=16,
    heads=2,
    encoder_layers=2,
)


def _grad_check_inputs():
    model = TransDopeModel.initialize(GRAD_CHECK, seed=50)
    rng = np.random.default_rng(51)
    x = rng.normal(size=(2, GRAD_CHECK.seq_len, *GRAD_CHECK.frame_shape))
    y = np.array([1.0, 0.0])
    return model, x, y


def _loss_and_grads(model, x, y):
    logits, caches = _forward_batch(x, model, with_cache=True)
    loss, dlogits = layers.bce_with_logits(logits, y)
    return loss, _backward_batch(dlogits, caches, model)


def _loss_only(model, x, y):
    logits, _ = _forward_batch(x, model, with_cache=False)
    loss, _ = layers.bce_with_logits(logits, y)
    return loss


# ---------------------------------------------------------------------------
# 1. Configuration fidelity


def test_criterion_1_config_fidelity():
    rr = range_resolution(CFG)
    rmax = max_range(CFG)
    rr_dev = abs(rr - 0.15) / 0.15
    rmax_dev = abs(rmax - 9.6) / 9.6
    ok = rr_dev <= 1e-3 and rmax_dev <= 1e-3
    line = _verdict(
        1,
        ok,
        f"range resolution {rr:.9f} m (dev {rr_dev:.1e}), "
        f"max range {rmax:.6f} m (dev {rmax_dev:.1e})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. FFT chain against the brute-force DFT oracle


def test_criterion_2_chain_matches_dft_oracle():
    n, p, _ = CFG.ard_shape
    t0 = time.perf_counter()
    worst_chain = 0.0
    worst_parseval = 0.0
    for burst, rp, crd in _chain_crds(100, seed=2, config=CFG):
        ref_rp = oracle_range_profile(burst.data)
        ref_crd = oracle_crd(ref_rp)
        worst_chain = max(
            worst_chain,
            float(np.max(np.abs(rp.data - ref_rp) / np.abs(ref_rp))),
            float(np.max(np.abs(crd.data - ref_crd) / np.abs(ref_crd))),
        )
        for ch in range(CFG.channels):
            e_time = np.sum(np.abs(burst.data[:, :, ch]) ** 2)
            e_freq = np.sum(np.abs(crd.data[:, :, ch]) ** 2)
            worst_parseval = max(
                worst_parseval, abs(e_freq - n * p * e_time) / (n * p * e_time)
            )
    elapsed = time.perf_counter() - t0
    ok = worst_chain < 1e-9 and worst_parseval < 1e-9 and elapsed < 10.0
    line = _verdict(
        2,
        ok,
        f"100 bursts: chain vs DFT rel err {worst_chain:.1e}, "
        f"Parseval {worst_parseval:.1e}, {elapsed:.1f} s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3. Integer-bin scatterers land exactly where they should


def test_criterion_3_integer_bin_placement():
    n, p, _ = CFG.ard_shape
    t0 = time.perf_counter()
    all_exact = True
    worst_peak = 0.0
    for b, d, amp, values in _lone_scatterer_frames(50, seed=3, config=CFG):
        for ch in range(CFG.channels):
            plane = values[:, :, ch]
            peak = np.unravel_index(np.argmax(plane), plane.shape)
            all_exact = all_exact and peak == (b, d + p // 2)
            worst_peak = max(
                worst_peak, abs(plane[peak] - amp * n * p) / (amp * n * p)
            )
    elapsed = time.perf_counter() - t0
    ok = all_exact and worst_peak < 1e-6 and elapsed < 5.0
    line = _verdict(
        3,
        ok,
        f"50 scatterers x {CFG.channels} channels: argmax exact={all_exact}, "
        f"peak rel err {worst_peak:.1e}, {elapsed:.1f} s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. Wire protocol: codec identity, clean soak, calibrated backpressure


def _capture_file(path, config, count=64, seed=4):
    rng = np.random.default_rng(seed)
    blobs = [
        stream.encode_frame(
            stream.WireFrame(
                kind=stream.KIND_CONFIG,
                burst_id=0,
                timestamp_us=0,
                payload=stream.encode_config_payload(config),
            )
        )
    ]
    for i in range(count):
        data = rng.standard_normal(config.burst_shape) + 1j * rng.standard_normal(
            config.burst_shape
        )
        payload = stream.encode_burst_payload(RawBurst(i, i * 40_000, data))
        blobs.append(
            stream.encode_frame(
                stream.WireFrame(
                    kind=stream.KIND_BURST,
                    burst_id=i,
                    timestamp_us=i * 40_000,
                    payload=payload,
                )
            )
        )
    path.write_bytes(b"".join(blobs))
    return path


def _producer_thread(source, rate_hz, max_bursts, sndbuf=None):
    producer = stream.BurstProducer(
        source,
        endpoint="127.0.0.1:0",
        rate_hz=rate_hz,
        max_bursts=max_bursts,
        sndbuf=sndbuf,
    )
    producer.bind()
    thread = threading.Thread(target=producer.serve, daemon=True)
    thread.start()
    return producer, thread, f"127.0.0.1:{producer.bound_port}"


def test_criterion_4_protocol_soundness(tmp_path):
    t0 = time.perf_counter()

    rng = np.random.default_rng(40)
    codec_ok = True
    for _ in range(1000):
        frame = stream.WireFrame(
            kind=int(rng.integers(1, 4)),
            burst_id=int(rng.integers(0, 1 << 32)),
            timestamp_us=int(rng.integers(0, 1 << 63)),
            payload=rng.bytes(int(rng.integers(0, 2049))),
        )
        codec_ok = codec_ok and stream.decode_frame(stream.encode_frame(frame)) == frame

    # flat-out lossless soak: replayed capture, no pacing, no model
    capture = _capture_file(tmp_path / "capture.mmse", config=CFG)
    producer, thread, endpoint = _producer_thread(
        stream.ReplaySource(capture, CFG), rate_hz=0.0, max_bursts=10_000
    )
    consumer = stream.BurstConsumer(endpoint)
    list(consumer.detections(max_bursts=10_000))
    consumer.close()
    thread.join(timeout=60)
    soak = consumer.stats
    soak_ok = (
        soak.bursts == 10_000
        and soak.crc_errors == 0
        and soak.other_errors == 0
        and soak.order_regressions == 0
    )

    # paced producer + 1 s consumer stall; small socket buffers so the
    # depth-1 drop-oldest slot, not the kernel, absorbs the backlog
    producer2, thread2, endpoint2 = _producer_thread(
        stream.ReplaySource(capture, CFG), rate_hz=25.0, max_bursts=90, sndbuf=8192
    )
    consumer2 = stream.BurstConsumer(endpoint2, rcvbuf=8192)
    stalled = False

    def stall_once(stats):
        nonlocal stalled
        if not stalled and stats.bursts == 20:
            stalled = True
            time.sleep(1.0)

    list(consumer2.detections(pause_hook=stall_once))
    consumer2.close()
    thread2.join(timeout=60)
    drops = producer2.stats.dropped
    drops_ok = 22 <= drops <= 28

    elapsed = time.perf_counter() - t0
    ok = codec_ok and soak_ok and drops_ok and elapsed < 120.0
    line = _verdict(
        4,
        ok,
        f"1000-frame codec ok={codec_ok}; soak {soak.bursts} bursts, "
        f"crc errors {soak.crc_errors}, order regressions {soak.order_regressions}; "
        f"stall drops {drops} (want 25 +/- 3); {elapsed:.0f} s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 5. Analytic gradients against central finite differences, every group


def test_criterion_5_gradients_match_finite_differences():
    t0 = time.perf_counter()
    model, x, y = _grad_check_inputs()
    _, grads = _loss_and_grads(model, x, y)
    eps = 1e-4
    worst_name = ""
    worst = 0.0
    for name, tensor in model.params.items():
        flat = tensor.ravel()
        fd = np.empty(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = _loss_only(model, x, y)
            flat[i] = keep - eps
            lo = _loss_only(model, x, y)
            flat[i] = keep
            fd[i] = (hi - lo) / (2.0 * eps)
        fd = fd.reshape(tensor.shape)
        # the 1e-6 floor keeps exactly-invariant groups (key biases cancel
        # inside softmax) from amplifying FD rounding noise into an error
        scale = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)), 1e-6)
        rel = float(np.max(np.abs(grads[name] - fd) / scale))
        if rel > worst:
            worst_name, worst = name, rel
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    line = _verdict(
        5,
        ok,
        f"{param_count(model)} params in {len(model.params)} groups, "
        f"worst group {worst_name} rel err {worst:.1e}, {elapsed:.0f} s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. Parameter bookkeeping


def _closed_form_param_count(cfg: TransDopeConfig) -> int:
    k, c, f = cfg.conv_kernel, cfg.channels, cfg.conv_filters
    d, kf = cfg.embed_dim, cfg.ffn_conv_kernel
    feat = (cfg.range_bins // 4) * (cfg.doppler_bins // 4) * f
    conv = (k * k * c * f + f) + (k * k * f * f + f)
    embed = feat * d + d
    per_layer = 4 * (d * d + d) + (kf * d * d + d) + 4 * d
    return conv + embed + cfg.encoder_layers * per_layer + (d + 1)


def test_criterion_6_parameter_audit():
    model = TransDopeModel.initialize(TransDopeConfig(), seed=0)
    reported = param_count(model)
    closed = _closed_form_param_count(model.config)
    ok = reported == closed and 560_000 <= reported <= 1_040_000
    line = _verdict(
        6,
        ok,
        f"default model {reported} params, closed form {closed}, "
        f"band [560000, 1040000]",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 7. End-to-end learning on synthetic scenes


def _holdout_split(dataset, holdout: int, seed: int):
    order = np.random.default_rng(seed).permutation(len(dataset))
    x, y = dataset.sequences, dataset.labels
    fit, held = order[:-holdout], order[-holdout:]
    return (x[fit], y[fit]), (x[held], y[held])


@pytest.mark.slow
def test_criterion_7_synthetic_learning(tmp_path):
    t0 = time.perf_counter()
    arch = TransDopeConfig()
    pre_path = scene_sim.generate_dataset(
        "person_with_metal",
        frames=1875,
        config=CFG,
        seed=71,
        out_path=tmp_path / "pretrain.ards",
        seq_len=arch.seq_len,
    )
    fine_path = scene_sim.generate_dataset(
        "person_with_metal",
        frames=400,
        config=CFG,
        seed=72,
        out_path=tmp_path / "train.ards",
        seq_len=arch.seq_len,
    )
    frames = read_dataset(pre_path).frames()  # 1875 sequences x 8 = 15000 frames
    pretrained = pretrain_time_convs(
        frames, TrainConfig(epochs=10, batch_size=64, lr0=3e-2, seed=73), config=arch
    )
    model = apply_pretrained(TransDopeModel.initialize(arch, seed=74), pretrained)
    fit_set, held_set = _holdout_split(read_dataset(fine_path), holdout=100, seed=75)
    train(model, fit_set, TrainConfig(epochs=50, batch_size=8, lr0=1e-2, seed=76))
    accuracy = evaluate(model, held_set)
    elapsed = time.perf_counter() - t0
    ok = accuracy >= 0.95 and elapsed <= 1800.0
    line = _verdict(
        7,
        ok,
        f"pretrain 15000 frames, fine-tune 50 epochs on 300 sequences: "
        f"held-out accuracy {accuracy:.3f} over 100, {elapsed / 60.0:.1f} min",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. Real-time budget on the in-process pipeline


def test_criterion_8_realtime_budget():
    t0 = time.perf_counter()
    model = TransDopeModel.initialize(TransDopeConfig(), seed=0)
    report = bench.run_bench(model, bursts=10_000, config=CFG, seed=7)
    elapsed = time.perf_counter() - t0
    ok = (
        report.throughput_bps >= 25.0
        and report.total.p95_us < 40_000.0
        and 1.6 <= report.batch_ratio <= 2.4
        and elapsed < 600.0
    )
    line = _verdict(
        8,
        ok,
        f"{report.throughput_bps:.0f} bursts/s over {report.bursts}, "
        f"total p95 {report.total.p95_us / 1000.0:.1f} ms, "
        f"batch ratio {report.batch_ratio:.2f}, "
        f"per frame {report.per_frame_ms:.2f} ms (reported), {elapsed:.0f} s",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. Determinism of the seeded artifacts above


def _chain_digest(count: int, seed: int, config: RadarConfig) -> str:
    digest = hashlib.sha256()
    for _, _, crd in _chain_crds(count, seed, config):
        digest.update(crd.data.tobytes())
    return digest.hexdigest()


def _scatter_digest(count: int, seed: int, config: RadarConfig) -> str:
    digest = hashlib.sha256()
    for b, d, amp, values in _lone_scatterer_frames(count, seed, config):
        digest.update(np.int64(b).tobytes())
        digest.update(np.int64(d).tobytes())
        digest.update(np.float64(amp).tobytes())
        digest.update(values.tobytes())
    return digest.hexdigest()


def _gradient_digest() -> str:
    model, x, y = _grad_check_inputs()
    _, grads = _loss_and_grads(model, x, y)
    digest = hashlib.sha256()
    for name in sorted(grads):
        digest.update(name.encode())
        digest.update(grads[name].tobytes())
    return digest.hexdigest()


def _trained_twin_digest(workdir, tag: str) -> str:
    """Checkpoint digest from a scaled-down pass of the criterion 7 recipe."""
    arch = TransDopeConfig(seq_len=4, conv_filters=8, embed_dim=32, encoder_layers=1)
    data = read_dataset(
        scene_sim.generate_dataset(
            "person_with_metal",
            frames=24,
            config=CFG,
            seed=91,
            out_path=workdir / f"twin-{tag}.ards",
            seq_len=arch.seq_len,
        )
    )
    pretrained = pretrain_time_convs(
        data.frames(), TrainConfig(epochs=2, batch_size=16, lr0=3e-2, seed=92),
        config=arch,
    )
    model = apply_pretrained(TransDopeModel.initialize(arch, seed=93), pretrained)
    train(model, data, TrainConfig(epochs=3, batch_size=8, lr0=1e-2, seed=94))
    path = save_model(model, workdir / f"twin-{tag}.tdop")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    chain_ok = _chain_digest(100, 2, CFG) == _chain_digest(100, 2, CFG)
    scatter_ok = _scatter_digest(50, 3, CFG) == _scatter_digest(50, 3, CFG)
    grad_ok = _gradient_digest() == _gradient_digest()
    twin = _trained_twin_digest(tmp_path, "a")
    train_ok = twin == _trained_twin_digest(tmp_path, "b")
    elapsed = time.perf_counter() - t0
    ok = chain_ok and scatter_ok and grad_ok and train_ok
    line = _verdict(
        9,
        ok,
        f"seeded reruns bit-identical: chain={chain_ok} scatterers={scatter_ok} "
        f"gradients={grad_ok} training={train_ok} ({twin[:12]}), {elapsed:.0f} s",
    )
    assert ok, line
