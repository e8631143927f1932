"""Seeded inputs shared by the stream workloads.

Every draw comes from ``--seed`` through numpy's SeedSequence, so one seed
always gives the same pool of wire frames, the same model weights and the
same datasets.
"""

from __future__ import annotations

import numpy as np

from mmsentry import scene_sim, stream
from mmsentry.radar_core import RadarConfig

# Every scene preset, so the pool holds empty rooms, single people with and
# without metal, and crowds with and without accessories.
POOL_PRESETS = scene_sim.PRESETS
BURSTS_PER_PRESET = 48


def derive_seed(seed: int, tag: int) -> int:
    """An independent 63-bit seed for one use of the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0] >> 1)


def burst_pool(seed: int, config: RadarConfig) -> tuple[list[bytes], list[np.ndarray]]:
    """Pre-encoded burst frames and the complex64 samples each one carries.

    The presets come in a seeded order, each as a run of consecutive bursts
    from one scene, so windows of the sliding classifier see both steady
    scenes and scene changes.
    """
    order = np.random.default_rng([seed, 1]).permutation(len(POOL_PRESETS))
    frames: list[bytes] = []
    samples: list[np.ndarray] = []
    for k in order:
        scene = scene_sim.make_scene(POOL_PRESETS[k], derive_seed(seed, 100 + int(k)), config)
        horizon = scene_sim.scene_horizon_s(scene, config)
        for i in range(BURSTS_PER_PRESET):
            t = (i / config.burst_rate_hz) % horizon
            burst_id = len(frames)
            burst = scene_sim.synthesize_burst(scene, config, t, burst_id=burst_id)
            frames.append(
                stream.encode_frame(
                    stream.WireFrame(
                        kind=stream.KIND_BURST,
                        burst_id=burst_id,
                        timestamp_us=int(t * 1e6),
                        payload=stream.encode_burst_payload(burst),
                    )
                )
            )
            samples.append(burst.data.astype(np.complex64))
    return frames, samples
