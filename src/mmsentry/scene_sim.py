"""Synthetic scenes of point scatterers standing in for live radar hardware.

The signal model is the idealized post-mixing beat signal: each scatterer
contributes a separable complex exponential at its fractional (range bin,
doppler bin), so the FFT chain recovers it bin-for-bin.  All randomness comes
from seeded PCG64 generators; platform-default RNGs are never used.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset_io, dsp
from .radar_core import RadarConfig, RawBurst, max_range, physical_to_bins

PRESETS = (
    "empty",
    "person",
    "person_with_metal",
    "crowd_with_accessories",
    "crowd_one_metal",
)

# Amplitude bands for the three reflector classes (dimensionless reflectivity).
BODY_AMPLITUDE = (0.2, 0.6)
METAL_AMPLITUDE = (1.5, 2.5)
ACCESSORY_AMPLITUDE = (0.05, 0.15)

DEFAULT_NOISE_STD = 0.05
CROWD_SIZE = 5
_HORIZON_MARGIN = 0.02


class SceneError(ValueError):
    """Raised when a scene cannot be synthesized under the given config."""


def rng_from_seed(*seed_parts: int) -> np.random.Generator:
    """Seeded PCG64 generator; the package-wide RNG."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(seed_parts))))


@dataclass(frozen=True)
class Scatterer:
    """A point reflector: range, radial velocity (positive toward the radar),
    reflectivity, and per-channel phase offsets."""

    range_m: float
    velocity_mps: float
    amplitude: float
    channel_phases: tuple[float, ...]
    is_metal: bool = False

    def __post_init__(self):
        if self.range_m < 0.0:
            raise SceneError(f"scatterer range must be >= 0, got {self.range_m}")
        if self.amplitude < 0.0:
            raise SceneError(f"scatterer amplitude must be >= 0, got {self.amplitude}")
        object.__setattr__(self, "channel_phases", tuple(float(p) for p in self.channel_phases))

    def range_at(self, t: float) -> float:
        return self.range_m + self.velocity_mps * t


@dataclass(frozen=True)
class Scene:
    """A collection of scatterers plus noise level and noise seed."""

    scatterers: tuple[Scatterer, ...]
    noise_std: float = DEFAULT_NOISE_STD
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if self.noise_std < 0.0:
            raise SceneError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.rng_seed < 0:
            raise SceneError(f"rng_seed must be >= 0, got {self.rng_seed}")

    @property
    def label(self) -> int:
        """Class label: 1 if any scatterer is metal, else 0."""
        return int(any(s.is_metal for s in self.scatterers))


def synthesize_burst(
    scene: Scene,
    config: RadarConfig,
    t: float,
    burst_id: int | None = None,
) -> RawBurst:
    """Render one burst of the scene at time ``t`` [s].

    Each scatterer contributes
    ``A * exp(2j*pi*b*n/N) * exp(2j*pi*d*p/P) * exp(1j*phi_c)`` at its
    fractional bins (b, d) for the range advanced by ``velocity * t``.  Noise
    is complex Gaussian with total standard deviation ``noise_std`` per
    sample, drawn from a PCG64 stream keyed by (rng_seed, burst_id), so the
    same (scene, config, t, burst_id) always yields identical bytes.
    """
    p_chirps, n_samples, channels = config.burst_shape
    if burst_id is None:
        burst_id = int(round(t * config.burst_rate_hz))
    if burst_id < 0:
        raise SceneError(f"burst_id must be >= 0, got {burst_id}")

    r_max = max_range(config)
    rng = rng_from_seed(scene.rng_seed, burst_id)

    n_axis = np.arange(n_samples)
    p_axis = np.arange(p_chirps)
    data = np.zeros((p_chirps, n_samples, channels), dtype=np.complex128)

    for index, scatterer in enumerate(scene.scatterers):
        if len(scatterer.channel_phases) != channels:
            raise SceneError(
                f"scatterer {index} has {len(scatterer.channel_phases)} channel "
                f"phases, config has {channels} channels"
            )
        r_t = scatterer.range_at(t)
        if not (0.0 <= r_t < r_max):
            raise SceneError(
                f"scatterer {index} left the unambiguous span at t={t}: "
                f"range {r_t:.4f} m outside [0, {r_max:.4f}) m"
            )
        b, d = physical_to_bins(r_t, scatterer.velocity_mps, config)
        fast = np.exp(2j * np.pi * b * n_axis / n_samples)
        slow = np.exp(2j * np.pi * d * p_axis / p_chirps)
        chan = scatterer.amplitude * np.exp(1j * np.asarray(scatterer.channel_phases))
        data += slow[:, None, None] * fast[None, :, None] * chan[None, None, :]

    if scene.noise_std > 0.0:
        sigma = scene.noise_std / np.sqrt(2.0)
        noise = rng.normal(0.0, sigma, size=(p_chirps, n_samples, channels, 2))
        data += noise[..., 0] + 1j * noise[..., 1]

    timestamp_us = int(round(t * 1e6))
    return RawBurst(burst_id=burst_id, timestamp_us=timestamp_us, data=data)


def _person_cluster(
    rng: np.random.Generator,
    config: RadarConfig,
    with_metal: bool = False,
    with_accessories: bool = False,
) -> list[Scatterer]:
    r_max = max_range(config)
    channels = config.channels
    v_scale = min(1.0, 0.8 * config.max_velocity_mps)

    center = rng.uniform(0.10 * r_max, 0.45 * r_max)
    base_velocity = rng.uniform(-0.8, 0.8) * v_scale

    def place(spread: float) -> float:
        # body extent is absolute (meters); short-range configs need the clamp
        return float(np.clip(center + rng.uniform(-spread, spread),
                             0.02 * r_max, 0.98 * r_max))

    scatterers = []
    count = int(rng.integers(5, 11))
    for _ in range(count):
        scatterers.append(
            Scatterer(
                range_m=place(0.15),
                velocity_mps=base_velocity + rng.uniform(-0.2, 0.2) * v_scale,
                amplitude=rng.uniform(*BODY_AMPLITUDE),
                channel_phases=tuple(rng.uniform(0.0, 2.0 * np.pi, channels)),
            )
        )
    if with_accessories:
        for _ in range(int(rng.integers(1, 4))):
            scatterers.append(
                Scatterer(
                    range_m=place(0.1),
                    velocity_mps=base_velocity + rng.uniform(-0.1, 0.1) * v_scale,
                    amplitude=rng.uniform(*ACCESSORY_AMPLITUDE),
                    channel_phases=tuple(rng.uniform(0.0, 2.0 * np.pi, channels)),
                )
            )
    if with_metal:
        scatterers.append(
            Scatterer(
                range_m=place(0.05),
                velocity_mps=base_velocity + rng.uniform(-0.05, 0.05) * v_scale,
                amplitude=rng.uniform(*METAL_AMPLITUDE),
                channel_phases=tuple(rng.uniform(0.0, 2.0 * np.pi, channels)),
                is_metal=True,
            )
        )
    return scatterers


def make_scene(
    preset: str,
    seed: int,
    config: RadarConfig | None = None,
    noise_std: float = DEFAULT_NOISE_STD,
) -> Scene:
    """Build a scene from a named preset.

    ``person`` is a cluster of 5-10 body scatterers with walking velocities
    (|v| <= 1 m/s); metal variants add one co-located high-amplitude
    scatterer; accessory variants add 1-3 weak scatterers per person.  Crowd
    presets place five independent clusters.
    """
    config = config or RadarConfig()
    rng = rng_from_seed(seed)

    scatterers: list[Scatterer] = []
    if preset == "empty":
        pass
    elif preset == "person":
        scatterers += _person_cluster(rng, config)
    elif preset == "person_with_metal":
        scatterers += _person_cluster(rng, config, with_metal=True)
    elif preset == "crowd_with_accessories":
        for _ in range(CROWD_SIZE):
            scatterers += _person_cluster(rng, config, with_accessories=True)
    elif preset == "crowd_one_metal":
        for i in range(CROWD_SIZE):
            scatterers += _person_cluster(rng, config, with_metal=(i == 0))
    else:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")

    return Scene(scatterers=tuple(scatterers), noise_std=noise_std, rng_seed=seed)


def scene_horizon_s(scene: Scene, config: RadarConfig) -> float:
    """Seconds until any scatterer drifts within ``_HORIZON_MARGIN * max_range``
    of a range boundary.  Long-running producers restart the scene before this.
    """
    r_max = max_range(config)
    lo, hi = _HORIZON_MARGIN * r_max, (1.0 - _HORIZON_MARGIN) * r_max
    horizon = float("inf")
    for s in scene.scatterers:
        if s.velocity_mps > 0.0:
            horizon = min(horizon, (hi - s.range_m) / s.velocity_mps)
        elif s.velocity_mps < 0.0:
            horizon = min(horizon, (lo - s.range_m) / s.velocity_mps)
    return max(horizon, 1.0 / config.burst_rate_hz)


def _lone_metal_scene(seed: int, config: RadarConfig, noise_std: float) -> Scene:
    # positive counterpart of the "empty" preset: a bare metal reflector
    rng = rng_from_seed(seed)
    r_max = max_range(config)
    v_scale = min(1.0, 0.8 * config.max_velocity_mps)
    scatterer = Scatterer(
        range_m=rng.uniform(0.10 * r_max, 0.45 * r_max),
        velocity_mps=rng.uniform(-0.5, 0.5) * v_scale,
        amplitude=rng.uniform(*METAL_AMPLITUDE),
        channel_phases=tuple(rng.uniform(0.0, 2.0 * np.pi, config.channels)),
        is_metal=True,
    )
    return Scene(scatterers=(scatterer,), noise_std=noise_std, rng_seed=seed)


# For balanced generation each preset maps to a (metal-absent, metal-present)
# pair of scene constructions.
_TWINS = {
    "empty": ("empty", None),
    "person": ("person", "person_with_metal"),
    "person_with_metal": ("person", "person_with_metal"),
    "crowd_with_accessories": ("crowd_with_accessories", "crowd_one_metal"),
    "crowd_one_metal": ("crowd_with_accessories", "crowd_one_metal"),
}


def scene_for_label(
    preset: str,
    label: int,
    seed: int,
    config: RadarConfig | None = None,
    noise_std: float = DEFAULT_NOISE_STD,
) -> Scene:
    """The metal-present (label 1) or metal-absent (label 0) twin of a preset."""
    config = config or RadarConfig()
    if preset not in _TWINS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    negative, positive = _TWINS[preset]
    if label == 0:
        return make_scene(negative, seed, config, noise_std)
    if positive is None:
        return _lone_metal_scene(seed, config, noise_std)
    return make_scene(positive, seed, config, noise_std)


def generate_dataset(
    preset: str,
    frames: int,
    config: RadarConfig | None = None,
    seed: int = 0,
    out_path: str | Path = "dataset.ards",
    seq_len: int = 8,
    noise_std: float = DEFAULT_NOISE_STD,
) -> Path:
    """Write ``frames`` labeled range-Doppler sequences to ``out_path``.

    Labels alternate negative/positive, so even counts are balanced exactly
    50/50.  Record ``i`` uses a fresh scene seeded from the master seed;
    its ``seq_len`` bursts are taken at the burst rate and run through the
    full signal chain.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    config = config or RadarConfig()
    master = rng_from_seed(seed)
    duration = (seq_len - 1) / config.burst_rate_hz

    with dataset_io.DatasetWriter(out_path, seq_len, config.ard_shape) as writer:
        for i in range(frames):
            label = i % 2
            # redraw scenes whose scatterers would drift out mid-sequence
            for _ in range(1000):
                scene = scene_for_label(
                    preset, label, int(master.integers(0, 2**63)), config, noise_std
                )
                if scene_horizon_s(scene, config) > duration:
                    break
            else:
                raise SceneError(
                    f"no {preset!r} scene stays in span for {seq_len} bursts"
                )
            sequence = np.empty((seq_len, *config.ard_shape), dtype=np.float32)
            for k in range(seq_len):
                t = k / config.burst_rate_hz
                burst = synthesize_burst(scene, config, t, burst_id=i * seq_len + k)
                sequence[k] = dsp.process_burst(burst).values
            writer.append(sequence, label)
    return Path(out_path)
