"""Scene presets, the beat-signal model, and dataset generation."""

import numpy as np
import pytest

from mmsentry import dataset_io, dsp, scene_sim
from mmsentry.radar_core import RadarConfig, max_range
from mmsentry.scene_sim import (
    BODY_AMPLITUDE,
    METAL_AMPLITUDE,
    Scatterer,
    Scene,
    SceneError,
    make_scene,
    scene_for_label,
    scene_horizon_s,
    synthesize_burst,
)

CFG = RadarConfig()


def lone_scatterer(b=10, d=0, amplitude=1.0, channels=3, metal=False):
    rr = scene_sim.max_range(CFG) / CFG.samples_per_chirp
    return Scatterer(
        range_m=b * rr,
        velocity_mps=d * CFG.velocity_per_bin_mps,
        amplitude=amplitude,
        channel_phases=(0.0,) * channels,
        is_metal=metal,
    )


def test_empty_noiseless_scene_is_silent():
    scene = Scene(scatterers=(), noise_std=0.0, rng_seed=1)
    burst = synthesize_burst(scene, CFG, t=0.0)
    assert np.all(burst.data == 0.0)


def test_single_scatterer_closed_form():
    scene = Scene(scatterers=(lone_scatterer(b=10, d=0),), noise_std=0.0, rng_seed=0)
    burst = synthesize_burst(scene, CFG, t=0.0)
    n = CFG.samples_per_chirp
    expected_chirp = np.exp(2j * np.pi * 10 * np.arange(n) / n)
    for p in range(CFG.chirps_per_burst):
        for c in range(CFG.channels):
            assert np.allclose(burst.data[p, :, c], expected_chirp, atol=1e-12)


def test_superposition_is_exact():
    s1 = lone_scatterer(b=5, d=2, amplitude=0.7)
    s2 = lone_scatterer(b=40, d=-3, amplitude=1.3)
    alone_1 = synthesize_burst(Scene((s1,), 0.0, 9), CFG, 0.0)
    alone_2 = synthesize_burst(Scene((s2,), 0.0, 9), CFG, 0.0)
    both = synthesize_burst(Scene((s1, s2), 0.0, 9), CFG, 0.0)
    assert np.allclose(both.data, alone_1.data + alone_2.data, atol=1e-12)


def test_determinism_and_noise_keying():
    scene = make_scene("person", seed=77, config=CFG)
    a = synthesize_burst(scene, CFG, t=0.12, burst_id=3)
    b = synthesize_burst(scene, CFG, t=0.12, burst_id=3)
    assert a.data.tobytes() == b.data.tobytes()
    c = synthesize_burst(scene, CFG, t=0.12, burst_id=4)
    assert a.data.tobytes() != c.data.tobytes()


def test_integer_bin_scatterer_ard_peak():
    # noiseless integer-bin target: unique argmax at (b, d + P/2), peak A*N*P
    n, p, _ = CFG.ard_shape
    b, d, amp = 23, 4, 1.7
    scene = Scene((lone_scatterer(b=b, d=d, amplitude=amp),), 0.0, 0)
    frame = dsp.process_burst(synthesize_burst(scene, CFG, 0.0))
    for ch in range(CFG.channels):
        idx = np.unravel_index(np.argmax(frame.values[:, :, ch]), (n, p))
        assert idx == (b, d + p // 2)
        assert frame.values[b, d + p // 2, ch] == pytest.approx(amp * n * p, rel=1e-9)


def test_scatterer_leaving_span_names_the_culprit():
    fast = Scatterer(
        range_m=0.95 * max_range(CFG),
        velocity_mps=2.0,
        amplitude=1.0,
        channel_phases=(0.0, 0.0, 0.0),
    )
    scene = Scene((lone_scatterer(), fast), 0.0, 0)
    with pytest.raises(SceneError, match="scatterer 1"):
        synthesize_burst(scene, CFG, t=1.0)


def test_preset_empty():
    scene = make_scene("empty", seed=5, config=CFG)
    assert scene.scatterers == ()
    assert scene.label == 0


def metal_count(scene):
    return sum(s.is_metal for s in scene.scatterers)


@pytest.mark.parametrize("seed", range(8))
def test_preset_person(seed):
    scene = make_scene("person", seed=seed, config=CFG)
    assert 5 <= len(scene.scatterers) <= 10
    assert scene.label == 0
    assert metal_count(scene) == 0
    for s in scene.scatterers:
        assert BODY_AMPLITUDE[0] <= s.amplitude <= BODY_AMPLITUDE[1]
        assert abs(s.velocity_mps) <= 1.0
        assert 0.0 < s.range_m < max_range(CFG)
        assert len(s.channel_phases) == CFG.channels


@pytest.mark.parametrize("seed", range(8))
def test_preset_person_with_metal(seed):
    scene = make_scene("person_with_metal", seed=seed, config=CFG)
    assert scene.label == 1
    assert metal_count(scene) == 1
    metal = [s for s in scene.scatterers if s.is_metal][0]
    assert METAL_AMPLITUDE[0] <= metal.amplitude <= METAL_AMPLITUDE[1]
    bodies = [s for s in scene.scatterers if not s.is_metal]
    # co-located with its carrier cluster
    assert min(abs(metal.range_m - s.range_m) for s in bodies) < 0.5


@pytest.mark.parametrize("seed", range(8))
def test_preset_crowd_one_metal(seed):
    scene = make_scene("crowd_one_metal", seed=seed, config=CFG)
    assert scene.label == 1
    assert metal_count(scene) == 1
    assert 26 <= len(scene.scatterers) <= 51


@pytest.mark.parametrize("seed", range(8))
def test_preset_crowd_with_accessories(seed):
    scene = make_scene("crowd_with_accessories", seed=seed, config=CFG)
    assert scene.label == 0
    assert metal_count(scene) == 0
    # five clusters of 5-10 bodies plus 1-3 accessories each
    assert 30 <= len(scene.scatterers) <= 65


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        make_scene("hallway", seed=0, config=CFG)


@pytest.mark.parametrize("preset", scene_sim.PRESETS)
def test_scene_for_label_twins(preset):
    for label in (0, 1):
        scene = scene_for_label(preset, label, seed=3, config=CFG)
        assert scene.label == label
        assert (metal_count(scene) > 0) == bool(label)


def test_scene_horizon_allows_synthesis_until_expiry():
    scene = make_scene("crowd_one_metal", seed=12, config=CFG)
    horizon = scene_horizon_s(scene, CFG)
    assert horizon > 0.0
    synthesize_burst(scene, CFG, t=0.0)
    synthesize_burst(scene, CFG, t=horizon * 0.99)


def test_generate_dataset_balanced_and_deterministic(tmp_path):
    path_a = scene_sim.generate_dataset(
        "person_with_metal", frames=6, config=CFG, seed=5, out_path=tmp_path / "a.ards"
    )
    path_b = scene_sim.generate_dataset(
        "person_with_metal", frames=6, config=CFG, seed=5, out_path=tmp_path / "b.ards"
    )
    assert path_a.read_bytes() == path_b.read_bytes()
    ds = dataset_io.read_dataset(path_a)
    assert len(ds) == 6
    assert ds.seq_len == 8
    assert ds.frame_shape == CFG.ard_shape
    assert np.array_equal(ds.labels, [0, 1, 0, 1, 0, 1])
    other_seed = scene_sim.generate_dataset(
        "person_with_metal", frames=6, config=CFG, seed=6, out_path=tmp_path / "c.ards"
    )
    assert path_a.read_bytes() != other_seed.read_bytes()


def test_generate_dataset_two_frames_one_each(tmp_path):
    path = scene_sim.generate_dataset(
        "crowd_one_metal", frames=2, config=CFG, seed=1, out_path=tmp_path / "two.ards"
    )
    ds = dataset_io.read_dataset(path)
    assert sorted(ds.labels.tolist()) == [0, 1]


def test_generate_dataset_rejects_zero_frames(tmp_path):
    with pytest.raises(ValueError):
        scene_sim.generate_dataset(
            "person", frames=0, config=CFG, seed=0, out_path=tmp_path / "zero.ards"
        )


def test_metal_separability_in_ard_peaks():
    # the invented amplitude bands must keep classes separable at the ARD level
    peaks = {0: [], 1: []}
    for seed in range(6):
        for label in (0, 1):
            scene = scene_for_label("person", label, seed=seed, config=CFG)
            frame = dsp.process_burst(synthesize_burst(scene, CFG, 0.0))
            peaks[label].append(frame.values.max())
    assert min(peaks[1]) > max(peaks[0])
