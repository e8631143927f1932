"""Print sha256 prefixes of outputs that a bit-identity claim must keep.

    PYTHONPATH=src python tests/digests.py

Run it in two checkouts and compare the lines: a change that claims the
same bytes must print the same digests.  Each line is a name and the first
16 hex digits of the sha256 over the output's bytes.  Not collected by
pytest (no ``test_`` prefix); the recipes are fixed, so never reseed them.

- ``pr5_*``: the default-config model ``initialize(seed=3)`` on inputs
  uniform(0, 50) shaped (4, 8, 64, 16, 3) from PCG64(SeedSequence(11)):
  ``forward_batch``, the 25 window probabilities of pushing the 32 frames
  through a ``SlidingClassifier``, and ``_backward_batch``'s gradients for
  labels [1, 0, 1, 0], in sorted name order.
- ``dataset``: the file ``generate_dataset("person_with_metal", 12, seed=4)``
  writes.
- ``tiny_*_training``: the TINY config of ``tests/test_transdope.py``; 32
  sequences uniform(0, 1) from PCG64(SeedSequence(5)), odd ones +0.5 and
  labelled 1; ``pretrain_time_convs`` 5 epochs B=16 lr0 3e-2 seed 1 on their
  frames, ``apply_pretrained`` into ``initialize(seed=2)``, ``train`` 5 epochs
  B=8 lr0 1e-2 seed 3; every parameter in declaration order, then the
  fine-tune losses.  Once on float64 inputs and once on float32 inputs,
  which train in float32.
- ``recipe_round_float32``: one round of ``perfbench/``'s ``train_recipe``
  at its batch shapes on a small float32 ``.ards`` set, the file
  ``generate_dataset("person_with_metal", 38, seed=6)`` writes (default
  ``TransDopeConfig``): ``pretrain_time_convs`` 1 epoch B=64 lr0 3e-2 seed 7
  on the 80 frames of its first 10 sequences, ``apply_pretrained`` into
  ``initialize(seed=7)``, ``train`` 2 epochs B=8 lr0 1e-2 seed 7 on the
  next 12, then the logits ``evaluate`` computes at B=16 on the last 16;
  every parameter in declaration order, then the pretrain and fine-tune
  losses, then those logits.  Its batches run 1 to 8 chunks of the conv
  stack.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from mmsentry import dataset_io, scene_sim
from mmsentry.transdope import layers
from mmsentry.transdope.model import (
    SlidingClassifier,
    TransDopeConfig,
    TransDopeModel,
    _backward_batch,
    _forward_batch,
    forward_batch,
)
from mmsentry.transdope.training import TrainConfig, apply_pretrained, pretrain_time_convs, train

TINY = TransDopeConfig(
    seq_len=2, range_bins=8, doppler_bins=4, channels=2,
    conv_filters=4, embed_dim=8, heads=2, encoder_layers=2,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def uniform(seed: int, low: float, high: float, shape) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.uniform(low, high, size=shape)


def pr5_recipe() -> dict[str, str]:
    cfg = TransDopeConfig()
    model = TransDopeModel.initialize(cfg, seed=3)
    x = uniform(11, 0.0, 50.0, (4, cfg.seq_len, *cfg.frame_shape))
    clf = SlidingClassifier(model)
    pushed = [clf.push(frame) for frame in x.reshape(-1, *cfg.frame_shape)]
    logits, caches = _forward_batch(x, model, with_cache=True)
    _, dlogits = layers.bce_with_logits(logits, np.array([1.0, 0.0, 1.0, 0.0]))
    grads = _backward_batch(dlogits, caches, model)
    return {
        "pr5_forward_batch": digest(forward_batch(x, model)),
        "pr5_push_probs": digest(np.array([p for p in pushed if p is not None])),
        "pr5_backward_batch": digest(*(grads[name] for name in sorted(grads))),
    }


def dataset() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = scene_sim.generate_dataset(
            "person_with_metal", 12, seed=4, out_path=Path(tmp) / "d.ards"
        )
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def tiny_training(dtype) -> str:
    x = uniform(5, 0.0, 1.0, (32, TINY.seq_len, *TINY.frame_shape))
    x[1::2] += 0.5
    y = (np.arange(32) % 2).astype(np.float64)
    x = x.astype(dtype)
    frames = x.reshape(-1, *TINY.frame_shape)
    pre = pretrain_time_convs(
        (frames, np.repeat(y, TINY.seq_len)),
        TrainConfig(epochs=5, batch_size=16, lr0=3e-2, seed=1),
        TINY,
    )
    model = apply_pretrained(TransDopeModel.initialize(TINY, seed=2), pre)
    model, history = train(model, (x, y), TrainConfig(epochs=5, batch_size=8, lr0=1e-2, seed=3))
    return digest(*model.params.values(), np.array([e.loss for e in history]))


def recipe_round_float32() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        data = dataset_io.read_dataset(
            scene_sim.generate_dataset("person_with_metal", 38, seed=6, out_path=Path(tmp) / "r.ards")
        )
    x, y = data.sequences, data.labels
    assert x.dtype == np.float32
    arch = TransDopeConfig()
    pre = pretrain_time_convs(
        (x[:10].reshape(-1, *arch.frame_shape), np.repeat(y[:10], arch.seq_len)),
        TrainConfig(epochs=1, batch_size=64, lr0=3e-2, seed=7),
        arch,
    )
    model = apply_pretrained(TransDopeModel.initialize(arch, seed=7), pre)
    fit = (x[10:22], y[10:22])
    model, history = train(model, fit, TrainConfig(epochs=2, batch_size=8, lr0=1e-2, seed=7))
    held, _ = _forward_batch(x[22:], model, with_cache=False)
    losses = [e.loss for e in pre.history + history]
    return digest(*model.params.values(), np.array(losses), held)


def main():
    digests = {
        **pr5_recipe(),
        "dataset": dataset(),
        "tiny_float64_training": tiny_training(np.float64),
        "tiny_float32_training": tiny_training(np.float32),
        "recipe_round_float32": recipe_round_float32(),
    }
    for name, value in digests.items():
        print(f"{name:24s}{value}")


if __name__ == "__main__":
    main()
