"""train_recipe: the criterion-7 training recipe at its own shapes, with
less data and fewer epochs.

Set-up writes and reads back two .ards datasets.  The run then repeats
whole rounds of the recipe until the run time is used: pretrain the
convolutions for one epoch on single frames (B=64), copy them into a fresh
model, fine-tune it on sequences (B=8) and evaluate held-out sequences
(B=16).  It is the only workload that runs the backward layers and the SGD
update.

An operation is one round: frames_per_s counts the frames each round
carries through the model (every pretraining frame, every frame of every
fine-tuning epoch and of every held-out sequence) over the rounds' time,
and latency_p50_us is the median round time.  The rates of the three
phases go to stderr.
"""

from __future__ import annotations

import time

import numpy as np

import checks
from inputs import derive_seed
from outcome import Outcome, percentile
from mmsentry import dataset_io, scene_sim
from mmsentry.radar_core import RadarConfig
from mmsentry.transdope import model as tdmodel
from mmsentry.transdope import training

PRESET = "person_with_metal"
PRETRAIN_SEQUENCES = 64  # 512 frames: eight B=64 batches
FIT_SEQUENCES = 16  # two B=8 batches per epoch
HELD_SEQUENCES = 32  # two B=16 batches
# The recipe's lr0 makes the first epochs swing (losses of 1 to 18); by the
# tenth epoch every seed tried had settled below its first-epoch loss.
FINETUNE_EPOCHS = 10
# Gradient check: a small architecture, one full-batch SGD step.
GRAD_ARCH = tdmodel.TransDopeConfig(
    seq_len=2, range_bins=8, doppler_bins=4, channels=3, conv_filters=4,
    embed_dim=8, heads=2, encoder_layers=1,
)
GRAD_LR = 1e-2
GRAD_STEP = 1e-4
GRAD_ENTRIES = 4  # sampled entries per parameter tensor
# A ReLU or max-pool kink within one step of an entry makes its central
# difference meaningless (22 of 300 random draws hit one at step 1e-5), so
# an entry is used only where differences at the step and half the step agree.
SMOOTH_RTOL = 1e-5
SMOOTH_ATOL = 1e-10
# A kink right at an entry passes that filter (both steps straddle it
# evenly) and skews the comparison; 1 of 400 draws tried hit one.  The check
# therefore runs on one fixed draw rather than on the run seed.
GRAD_SEED = 0


def _bce(model, x, y) -> float:
    p = tdmodel.forward_batch(x, model)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def _central_difference(model, x, y, flat, i, step) -> float:
    keep = flat[i]
    flat[i] = keep + step
    hi = _bce(model, x, y)
    flat[i] = keep - step
    lo = _bce(model, x, y)
    flat[i] = keep
    return (hi - lo) / (2.0 * step)


def gradient_pair(seed: int) -> tuple[dict, dict]:
    """The gradient train() descends and its central differences.

    One epoch with the whole set as a single batch makes one SGD step, so
    (before - after) / lr recovers the gradient.  The differences use the
    mean binary cross-entropy of forward_batch probabilities at the weights
    before the step.
    """
    rng = np.random.default_rng([seed, 7])
    x = rng.normal(size=(4, GRAD_ARCH.seq_len, *GRAD_ARCH.frame_shape))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    model = tdmodel.TransDopeModel.initialize(GRAD_ARCH, seed=derive_seed(seed, 8))
    before = {name: p.copy() for name, p in model.params.items()}
    training.train(
        model, (x, y), training.TrainConfig(epochs=1, batch_size=len(y), lr0=GRAD_LR, seed=seed)
    )
    after = model.params
    model.params = {name: p.copy() for name, p in before.items()}

    descended, finite_diff = {}, {}
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        picks, fd = [], []
        for i in rng.permutation(flat.size):
            coarse = _central_difference(model, x, y, flat, i, GRAD_STEP)
            fine = _central_difference(model, x, y, flat, i, GRAD_STEP / 2)
            if abs(coarse - fine) <= SMOOTH_RTOL * max(abs(coarse), abs(fine)) + SMOOTH_ATOL:
                picks.append(i)
                fd.append((4.0 * fine - coarse) / 3.0)  # Richardson: cancels the step**2 term
                if len(picks) == GRAD_ENTRIES:
                    break
        descended[name] = (before[name].reshape(-1)[picks] - after[name].reshape(-1)[picks]) / GRAD_LR
        finite_diff[name] = np.array(fd)
    return descended, finite_diff


def run(seed: int, seconds: float, tracer, workdir) -> Outcome:
    config = RadarConfig()
    arch = tdmodel.TransDopeConfig()
    with tracer.phase("setup"):
        pre = dataset_io.read_dataset(
            scene_sim.generate_dataset(
                PRESET, PRETRAIN_SEQUENCES, config, seed=derive_seed(seed, 3),
                out_path=workdir / "pretrain.ards", seq_len=arch.seq_len,
            )
        )
        fine = dataset_io.read_dataset(
            scene_sim.generate_dataset(
                PRESET, FIT_SEQUENCES + HELD_SEQUENCES, config, seed=derive_seed(seed, 4),
                out_path=workdir / "finetune.ards", seq_len=arch.seq_len,
            )
        )
        frames = pre.frames()
        order = np.random.default_rng([seed, 5]).permutation(len(fine))
        fit = (fine.sequences[order[:FIT_SEQUENCES]], fine.labels[order[:FIT_SEQUENCES]])
        held = (fine.sequences[order[FIT_SEQUENCES:]], fine.labels[order[FIT_SEQUENCES:]])
    setup_end = time.perf_counter()

    phase_s = {"pretrain": 0.0, "finetune": 0.0, "eval": 0.0}
    round_s = []
    histories = []
    rounds = 0
    with tracer.phase("measure"):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            round_seed = derive_seed(seed, 1000 + rounds)
            t0 = time.perf_counter()
            pretrained = training.pretrain_time_convs(
                frames, training.TrainConfig(epochs=1, batch_size=64, lr0=3e-2, seed=round_seed),
                config=arch,
            )
            t1 = time.perf_counter()
            model = training.apply_pretrained(
                tdmodel.TransDopeModel.initialize(arch, seed=round_seed), pretrained
            )
            t2 = time.perf_counter()
            _, history = training.train(
                model, fit,
                training.TrainConfig(epochs=FINETUNE_EPOCHS, batch_size=8, lr0=1e-2, seed=round_seed),
            )
            t3 = time.perf_counter()
            accuracy = training.evaluate(model, held, batch_size=16)
            t4 = time.perf_counter()
            phase_s["pretrain"] += t1 - t0
            phase_s["finetune"] += t3 - t2
            phase_s["eval"] += t4 - t3
            round_s.append(t4 - t0)
            histories.append([h.loss for h in history])
            rounds += 1

    with tracer.phase("check"):
        probs = tdmodel.forward_batch(held[0], model)
    with tracer.paused():
        descended, finite_diff = gradient_pair(GRAD_SEED)
    errors = checks.collect(
        *(lambda h=h: checks.check_loss_falls(h) for h in histories),
        lambda: checks.check_evaluate(accuracy, probs, held[1]),
        lambda: checks.check_gradient(descended, finite_diff),
    )
    frames_per_round = len(frames[0]) + (FINETUNE_EPOCHS * FIT_SEQUENCES + HELD_SEQUENCES) * arch.seq_len
    round_us = [t * 1e6 for t in round_s]
    return Outcome(
        setup_end=setup_end,
        metrics={
            "frames_per_s": rounds * frames_per_round / sum(round_s),
            "latency_p50_us": percentile(round_us, 50),
        },
        attempted=rounds,
        failed=0,
        errors=errors,
        notes={
            "rounds": rounds,
            "pretrain_frames_per_s": rounds * len(frames[0]) / phase_s["pretrain"],
            "finetune_seqs_per_s": rounds * FINETUNE_EPOCHS * FIT_SEQUENCES / phase_s["finetune"],
            "eval_seqs_per_s": rounds * HELD_SEQUENCES / phase_s["eval"],
            "last_accuracy": accuracy,
            "finetune_losses": histories[-1],
        },
    )
