"""Command-line front end.

Subcommands: generate (synthetic dataset), train (pretrain + fine-tune),
infer (batch classify a dataset), produce / consume (live streaming pair),
bench (latency/throughput report).  A plain ``key=value`` text file passed
via --config overrides radar defaults for generate, produce and bench; every
command that draws random numbers is deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import dataset_io, scene_sim, stream
from .radar_core import RadarConfig
from .transdope import checkpoint as ckpt
from .transdope import model as model_ops
from .transdope import training as train_ops


def load_radar_config(path: str | Path | None) -> RadarConfig:
    """RadarConfig from a key=value file; unknown keys are hard errors."""
    if path is None:
        return RadarConfig()
    fields = {f.name: f.type for f in dataclasses.fields(RadarConfig)}
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown radar setting {key!r}")
        caster = int if key in ("chirps_per_burst", "samples_per_chirp", "channels") else float
        overrides[key] = caster(value)
    return RadarConfig(**overrides)


def _csv_out(path: str | None):
    """The file CSV rows go to: ``path``, or stdout when it is omitted or "-"."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=7, help="deterministic RNG seed")
    parser.add_argument("--config", default=None, help="key=value radar config file")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    if args.frames <= 0:
        args.parser.error("--frames must be a positive integer")
    config = load_radar_config(args.config)
    path = scene_sim.generate_dataset(
        preset=args.preset,
        frames=args.frames,
        config=config,
        seed=args.seed,
        out_path=args.out,
        seq_len=args.seq_len,
        noise_std=args.noise_std,
    )
    ds = dataset_io.read_dataset(path)
    positives = int(ds.labels.sum())
    print(f"wrote {path}: {len(ds)} sequences of {ds.seq_len} frames, {positives} positive")
    return 0


# ---------------------------------------------------------------------------
# train


def _split_holdout(ds: dataset_io.Dataset, fraction: float, seed: int):
    count = len(ds)
    held = int(round(count * fraction))
    order = scene_sim.rng_from_seed(seed, 4242).permutation(count)
    train_idx, held_idx = order[: count - held], order[count - held :]
    pick = lambda idx: dataset_io.Dataset(ds.sequences[idx], ds.labels[idx])
    return pick(np.sort(train_idx)), pick(np.sort(held_idx))


def cmd_train(args) -> int:
    ds = dataset_io.read_dataset(args.data)
    n, p, c = ds.frame_shape
    arch = model_ops.TransDopeConfig(
        seq_len=ds.seq_len, range_bins=n, doppler_bins=p, channels=c
    )
    model = model_ops.TransDopeModel.initialize(arch, seed=args.seed)

    if args.pretrain_data and Path(args.pretrain_data).exists():
        pre_ds = dataset_io.read_dataset(args.pretrain_data)
        pre_cfg = train_ops.TrainConfig(
            epochs=args.pretrain_epochs,
            batch_size=args.pretrain_batch,
            lr0=args.pretrain_lr,
            seed=args.seed,
        )
        result = train_ops.pretrain_time_convs(pre_ds, pre_cfg, config=arch)
        train_ops.apply_pretrained(model, result)
        print(
            f"pretrained convs on {len(pre_ds) * pre_ds.seq_len} frames: "
            f"loss {result.history[0].loss:.4f} -> {result.history[-1].loss:.4f}"
        )
    else:
        if args.pretrain_data:
            print(
                f"warning: pretrain dataset {args.pretrain_data} not found; "
                "training from scratch",
                file=sys.stderr,
            )
        else:
            print("warning: no pretrain dataset given; training from scratch", file=sys.stderr)

    holdout = None
    if args.holdout > 0:
        ds, holdout = _split_holdout(ds, args.holdout, args.seed)

    cfg = train_ops.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, lr0=args.lr, seed=args.seed
    )
    model, history = train_ops.train(model, ds, cfg)

    history_path = Path(args.history or f"{args.out}.history.csv")
    with open(history_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "loss", "accuracy", "forward_s", "backward_s", "update_s"])
        for h in history:
            writer.writerow([
                h.epoch, f"{h.lr:.6g}", f"{h.loss:.6f}", f"{h.accuracy:.4f}",
                f"{h.forward_s:.6f}", f"{h.backward_s:.6f}", f"{h.update_s:.6f}",
            ])

    ckpt.save_model(model, args.out)
    line = f"saved {args.out}; train accuracy {history[-1].accuracy:.3f}"
    if holdout is not None:
        line += f", held-out accuracy {train_ops.evaluate(model, holdout):.3f}"
    print(line)
    print(f"history: {history_path} ({len(history)} epochs)")
    return 0


# ---------------------------------------------------------------------------
# infer


def cmd_infer(args) -> int:
    model = ckpt.load_model(args.model)
    ds = dataset_io.read_dataset(args.data)
    probabilities = []
    for start in range(0, len(ds), 16):
        batch = ds.sequences[start : start + 16].astype(np.float64)
        probabilities.extend(model_ops.forward_batch(batch, model))
    rows = [
        (i, int(ds.labels[i]), f"{p:.6f}", int(p >= 0.5))
        for i, p in enumerate(probabilities)
    ]
    with _csv_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "probability", "decision"])
        writer.writerows(rows)
    correct = sum(1 for r in rows if r[1] == r[3])
    print(f"accuracy {correct / len(rows):.3f} over {len(rows)} sequences", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# produce / consume


def cmd_produce(args) -> int:
    config = load_radar_config(args.config)
    if args.replay:
        source = stream.ReplaySource(args.replay, config)
    else:
        source = stream.SceneSource(args.preset, args.seed, config)
    producer = stream.BurstProducer(
        source, endpoint=args.endpoint, rate_hz=args.rate, max_bursts=args.max_bursts
    )
    producer.serve()
    s = producer.stats
    print(
        f"produced {s.sent} bursts ({s.dropped} dropped, {s.late} late, "
        f"worst lag {s.max_late_us} us, {s.reconnects} reconnects)"
    )
    return 0


def cmd_consume(args) -> int:
    model = ckpt.load_model(args.model) if args.model else None
    consumer = stream.BurstConsumer(args.endpoint, model=model)
    try:
        with _csv_out(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(["burst_id", "probability", "decision", "latency_us"])
            for det in consumer.detections(max_bursts=args.max_bursts):
                writer.writerow(
                    [det.last_burst_id, f"{det.probability:.6f}", det.decision, det.latency_us]
                )
    finally:
        consumer.close()
    counters = dataclasses.asdict(consumer.stats)
    print(" ".join(f"{name}={value}" for name, value in counters.items()), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    config = load_radar_config(args.config)
    model = ckpt.load_model(args.model)
    report = bench_mod.run_bench(model, bursts=args.bursts, config=config, seed=args.seed)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsentry",
        description="Synthetic mm-wave burst pipeline: simulate, train, stream, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a labeled synthetic dataset")
    g.add_argument("--preset", choices=scene_sim.PRESETS, default="person_with_metal")
    g.add_argument("--frames", type=int, required=True, help="number of sequences")
    g.add_argument("--out", required=True)
    g.add_argument("--seq-len", type=int, default=8)
    g.add_argument("--noise-std", type=float, default=scene_sim.DEFAULT_NOISE_STD)
    _add_common(g)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="pretrain convs, fine-tune, save a checkpoint")
    t.add_argument("--data", required=True, help="sequence dataset file")
    t.add_argument("--pretrain-data", default=None, help="single-frame pretrain dataset")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--history", default=None, help="history CSV path")
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--batch", type=int, default=8)
    t.add_argument("--lr", type=float, default=1e-2)
    t.add_argument("--pretrain-epochs", type=int, default=10)
    t.add_argument("--pretrain-batch", type=int, default=64)
    t.add_argument("--pretrain-lr", type=float, default=3e-2)
    t.add_argument("--holdout", type=float, default=0.0, help="held-out fraction")
    t.add_argument("--seed", type=int, default=7, help="deterministic RNG seed")
    t.set_defaults(func=cmd_train)

    i = sub.add_parser("infer", help="classify every sequence in a dataset")
    i.add_argument("--model", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--out", default=None, help="CSV path (default stdout)")
    i.set_defaults(func=cmd_infer)

    p = sub.add_parser("produce", help="serve bursts over TCP")
    p.add_argument("--preset", choices=scene_sim.PRESETS, default="crowd_one_metal")
    p.add_argument("--replay", default=None, help="capture file to replay instead")
    p.add_argument("--endpoint", default="127.0.0.1:9017")
    p.add_argument("--rate", type=float, default=25.0, help="bursts/s; 0 = lossless max rate")
    p.add_argument("--max-bursts", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_produce)

    c = sub.add_parser("consume", help="classify a live burst stream")
    c.add_argument("--endpoint", default="127.0.0.1:9017")
    c.add_argument("--model", default=None, help="checkpoint path (omit for decode-only)")
    c.add_argument("--out", default=None, help="detections CSV path (default stdout)")
    c.add_argument("--max-bursts", type=int, default=None)
    c.set_defaults(func=cmd_consume)

    b = sub.add_parser("bench", help="measure pipeline latency and throughput")
    b.add_argument("--model", required=True)
    b.add_argument("--bursts", type=int, default=10_000)
    b.add_argument("--out", default=None, help="write the report here too")
    _add_common(b)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
