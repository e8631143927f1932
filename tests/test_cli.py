"""End-to-end command-line behavior on a short-range radar configuration."""

import csv
import socket
import threading

import pytest

from mmsentry import cli, dataset_io, stream
from mmsentry.radar_core import RadarConfig
from mmsentry.transdope import load_model

CONFIG_TEXT = """\
# short-range test configuration
chirps_per_burst = 4
samples_per_chirp = 8
channels = 1
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifact chain: config file -> datasets -> checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "radar.cfg"
    cfg.write_text(CONFIG_TEXT)

    data = root / "train.ards"
    rc = cli.main([
        "generate", "--preset", "person_with_metal", "--frames", "6",
        "--out", str(data), "--config", str(cfg), "--seed", "3",
    ])
    assert rc == 0

    pretrain = root / "pre.ards"
    rc = cli.main([
        "generate", "--preset", "person_with_metal", "--frames", "4",
        "--out", str(pretrain), "--seq-len", "2", "--config", str(cfg), "--seed", "4",
    ])
    assert rc == 0

    ckpt = root / "model.tdop"
    rc = cli.main([
        "train", "--data", str(data), "--pretrain-data", str(pretrain),
        "--out", str(ckpt), "--epochs", "2", "--batch", "2",
        "--pretrain-epochs", "1", "--pretrain-batch", "4", "--seed", "1",
    ])
    assert rc == 0
    return {"root": root, "config": cfg, "data": data, "pretrain": pretrain, "ckpt": ckpt}


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Config file parsing


def test_load_radar_config_defaults_and_overrides(tmp_path):
    assert cli.load_radar_config(None) == RadarConfig()
    path = tmp_path / "radar.cfg"
    path.write_text("samples_per_chirp=32\nprf_hz = 4000.0  # faster chirps\n")
    config = cli.load_radar_config(path)
    assert config.samples_per_chirp == 32
    assert config.prf_hz == 4000.0
    assert config.chirps_per_burst == RadarConfig().chirps_per_burst


def test_load_radar_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "radar.cfg"
    path.write_text("sample_count=32\n")
    with pytest.raises(ValueError, match="unknown radar setting"):
        cli.load_radar_config(path)
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key=value"):
        cli.load_radar_config(path)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_balanced_dataset(work, capsys):
    ds = dataset_io.read_dataset(work["data"])
    assert len(ds) == 6
    assert ds.seq_len == 8
    assert ds.frame_shape == (8, 4, 1)  # follows the config file
    assert int(ds.labels.sum()) == 3


def test_generate_rejects_nonpositive_frames(work, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "generate", "--preset", "person", "--frames", "0",
            "--out", str(work["root"] / "zero.ards"),
        ])
    assert exc.value.code == 2
    assert "--frames" in capsys.readouterr().err


def test_generate_rejects_unknown_preset(work, capsys):
    with pytest.raises(SystemExit):
        cli.main([
            "generate", "--preset", "warehouse", "--frames", "2",
            "--out", str(work["root"] / "x.ards"),
        ])


@pytest.mark.parametrize("command, flag", [
    ("train", "--config"),
    ("infer", "--seed"),
    ("infer", "--config"),
    ("consume", "--seed"),
    ("consume", "--config"),
])
def test_commands_reject_options_they_do_not_read(command, flag, capsys):
    required = {
        "train": ["--data", "d.ards", "--out", "m.tdop"],
        "infer": ["--model", "m.tdop", "--data", "d.ards"],
        "consume": [],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, *required, flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(work):
    model = load_model(work["ckpt"])
    assert model.config.seq_len == 8
    assert model.config.frame_shape == (8, 4, 1)

    history = read_csv(f"{work['ckpt']}.history.csv")
    assert history[0] == [
        "epoch", "lr", "loss", "accuracy", "forward_s", "backward_s", "update_s",
    ]
    assert len(history) == 1 + 2  # header + one row per epoch
    assert history[1][0] == "0"
    assert float(history[1][1]) == pytest.approx(1e-2)
    assert all(float(seconds) > 0.0 for row in history[1:] for seconds in row[4:])


def test_train_warns_when_pretrain_data_missing(work, tmp_path, capsys):
    rc = cli.main([
        "train", "--data", str(work["data"]),
        "--pretrain-data", str(tmp_path / "nope.ards"),
        "--out", str(tmp_path / "m.tdop"), "--epochs", "1", "--batch", "2",
        "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "not found" in captured.err
    assert (tmp_path / "m.tdop").exists()


def test_train_without_pretrain_warns_and_supports_holdout(work, tmp_path, capsys):
    rc = cli.main([
        "train", "--data", str(work["data"]),
        "--out", str(tmp_path / "m.tdop"),
        "--history", str(tmp_path / "h.csv"),
        "--epochs", "1", "--batch", "2", "--holdout", "0.34", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "no pretrain dataset" in captured.err
    assert "held-out accuracy" in captured.out
    assert len(read_csv(tmp_path / "h.csv")) == 2


# ---------------------------------------------------------------------------
# infer


def test_infer_writes_decisions(work, tmp_path, capsys):
    out = tmp_path / "preds.csv"
    rc = cli.main([
        "infer", "--model", str(work["ckpt"]), "--data", str(work["data"]),
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["index", "label", "probability", "decision"]
    assert len(rows) == 1 + 6
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert row[1] in ("0", "1")
        assert 0.0 <= float(row[2]) <= 1.0
        assert row[3] == ("1" if float(row[2]) >= 0.5 else "0")
    assert "accuracy" in captured.err


def test_infer_defaults_to_stdout(work, capsys):
    rc = cli.main(["infer", "--model", str(work["ckpt"]), "--data", str(work["data"])])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("index,label,probability,decision")


# ---------------------------------------------------------------------------
# produce / consume


def produce_in_thread(args):
    result = {}

    def run():
        result["rc"] = cli.main(args)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, result


def test_produce_consume_round_trip(work, capsys):
    endpoint = f"127.0.0.1:{free_port()}"
    thread, result = produce_in_thread([
        "produce", "--preset", "person", "--endpoint", endpoint, "--rate", "0",
        "--max-bursts", "12", "--config", str(work["config"]), "--seed", "2",
    ])
    rc = cli.main(["consume", "--endpoint", endpoint, "--max-bursts", "12"])
    thread.join(timeout=15.0)
    captured = capsys.readouterr()
    assert rc == 0
    assert result["rc"] == 0
    assert "bursts=12" in captured.err
    assert "produced 12 bursts (0 dropped, 0 late" in captured.out


def test_consume_with_model_writes_detections(work, tmp_path, capsys):
    endpoint = f"127.0.0.1:{free_port()}"
    thread, result = produce_in_thread([
        "produce", "--preset", "person_with_metal", "--endpoint", endpoint,
        "--rate", "0", "--max-bursts", "10", "--config", str(work["config"]),
        "--seed", "5",
    ])
    out = tmp_path / "dets.csv"
    rc = cli.main([
        "consume", "--endpoint", endpoint, "--model", str(work["ckpt"]),
        "--max-bursts", "10", "--out", str(out),
    ])
    thread.join(timeout=15.0)
    captured = capsys.readouterr()
    assert rc == 0
    assert result["rc"] == 0
    rows = read_csv(out)
    assert rows[0] == ["burst_id", "probability", "decision", "latency_us"]
    assert len(rows) == 1 + 3  # 10 bursts through an 8-frame window
    assert [r[0] for r in rows[1:]] == ["7", "8", "9"]
    summary = captured.err.split()
    assert "detections=3" in summary
    assert "other_errors=0" in summary
    assert "gap_bursts=0" in summary
    assert "unknown_kinds=0" in summary
    assert "config_mismatches=0" in summary


def test_consume_writes_the_same_csv_to_stdout(work, capsys):
    endpoint = f"127.0.0.1:{free_port()}"
    thread, result = produce_in_thread([
        "produce", "--preset", "person_with_metal", "--endpoint", endpoint,
        "--rate", "0", "--max-bursts", "10", "--config", str(work["config"]),
        "--seed", "5",
    ])
    rc = cli.main([
        "consume", "--endpoint", endpoint, "--model", str(work["ckpt"]),
        "--max-bursts", "10",
    ])
    thread.join(timeout=15.0)
    captured = capsys.readouterr()
    assert rc == 0
    assert result["rc"] == 0
    # the producer thread shares stdout; its summary line is not CSV
    lines = [line for line in captured.out.splitlines() if not line.startswith("produced")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["burst_id", "probability", "decision", "latency_us"]
    assert [r[0] for r in rows[1:]] == ["7", "8", "9"]
    for burst_id, probability, decision, latency_us in rows[1:]:
        assert len(probability.split(".")[1]) == 6
        assert decision == ("1" if float(probability) >= 0.5 else "0")
        assert int(latency_us) >= 0


def test_produce_replay_serves_the_named_file(tmp_path, monkeypatch):
    # "empty" is also a scene preset; --replay must still read the file
    scene = stream.SceneSource("person", 1, RadarConfig())
    (tmp_path / "empty").write_bytes(scene.next_payload(0, 0))
    monkeypatch.chdir(tmp_path)
    served = []
    monkeypatch.setattr(stream.BurstProducer, "serve", lambda self: served.append(self.source))
    assert cli.main(["produce", "--replay", "empty"]) == 0
    assert len(served) == 1
    assert isinstance(served[0], stream.ReplaySource)


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_and_optional_file(work, tmp_path, capsys):
    out = tmp_path / "bench.txt"
    rc = cli.main([
        "bench", "--model", str(work["ckpt"]), "--bursts", "30",
        "--config", str(work["config"]), "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    keys = dict(
        line.split("=", 1) for line in captured.out.strip().splitlines() if "=" in line
    )
    assert keys["bursts"] == "30"
    assert float(keys["throughput_bps"]) > 0.0
    assert out.read_text().strip() == captured.out.strip()
