"""Dataset file format: round trips, header policing, incremental writes."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsentry import dataset_io


def small_dataset(rng, s=4, t=2, n=8, p=4, c=3):
    sequences = rng.uniform(0.0, 100.0, size=(s, t, n, p, c)).astype(np.float32)
    labels = (np.arange(s) % 2).astype(np.uint8)
    return sequences, labels


def write(path, sequences, labels):
    with dataset_io.DatasetWriter(path, sequences.shape[1], sequences.shape[2:]) as writer:
        for seq, label in zip(sequences, labels):
            writer.append(seq, int(label))
    return path


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sequences, labels = small_dataset(rng)
    path = write(tmp_path / "d.ards", sequences, labels)
    ds = dataset_io.read_dataset(path)
    assert np.array_equal(ds.sequences, sequences)
    assert np.array_equal(ds.labels, labels)
    assert len(ds) == 4
    assert ds.seq_len == 2
    assert ds.frame_shape == (8, 4, 3)


@settings(max_examples=25, deadline=None)
@given(
    s=st.integers(min_value=1, max_value=5),
    t=st.integers(min_value=1, max_value=4),
    dims=st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_round_trip_property(s, t, dims, seed):
    rng = np.random.default_rng(seed)
    n, p, c = dims
    sequences = rng.uniform(0.0, 10.0, size=(s, t, n, p, c)).astype(np.float32)
    labels = rng.integers(0, 2, size=s).astype(np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "prop.ards", sequences, labels)
        ds = dataset_io.read_dataset(path)
    assert np.array_equal(ds.sequences, sequences)
    assert np.array_equal(ds.labels, labels)


def test_header_fields(tmp_path):
    rng = np.random.default_rng(1)
    sequences, labels = small_dataset(rng)
    path = write(tmp_path / "d.ards", sequences, labels)
    raw = path.read_bytes()
    magic, version, count, t, n, p, c = struct.unpack_from("<4sIIHHHH", raw)
    assert magic == b"ARDS"
    assert version == 1
    assert (count, t, n, p, c) == (4, 2, 8, 4, 3)
    record = 1 + t * n * p * c * 4
    assert len(raw) == 20 + count * record


def test_writer_rejects_wrong_record_shape(tmp_path):
    with dataset_io.DatasetWriter(tmp_path / "w.ards", 2, (8, 4, 3)) as writer:
        with pytest.raises(dataset_io.DatasetFormatError):
            writer.append(np.zeros((2, 8, 4, 2), np.float32), 0)


def test_reader_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    sequences, labels = small_dataset(rng)
    path = write(tmp_path / "d.ards", sequences, labels)
    raw = bytearray(path.read_bytes())

    truncated = tmp_path / "trunc.ards"
    truncated.write_bytes(bytes(raw[:-7]))
    with pytest.raises(dataset_io.DatasetFormatError):
        dataset_io.read_dataset(truncated)

    wrong_magic = tmp_path / "magic.ards"
    wrong_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(dataset_io.DatasetFormatError):
        dataset_io.read_dataset(wrong_magic)

    bad_version = bytearray(raw)
    bad_version[4:8] = struct.pack("<I", 99)
    versioned = tmp_path / "ver.ards"
    versioned.write_bytes(bytes(bad_version))
    with pytest.raises(dataset_io.DatasetFormatError):
        dataset_io.read_dataset(versioned)


def test_frames_flattening():
    rng = np.random.default_rng(4)
    sequences, labels = small_dataset(rng)
    ds = dataset_io.Dataset(sequences=sequences, labels=labels)
    frames, frame_labels = ds.frames()
    assert frames.shape == (8, 8, 4, 3)
    assert np.array_equal(frames[2], sequences[1, 0])
    assert np.array_equal(frame_labels, np.repeat(labels, 2))


def test_dataset_shape_validation():
    with pytest.raises(dataset_io.DatasetFormatError):
        dataset_io.Dataset(sequences=np.zeros((2, 3, 4, 5)), labels=np.zeros(2, np.uint8))
    with pytest.raises(dataset_io.DatasetFormatError):
        dataset_io.Dataset(
            sequences=np.zeros((2, 3, 4, 5, 1)), labels=np.zeros(3, np.uint8)
        )
