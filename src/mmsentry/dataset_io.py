"""Binary dataset files of labeled range-Doppler sequences.

Layout (all integers little-endian):

    magic   4 bytes  b"ARDS"
    version u32      currently 1
    count   u32      number of records
    T       u16      frames per record
    N       u16      range bins
    P       u16      doppler bins
    C       u16      channels
    records count * (u8 label + T*N*P*C float32 values)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"ARDS"
VERSION = 1
_HEADER = struct.Struct("<4sIIHHHH")


class DatasetFormatError(ValueError):
    """Raised when a dataset file is malformed or inconsistent."""


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: float32 sequences (S, T, N, P, C) plus uint8 labels (S,)."""

    sequences: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.sequences.ndim != 5:
            raise DatasetFormatError(
                f"sequences must be 5-D (S, T, N, P, C), got shape {self.sequences.shape}"
            )
        if self.labels.shape != (self.sequences.shape[0],):
            raise DatasetFormatError("labels length must match the number of sequences")

    def __len__(self) -> int:
        return self.sequences.shape[0]

    @property
    def seq_len(self) -> int:
        return self.sequences.shape[1]

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        return self.sequences.shape[2:]

    def frames(self) -> "tuple[np.ndarray, np.ndarray]":
        """Flatten sequences into single frames with inherited labels."""
        s, t = self.sequences.shape[:2]
        flat = self.sequences.reshape(s * t, *self.sequences.shape[2:])
        labels = np.repeat(self.labels, t)
        return flat, labels


class DatasetWriter:
    """Incremental writer for record-at-a-time generation."""

    def __init__(self, path: str | Path, seq_len: int, frame_shape: tuple[int, int, int]):
        self._path = Path(path)
        self._seq_len = seq_len
        self._frame_shape = tuple(frame_shape)
        self._count = 0
        self._fh = open(self._path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, seq_len, *self._frame_shape))

    def append(self, sequence: np.ndarray, label: int):
        sequence = np.asarray(sequence, dtype="<f4")
        expected = (self._seq_len, *self._frame_shape)
        if sequence.shape != expected:
            raise DatasetFormatError(
                f"record shape {sequence.shape} does not match header {expected}"
            )
        self._fh.write(bytes([int(label)]))
        self._fh.write(sequence.tobytes())
        self._count += 1

    def close(self):
        # patch the record count into the header
        self._fh.seek(8)
        self._fh.write(struct.pack("<I", self._count))
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_dataset(path: str | Path) -> Dataset:
    """Load a dataset file, validating the header and total size."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DatasetFormatError(f"{path}: file shorter than the header")
    magic, version, count, t, n, p, c = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    record_bytes = 1 + t * n * p * c * 4
    expected = _HEADER.size + count * record_bytes
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: size {len(raw)} does not match {count} records ({expected} bytes)"
        )
    labels = np.empty(count, dtype=np.uint8)
    sequences = np.empty((count, t, n, p, c), dtype=np.float32)
    offset = _HEADER.size
    for i in range(count):
        labels[i] = raw[offset]
        offset += 1
        sequences[i] = np.frombuffer(
            raw, dtype="<f4", count=t * n * p * c, offset=offset
        ).reshape(t, n, p, c)
        offset += record_bytes - 1
    return Dataset(sequences=sequences, labels=labels)
