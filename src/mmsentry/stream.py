"""Length-delimited burst transport over a plain TCP stream.

Frame layout, all integers little-endian:

    offset  size  field
    0       4     magic "MMSE"
    4       2     version (u16)
    6       2     kind (u16): 1=burst, 3=config
    8       4     burst_id (u32)
    12      8     timestamp_us (u64)
    20      4     payload_len (u32)
    24      n     payload
    24+n    4     crc32 (zlib) over header+payload

Burst payloads carry the raw complex samples as interleaved float32 I/Q in
(chirp, sample, channel) order.  The producer never queues more than one
burst: while the socket is blocked, newly generated bursts overwrite the
single pending slot and a drop counter increments (keep-latest, depth 1).
"""

from __future__ import annotations

import csv
import socket
import struct
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, scene_sim
from .radar_core import RadarConfig, RawBurst

MAGIC = b"MMSE"
VERSION = 1

KIND_BURST = 1
KIND_CONFIG = 3  # 2 was a detection kind that nothing sent; do not reuse

_HEADER = struct.Struct("<4sHHIQI")
_CRC = struct.Struct("<I")
_CONFIG_PAYLOAD = struct.Struct("<HHHdddd")

MAX_PAYLOAD = 1 << 26  # corruption guard; a default burst is ~24 KiB


class ProtocolError(ValueError):
    """Base class for malformed wire data."""


class BadMagicError(ProtocolError):
    pass


class BadCrcError(ProtocolError):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class UnsupportedVersionError(ProtocolError):
    pass


@dataclass(frozen=True)
class WireFrame:
    kind: int
    burst_id: int
    timestamp_us: int
    payload: bytes = b""
    version: int = VERSION

    def __post_init__(self):
        if not 0 <= self.kind < 1 << 16:
            raise ValueError(f"kind {self.kind} outside u16 range")
        if not 0 <= self.burst_id < 1 << 32:
            raise ValueError(f"burst_id {self.burst_id} outside u32 range")
        if not 0 <= self.timestamp_us < 1 << 64:
            raise ValueError(f"timestamp_us {self.timestamp_us} outside u64 range")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD}")


@dataclass(frozen=True)
class Detection:
    """One classifier decision covering a window of consecutive bursts."""

    first_burst_id: int
    last_burst_id: int
    probability: float
    decision: int
    latency_us: int

    def __post_init__(self):
        if not (np.isfinite(self.probability) and 0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.first_burst_id > self.last_burst_id:
            raise ValueError("burst id window is reversed")
        if self.decision not in (0, 1):
            raise ValueError(f"decision must be 0 or 1, got {self.decision}")


# ---------------------------------------------------------------------------
# Frame codec


def encode_frame(frame: WireFrame) -> bytes:
    header = _HEADER.pack(
        MAGIC, frame.version, frame.kind, frame.burst_id, frame.timestamp_us, len(frame.payload)
    )
    body = header + frame.payload
    return body + _CRC.pack(zlib.crc32(body))


def _checked_frame(raw: bytes) -> WireFrame:
    """``raw`` is exactly one frame with a checked header: verify its CRC and build it."""
    _, version, kind, burst_id, timestamp_us, _ = _HEADER.unpack_from(raw)
    end = len(raw) - _CRC.size
    (crc_stored,) = _CRC.unpack_from(raw, end)
    if zlib.crc32(raw[:end]) != crc_stored:
        raise BadCrcError(f"crc mismatch on burst_id {burst_id}")
    return WireFrame(
        kind=kind,
        burst_id=burst_id,
        timestamp_us=timestamp_us,
        payload=raw[_HEADER.size : end],
        version=version,
    )


def decode_frame(data: bytes) -> WireFrame:
    """Strict single-frame decode; rejects anything but one whole valid frame."""
    if len(data) < _HEADER.size + _CRC.size:
        raise TruncatedFrameError(f"{len(data)} bytes cannot hold a frame")
    magic, version, _, _, _, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    total = _HEADER.size + payload_len + _CRC.size
    if len(data) < total:
        raise TruncatedFrameError(f"need {total} bytes, have {len(data)}")
    if len(data) > total:
        raise ValueError(f"{len(data) - total} trailing bytes after frame")
    return _checked_frame(data)


class FrameReader:
    """Incremental parser over a byte source with magic-scan resync.

    ``read`` is called with a byte count and must return b"" at EOF (socket
    ``recv`` semantics).  ``read_frame`` returns the next valid frame, None
    at a clean EOF, or raises a ProtocolError; after an error the internal
    buffer is positioned so the next call hunts for the next magic marker.
    """

    def __init__(self, read):
        self._read = read
        self._buf = bytearray()
        self._eof = False

    def _fill(self, n: int) -> bool:
        while len(self._buf) < n and not self._eof:
            chunk = self._read(max(4096, n - len(self._buf)))
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)
        return len(self._buf) >= n

    def _consume(self, n: int) -> bytes:
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def read_frame(self) -> WireFrame | None:
        if not self._fill(len(MAGIC)):
            if self._buf:
                n = len(self._buf)
                self._buf.clear()
                raise TruncatedFrameError(f"{n} stray bytes at end of stream")
            return None
        if self._buf[: len(MAGIC)] != MAGIC:
            idx = bytes(self._buf).find(MAGIC, 1)
            if idx < 0:
                # keep a tail shorter than the marker; it may be a prefix
                keep = 0 if self._eof else len(MAGIC) - 1
                skipped = len(self._buf) - keep
                del self._buf[: len(self._buf) - keep]
            else:
                skipped = idx
                del self._buf[:idx]
            raise BadMagicError(f"skipped {skipped} bytes hunting for magic")
        if not self._fill(_HEADER.size):
            self._buf.clear()
            raise TruncatedFrameError("stream ended inside a frame header")
        _, version, _, _, _, payload_len = _HEADER.unpack_from(self._buf)
        if payload_len > MAX_PAYLOAD:
            self._consume(len(MAGIC))
            raise TruncatedFrameError(f"implausible payload length {payload_len}")
        total = _HEADER.size + payload_len + _CRC.size
        if version != VERSION:
            # length field is plausible, so step over the whole frame
            if self._fill(total):
                self._consume(total)
            else:
                self._buf.clear()
            raise UnsupportedVersionError(f"unsupported version {version}")
        if not self._fill(total):
            self._buf.clear()
            raise TruncatedFrameError("stream ended inside a frame payload")
        return _checked_frame(self._consume(total))


# ---------------------------------------------------------------------------
# Payload codecs


def encode_burst_payload(burst: RawBurst) -> bytes:
    return np.ascontiguousarray(burst.data).astype("<c8").tobytes()


def decode_burst_payload(
    payload: bytes, config: RadarConfig, burst_id: int, timestamp_us: int
) -> RawBurst:
    shape = config.burst_shape
    expected = int(np.prod(shape)) * 8
    if len(payload) != expected:
        raise ValueError(f"burst payload is {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, dtype="<c8").reshape(shape).astype(np.complex128)
    return RawBurst(burst_id=burst_id, timestamp_us=timestamp_us, data=data)


def encode_config_payload(config: RadarConfig) -> bytes:
    return _CONFIG_PAYLOAD.pack(
        config.chirps_per_burst,
        config.samples_per_chirp,
        config.channels,
        config.prf_hz,
        config.burst_rate_hz,
        config.center_freq_hz,
        config.bandwidth_hz,
    )


def decode_config_payload(payload: bytes) -> RadarConfig:
    if len(payload) != _CONFIG_PAYLOAD.size:
        raise ValueError(
            f"config payload is {len(payload)} bytes, expected {_CONFIG_PAYLOAD.size}"
        )
    chirps, samples, channels, prf, burst_rate, f0, bw = _CONFIG_PAYLOAD.unpack(payload)
    return RadarConfig(
        chirps_per_burst=chirps,
        samples_per_chirp=samples,
        channels=channels,
        prf_hz=prf,
        burst_rate_hz=burst_rate,
        center_freq_hz=f0,
        bandwidth_hz=bw,
    )


# ---------------------------------------------------------------------------
# Producer


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"endpoint must look like host:port, got {endpoint!r}")
    return host or "127.0.0.1", int(port)


class _LatestSlot:
    """Depth-1 hand-off between the burst generator and the socket writer."""

    def __init__(self):
        self._cond = threading.Condition()
        self._item = None
        self._closed = False

    def put_latest(self, item) -> bool:
        """Replace any pending item; returns True if one was overwritten."""
        with self._cond:
            dropped = self._item is not None
            self._item = item
            self._cond.notify()
            return dropped

    def put_wait(self, item):
        """Lossless variant: block until the slot is free."""
        with self._cond:
            while self._item is not None and not self._closed:
                self._cond.wait(0.1)
            if not self._closed:
                self._item = item
                self._cond.notify()

    def take(self, timeout: float):
        with self._cond:
            if self._item is None:
                self._cond.wait(timeout)
            item, self._item = self._item, None
            self._cond.notify()
            return item

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()


@dataclass
class ProducerStats:
    generated: int = 0
    sent: int = 0
    dropped: int = 0
    reconnects: int = 0
    takes: int = 0


class SceneSource:
    """Live synthesis: bursts from a seeded scene preset.

    Scatterers drift, so each scene is only valid for a finite window; when
    the window ("take") expires a fresh scene is built from a derived seed
    and local time restarts while burst ids keep counting up.
    """

    def __init__(self, preset: str, seed: int, config: RadarConfig, noise_std: float | None = None):
        self.preset = preset
        self.seed = seed
        self.config = config
        self.noise_std = scene_sim.DEFAULT_NOISE_STD if noise_std is None else noise_std
        self.takes = 0
        self._local_index = 0
        self._next_take()

    def _next_take(self):
        take_seed = int(scene_sim.rng_from_seed(self.seed, self.takes).integers(0, 2**63))
        self.scene = scene_sim.make_scene(
            self.preset, take_seed, self.config, noise_std=self.noise_std
        )
        self._horizon = scene_sim.scene_horizon_s(self.scene, self.config)
        self._local_index = 0
        self.takes += 1

    def next_payload(self, burst_id: int, timestamp_us: int) -> bytes:
        t = self._local_index / self.config.burst_rate_hz
        if t >= self._horizon:
            self._next_take()
            t = 0.0
        burst = scene_sim.synthesize_burst(self.scene, self.config, t, burst_id=burst_id)
        self._local_index += 1
        # re-wrap with the stream's own id and clock
        frame = WireFrame(
            kind=KIND_BURST,
            burst_id=burst_id,
            timestamp_us=timestamp_us,
            payload=encode_burst_payload(burst),
        )
        return encode_frame(frame)


class ReplaySource:
    """Burst payloads replayed from a capture file of concatenated frames.

    The file's config frame (if any) overrides the default; burst frames are
    cycled forever, re-stamped with fresh ids and timestamps.
    """

    def __init__(self, path: str | Path, config: RadarConfig | None = None):
        payloads: list[bytes] = []
        file_config = None
        with open(path, "rb") as fh:
            reader = FrameReader(fh.read)
            while True:
                try:
                    frame = reader.read_frame()
                except ProtocolError as exc:
                    raise ProtocolError(f"unreadable capture file {path}: {exc}") from None
                if frame is None:
                    break
                if frame.kind == KIND_BURST:
                    payloads.append(frame.payload)
                elif frame.kind == KIND_CONFIG and file_config is None:
                    file_config = decode_config_payload(frame.payload)
        if not payloads:
            raise ValueError(f"capture file {path} holds no burst frames")
        self.config = file_config or config or RadarConfig()
        self.takes = 1
        self._payloads = payloads
        self._index = 0

    def next_payload(self, burst_id: int, timestamp_us: int) -> bytes:
        payload = self._payloads[self._index % len(self._payloads)]
        self._index += 1
        frame = WireFrame(
            kind=KIND_BURST, burst_id=burst_id, timestamp_us=timestamp_us, payload=payload
        )
        return encode_frame(frame)


class BurstProducer:
    """Serves one consumer at a time; reconnections resume the id sequence.

    rate_hz > 0 paces bursts on absolute deadlines and applies the depth-1
    keep-latest drop policy when the socket cannot keep up.  rate_hz == 0
    streams losslessly as fast as the socket drains (soak mode).
    """

    def __init__(
        self,
        source,
        endpoint: str = "127.0.0.1:0",
        rate_hz: float = 25.0,
        max_bursts: int | None = None,
        sndbuf: int | None = None,
    ):
        if rate_hz < 0:
            raise ValueError(f"rate_hz must be >= 0, got {rate_hz}")
        self.source = source
        self.rate_hz = rate_hz
        self.max_bursts = max_bursts
        self.sndbuf = sndbuf
        self.stats = ProducerStats()
        self._host, self._port = parse_endpoint(endpoint)
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._next_id = 0
        self._t0 = None

    @property
    def bound_port(self) -> int:
        if self._listener is None:
            raise RuntimeError("producer is not listening yet")
        return self._listener.getsockname()[1]

    def bind(self):
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(1)
        listener.settimeout(0.2)
        self._listener = listener

    def stop(self):
        self._stop.set()

    def _quota_left(self) -> bool:
        return self.max_bursts is None or self._next_id < self.max_bursts

    def serve(self):
        """Accept/stream until stopped or the burst quota is exhausted."""
        self.bind()
        self._t0 = time.monotonic()
        first_client = True
        try:
            while not self._stop.is_set() and self._quota_left():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                if not first_client:
                    self.stats.reconnects += 1
                first_client = False
                try:
                    self._stream_to(conn)
                except OSError:
                    continue  # consumer vanished; back to accept
                finally:
                    conn.close()
        finally:
            self._listener.close()
            self._listener = None

    def _now_us(self) -> int:
        return int((time.monotonic() - self._t0) * 1e6)

    def _stream_to(self, conn: socket.socket):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.sndbuf is not None:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf)
        config_frame = WireFrame(
            kind=KIND_CONFIG,
            burst_id=self._next_id,
            timestamp_us=self._now_us(),
            payload=encode_config_payload(self.source.config),
        )
        conn.sendall(encode_frame(config_frame))

        slot = _LatestSlot()
        done = threading.Event()
        ticker = threading.Thread(
            target=self._generate, args=(slot, done), name="mmsentry-ticker", daemon=True
        )
        ticker.start()
        try:
            while True:
                data = slot.take(timeout=0.1)
                if data is None:
                    if done.is_set():
                        break
                    continue
                conn.sendall(data)
                self.stats.sent += 1
        finally:
            done.set()
            slot.close()
            ticker.join()
            self.stats.takes = getattr(self.source, "takes", 0)

    def _generate(self, slot: _LatestSlot, done: threading.Event):
        period = 1.0 / self.rate_hz if self.rate_hz > 0 else 0.0
        next_deadline = time.monotonic() + period
        while not done.is_set() and not self._stop.is_set() and self._quota_left():
            if period:
                now = time.monotonic()
                if now < next_deadline:
                    time.sleep(next_deadline - now)
                stamp = self._now_us()
                next_deadline += period
            else:
                stamp = int(self._next_id / self.source.config.burst_rate_hz * 1e6)
            data = self.source.next_payload(self._next_id, stamp)
            self._next_id += 1
            self.stats.generated += 1
            if period:
                if slot.put_latest(data):
                    self.stats.dropped += 1
            else:
                slot.put_wait(data)
        done.set()


def run_producer(
    source,
    endpoint: str = "127.0.0.1:9017",
    rate_hz: float = 25.0,
    seed: int = 7,
    config: RadarConfig | None = None,
    max_bursts: int | None = None,
) -> ProducerStats:
    """Blocking service loop; ``source`` is a preset name or a capture path."""
    config = config or RadarConfig()
    if isinstance(source, (str, Path)) and str(source) in scene_sim.PRESETS:
        source = SceneSource(str(source), seed, config)
    elif isinstance(source, (str, Path)):
        source = ReplaySource(source, config)
    producer = BurstProducer(source, endpoint=endpoint, rate_hz=rate_hz, max_bursts=max_bursts)
    producer.serve()
    return producer.stats


# ---------------------------------------------------------------------------
# Consumer


@dataclass
class ConsumerStats:
    frames: int = 0
    bursts: int = 0
    configs: int = 0
    detections: int = 0
    crc_errors: int = 0
    other_errors: int = 0
    skipped_bursts: int = 0
    order_regressions: int = 0


class BurstConsumer:
    """Connects to a producer, windows ARD frames, and emits detections.

    With no model attached the consumer still decodes and runs the DSP
    chain (transport soak mode); detections then never fire.  A config whose
    ARD frames do not fit the model leaves no usable config: bursts count as
    skipped until a config that fits arrives.  Every config frame restarts
    the window, so no window spans two configs.
    """

    def __init__(
        self,
        endpoint: str,
        model=None,
        config: RadarConfig | None = None,
        rcvbuf: int | None = None,
        connect_timeout: float = 5.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.rcvbuf = rcvbuf
        self.connect_timeout = connect_timeout
        self.stats = ConsumerStats()
        self._sock: socket.socket | None = None
        self._window = None
        self._window_ids: deque[int] = deque()
        self._last_id: int | None = None
        if model is not None:
            from .transdope.model import SlidingClassifier

            self._window = SlidingClassifier(model)
            self._window_ids = deque(maxlen=model.config.seq_len)
        self.config = self._usable(config)

    def _usable(self, config: RadarConfig | None) -> RadarConfig | None:
        """``config`` if the model can classify its frames, else None."""
        if config is None or self.model is None:
            return config
        return config if config.ard_shape == self.model.config.frame_shape else None

    def connect(self):
        host, port = parse_endpoint(self.endpoint)
        deadline = time.monotonic() + self.connect_timeout
        while True:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            if self.rcvbuf is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, self.rcvbuf)
            try:
                sock.connect((host, port))
                self._sock = sock
                return
            except OSError:
                sock.close()
                if time.monotonic() >= deadline:
                    raise ConnectionError(f"could not reach producer at {self.endpoint}")
                time.sleep(0.05)

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def detections(self, max_bursts: int | None = None, pause_hook=None):
        """Generator of Detection; runs until EOF or ``max_bursts`` burst frames.

        Every burst frame read counts toward ``max_bursts``, whether it was
        classified or skipped, so the count ends the run even while no usable
        config has arrived.  ``pause_hook(stats)`` is called between frames
        (testing aid: lets a test stall the reader to provoke producer-side
        drops).
        """
        if self._sock is None:
            self.connect()
        reader = FrameReader(self._sock.recv)
        burst_frames = 0
        while max_bursts is None or burst_frames < max_bursts:
            if pause_hook is not None:
                pause_hook(self.stats)
            try:
                frame = reader.read_frame()
            except BadCrcError:
                self.stats.crc_errors += 1
                continue
            except ProtocolError:
                self.stats.other_errors += 1
                continue
            if frame is None:
                break
            self.stats.frames += 1
            if frame.kind == KIND_CONFIG:
                self.stats.configs += 1
                self.config = self._usable(decode_config_payload(frame.payload))
                if self._window is not None:
                    self._window.reset()
                    self._window_ids.clear()
                continue
            if frame.kind != KIND_BURST:
                continue
            burst_frames += 1
            detection = self._on_burst(frame)
            if detection is not None:
                yield detection

    def _on_burst(self, frame: WireFrame):
        if self.config is None:
            self.stats.skipped_bursts += 1
            return None
        started = time.perf_counter_ns()
        try:
            burst = decode_burst_payload(
                frame.payload, self.config, frame.burst_id, frame.timestamp_us
            )
        except ValueError:
            self.stats.skipped_bursts += 1
            return None
        if self._last_id is not None and frame.burst_id <= self._last_id:
            self.stats.order_regressions += 1
        self._last_id = frame.burst_id
        self.stats.bursts += 1

        ard = dsp.process_burst(burst)
        if self._window is None:
            return None
        probability = self._window.push(ard.values)
        self._window_ids.append(frame.burst_id)
        if probability is None:
            return None
        latency_us = (time.perf_counter_ns() - started) // 1000
        self.stats.detections += 1
        return Detection(
            first_burst_id=self._window_ids[0],
            last_burst_id=frame.burst_id,
            probability=float(probability),
            decision=int(probability >= 0.5),
            latency_us=int(latency_us),
        )


CSV_FIELDS = ("burst_id", "probability", "decision", "latency_us")


def write_detections_csv(path: str | Path, detections) -> int:
    """Stream detections to CSV as they arrive; returns the row count."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for det in detections:
            writer.writerow(
                [det.last_burst_id, f"{det.probability:.6f}", det.decision, det.latency_us]
            )
            count += 1
    return count
