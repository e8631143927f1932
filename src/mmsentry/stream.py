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
(chirp, sample, channel) order.  A reader skips any fault to the next magic
marker and raises one error per skip (``FrameReader``).  A paced producer stamps each burst with
the deadline it fell due at and never queues a stale one: when a blocked send
or a late wake-up outlasts later deadlines, it generates every burst that fell
due, sends only the newest and counts the rest as dropped (keep-latest).  A lossless producer
(rate 0) sends each burst before it generates the next, so it drops nothing.
Both modes run on the connection's own thread.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time
import zlib
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
_CONNECT_TIMEOUT_S = 5.0  # how long a consumer retries a producer that is not up yet


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
        MAGIC, VERSION, frame.kind, frame.burst_id, frame.timestamp_us, len(frame.payload)
    )
    body = header + frame.payload
    return body + _CRC.pack(zlib.crc32(body))


def _frame_length(header) -> int:
    """Total bytes of the frame that ``header`` starts, once its fixed fields hold."""
    magic, version, _, _, _, payload_len = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {bytes(magic)!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if payload_len > MAX_PAYLOAD:
        raise TruncatedFrameError(f"implausible payload length {payload_len}")
    return _HEADER.size + payload_len + _CRC.size


def _checked_frame(data, total: int) -> WireFrame:
    """The ``total``-byte frame at the start of ``data``, once its CRC holds.

    The payload is copied once, and no view outlives the call, so a
    ``bytearray`` passed in can be resized after it returns or raises.
    """
    end = total - _CRC.size
    _, _, kind, burst_id, timestamp_us, _ = _HEADER.unpack_from(data)
    (crc_stored,) = _CRC.unpack_from(data, end)
    with memoryview(data) as view:
        # copy before the CRC: the copy pulls cold bytes into cache faster than crc32 does
        payload = bytes(view[_HEADER.size : end])
        if zlib.crc32(view[:end]) != crc_stored:
            raise BadCrcError(f"crc mismatch on burst_id {burst_id}")
    return WireFrame(kind=kind, burst_id=burst_id, timestamp_us=timestamp_us, payload=payload)


def decode_frame(data: bytes) -> WireFrame:
    """Strict single-frame decode; rejects anything but one whole valid frame."""
    if len(data) < _HEADER.size + _CRC.size:
        raise TruncatedFrameError(f"{len(data)} bytes cannot hold a frame")
    total = _frame_length(data)
    if len(data) < total:
        raise TruncatedFrameError(f"need {total} bytes, have {len(data)}")
    if len(data) > total:
        raise ValueError(f"{len(data) - total} trailing bytes after frame")
    return _checked_frame(data, total)


class FrameReader:
    """Incremental parser over a byte source with magic-scan resync.

    ``read`` is called with a byte count and must return b"" at EOF (socket
    ``recv`` semantics).  ``read_frame`` returns the next frame, None at a
    clean EOF, or raises a ProtocolError.  A frame leaves the buffer only
    once its header and CRC hold.  Any fault (garbage, a bad header, a failed
    CRC, EOF inside a frame) drops bytes up to the next magic marker, and the
    whole skip raises one error, its first fault, when the next frame
    verifies (the next call returns that frame) or the stream ends.  A wrong
    but plausible length still waits for the bytes it claims.
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

    def read_frame(self) -> WireFrame | None:
        error = None
        while self._fill(_HEADER.size) or self._buf:
            try:
                if len(self._buf) < _HEADER.size:
                    raise TruncatedFrameError("stream ended inside a frame header")
                total = _frame_length(self._buf)
                if not self._fill(total):
                    raise TruncatedFrameError(f"stream ended inside a {total}-byte frame")
                frame = _checked_frame(self._buf, total)
            except ProtocolError as exc:
                # raised later from here; its old traceback would only pin frames
                error = error or exc.with_traceback(None)
                # drop up to the next marker; at EOF without one, drop everything, and
                # otherwise keep a tail shorter than the marker, as it may be a prefix
                skip = self._buf.find(MAGIC, 1)
                if skip < 0:
                    skip = len(self._buf) - (0 if self._eof else len(MAGIC) - 1)
                del self._buf[:skip]
                continue
            if error is None:
                del self._buf[:total]
                return frame
            break  # the skip's error goes first; the next call returns this frame
        if error is not None:
            raise error
        return None


# ---------------------------------------------------------------------------
# Payload codecs


def encode_burst_payload(burst: RawBurst) -> bytes:
    return np.ascontiguousarray(burst.data).astype("<c8").tobytes()


def decode_burst_payload(
    payload: bytes, config: RadarConfig, burst_id: int, timestamp_us: int
) -> RawBurst:
    shape = config.burst_shape
    expected = math.prod(shape) * 8
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


@dataclass
class ProducerStats:
    sent: int = 0
    dropped: int = 0
    reconnects: int = 0
    late: int = 0  # paced bursts whose send began a period or more after their deadline
    max_late_us: int = 0  # the worst lag of a paced burst's send behind its deadline


def _burst_frame(burst_id: int, timestamp_us: int, payload: bytes) -> bytes:
    """One encoded burst frame carrying ``payload`` under the stream's id and clock."""
    return encode_frame(
        WireFrame(kind=KIND_BURST, burst_id=burst_id, timestamp_us=timestamp_us, payload=payload)
    )


class SceneSource:
    """Live synthesis: bursts from a seeded scene preset.

    Scatterers drift, so each scene is only valid for a finite window; when
    the window ("take") expires a fresh scene is built from a derived seed
    and local time restarts while burst ids keep counting up.
    """

    def __init__(self, preset: str, seed: int, config: RadarConfig):
        self.preset = preset
        self.seed = seed
        self.config = config
        self.takes = 0
        self._local_index = 0
        self._next_take()

    def _next_take(self):
        take_seed = int(scene_sim.rng_from_seed(self.seed, self.takes).integers(0, 2**63))
        self.scene = scene_sim.make_scene(self.preset, take_seed, self.config)
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
        return _burst_frame(burst_id, timestamp_us, encode_burst_payload(burst))


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
        self._payloads = payloads
        self._index = 0

    def next_payload(self, burst_id: int, timestamp_us: int) -> bytes:
        payload = self._payloads[self._index % len(self._payloads)]
        self._index += 1
        return _burst_frame(burst_id, timestamp_us, payload)


class BurstProducer:
    """Serves one consumer at a time; reconnections resume the id sequence.

    Each connection is served on the thread that calls ``serve``.  rate_hz > 0
    waits for absolute deadlines ``1 / rate_hz`` apart and stamps each burst
    with its deadline in microseconds since ``serve`` started.  When a send
    blocks, or the wait wakes late, past later deadlines, every burst that
    fell due is generated, only the newest is sent and the others count in
    ``stats.dropped`` (keep-latest).  Time spent generating drops nothing: a
    source slower than the rate has every burst sent, late.  rate_hz == 0
    sends each burst as fast as the socket drains and drops nothing (soak
    mode); its timestamps follow the config's burst rate, not the wall clock.
    ``stop`` ends either mode without waiting for the next deadline, and
    shuts the live connection down so a ``sendall`` blocked on a consumer
    that stopped reading fails at once.
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
        self._conn: socket.socket | None = None
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
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by serve

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
                self._conn = conn
                try:
                    self._stream_to(conn)
                except OSError:
                    continue  # consumer vanished, or stop() shut the connection; back to accept
                finally:
                    self._conn = None
                    conn.close()
        finally:
            self._listener.close()
            self._listener = None

    def _since_start_us(self, t: float) -> int:
        """Monotonic time ``t`` as microseconds since ``serve`` started."""
        return int((t - self._t0) * 1e6)

    def _stream_to(self, conn: socket.socket):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.sndbuf is not None:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.sndbuf)
        config_frame = WireFrame(
            kind=KIND_CONFIG,
            burst_id=self._next_id,
            timestamp_us=self._since_start_us(time.monotonic()),
            payload=encode_config_payload(self.source.config),
        )
        conn.sendall(encode_frame(config_frame))

        # lossless mode's deadline is always past, so the wait only reads the stop flag
        period = 1.0 / self.rate_hz if self.rate_hz else 0.0
        deadline = time.monotonic() + period
        send_began = 0.0
        while self._quota_left() and not self._stop.wait(deadline - time.monotonic()):
            if not period:
                data = self._next_burst(
                    int(self._next_id / self.source.config.burst_rate_hz * 1e6)
                )
            else:
                now = time.monotonic()
                data = self._next_burst(self._since_start_us(deadline))
                deadline += period
                # bursts that fell due since the last send began (it blocked, or the wait
                # woke late): the newest replaces the rest.  Deadlines missed while
                # generating are sent late instead, so a slow source still gets through.
                while send_began < deadline <= now and self._quota_left():
                    data = self._next_burst(self._since_start_us(deadline))
                    deadline += period
                    self.stats.dropped += 1
            send_began = time.monotonic()
            if period:
                lag = send_began - (deadline - period)  # behind the deadline it is stamped with
                if lag >= period:
                    self.stats.late += 1
                self.stats.max_late_us = max(self.stats.max_late_us, int(lag * 1e6))
            conn.sendall(data)
            self.stats.sent += 1

    def _next_burst(self, timestamp_us: int) -> bytes:
        data = self.source.next_payload(self._next_id, timestamp_us)
        self._next_id += 1
        return data


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
    gap_bursts: int = 0  # ids skipped over by a burst id that jumped ahead
    unknown_kinds: int = 0  # CRC-valid frames neither burst nor config
    config_mismatches: int = 0  # configs that decode but whose ARD frames do not fit the model


class BurstConsumer:
    """Connects to a producer, windows ARD frames, and emits detections.

    With no model attached the consumer still decodes and runs the DSP
    chain (transport soak mode); detections then never fire.  A config frame
    that does not decode counts as a protocol error, and one whose ARD frames
    do not fit the model counts in ``config_mismatches``; either leaves no
    usable config, and bursts count as skipped until a config that decodes
    and fits arrives.  Every config frame, every burst whose payload does not
    decode and every burst id that does not follow the one before restarts
    the window, so a window holds ``seq_len`` consecutive bursts of one
    config.  A burst id that does not rise counts in ``order_regressions``,
    and one that jumps ahead counts the ids it skips in ``gap_bursts``;
    skipped bursts take part in both, since their ids were received.
    """

    def __init__(
        self,
        endpoint: str,
        model=None,
        rcvbuf: int | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.rcvbuf = rcvbuf
        self.stats = ConsumerStats()
        self._sock: socket.socket | None = None
        self.config: RadarConfig | None = None
        self._window = None
        self._last_id: int | None = None
        if model is not None:
            from .transdope.model import SlidingClassifier

            self._window = SlidingClassifier(model)

    def connect(self):
        host, port = parse_endpoint(self.endpoint)
        deadline = time.monotonic() + _CONNECT_TIMEOUT_S
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
                try:
                    config = decode_config_payload(frame.payload)
                except ValueError:  # wrong size, or a ConfigError
                    self.stats.other_errors += 1
                    config = None
                else:
                    self.stats.configs += 1
                    fits = self.model is None or config.ard_shape == self.model.config.frame_shape
                    if not fits:
                        self.stats.config_mismatches += 1
                        config = None
                self.config = config
                self._restart_window()
                continue
            if frame.kind != KIND_BURST:
                self.stats.unknown_kinds += 1
                continue
            burst_frames += 1
            detection = self._on_burst(frame)
            if detection is not None:
                yield detection

    def _restart_window(self):
        if self._window is not None:
            self._window.reset()

    def _on_burst(self, frame: WireFrame):
        last, self._last_id = self._last_id, frame.burst_id
        if last is not None and frame.burst_id != last + 1:
            if frame.burst_id <= last:
                self.stats.order_regressions += 1
            else:
                self.stats.gap_bursts += frame.burst_id - last - 1
            self._restart_window()
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
            self._restart_window()
            return None
        self.stats.bursts += 1

        ard = dsp.process_burst(burst)
        if self._window is None:
            return None
        probability = self._window.push(ard.values)
        if probability is None:
            return None
        latency_us = (time.perf_counter_ns() - started) // 1000
        self.stats.detections += 1
        return Detection(
            first_burst_id=frame.burst_id - self.model.config.seq_len + 1,
            last_burst_id=frame.burst_id,
            probability=float(probability),
            decision=int(probability >= 0.5),
            latency_us=int(latency_us),
        )
