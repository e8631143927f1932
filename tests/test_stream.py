"""Wire protocol, framing resync, and the producer/consumer pair."""

import io
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsentry import stream
from mmsentry.radar_core import RadarConfig, RawBurst
from mmsentry.stream import (
    BadCrcError,
    BadMagicError,
    BurstConsumer,
    BurstProducer,
    Detection,
    FrameReader,
    ProtocolError,
    ReplaySource,
    SceneSource,
    TruncatedFrameError,
    UnsupportedVersionError,
    WireFrame,
    decode_burst_payload,
    decode_config_payload,
    decode_frame,
    encode_burst_payload,
    encode_config_payload,
    encode_frame,
    parse_endpoint,
)
from mmsentry.transdope import TransDopeConfig, TransDopeModel

SMALL = RadarConfig(chirps_per_burst=4, samples_per_chirp=8, channels=1)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_frame(r):
    return WireFrame(
        kind=int(r.integers(1, 4)),
        burst_id=int(r.integers(0, 1 << 32)),
        timestamp_us=int(r.integers(0, 1 << 64, dtype=np.uint64)),
        payload=r.bytes(int(r.integers(0, 200))),
    )


def reader_over(blob: bytes) -> FrameReader:
    return FrameReader(io.BytesIO(blob).read)


def with_version(raw: bytes, version: int) -> bytes:
    """The encoded frame ``raw`` relabelled as wire ``version``, CRC recomputed."""
    body = bytearray(raw[:-4])
    struct.pack_into("<H", body, 4, version)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


# ---------------------------------------------------------------------------
# Frame codec


def test_codec_round_trip_random_frames():
    r = rng(1)
    for _ in range(100):
        frame = random_frame(r)
        assert decode_frame(encode_frame(frame)) == frame


def test_frame_sizes():
    empty = WireFrame(kind=3, burst_id=0, timestamp_us=0)
    assert len(encode_frame(empty)) == 28  # 24-byte header + crc32
    config_frame = encode_frame(
        WireFrame(kind=3, burst_id=0, timestamp_us=0,
                  payload=encode_config_payload(RadarConfig()))
    )
    assert len(config_frame) == 28 + 38
    burst = RawBurst(0, 0, np.zeros(RadarConfig().burst_shape, dtype=np.complex128))
    assert len(encode_burst_payload(burst)) == 24576


def test_every_bit_is_crc_protected():
    frame = encode_frame(WireFrame(kind=1, burst_id=7, timestamp_us=9, payload=b"abcdef"))
    for pos in range(4, len(frame)):  # flipping magic bits fails earlier, see below
        corrupt = bytearray(frame)
        corrupt[pos] ^= 0x10
        with pytest.raises(ProtocolError):
            decode_frame(bytes(corrupt))


def test_decode_error_taxonomy():
    good = encode_frame(WireFrame(kind=1, burst_id=1, timestamp_us=2, payload=b"xyz"))

    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:10])
    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:-1])
    with pytest.raises(BadMagicError):
        decode_frame(b"XXXX" + good[4:])
    with pytest.raises(ValueError):
        decode_frame(good + b"\x00")

    flipped = bytearray(good)
    flipped[-6] ^= 0x01  # payload byte
    with pytest.raises(BadCrcError):
        decode_frame(bytes(flipped))

    assert with_version(good, stream.VERSION) == good
    with pytest.raises(UnsupportedVersionError):
        decode_frame(with_version(good, 2))


def decode_outcome(decode, raw: bytes):
    """The frame ``decode`` returns, or ValueError if it raises one."""
    try:
        return decode(raw)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([stream.KIND_BURST, stream.KIND_CONFIG]),
    burst_id=st.integers(0, (1 << 32) - 1),
    timestamp_us=st.integers(0, (1 << 64) - 1),
    payload=st.binary(max_size=64),
    data=st.data(),
)
def test_decoders_agree_on_damaged_frames(kind, burst_id, timestamp_us, payload, data):
    raw = encode_frame(WireFrame(kind, burst_id, timestamp_us, payload))
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(1, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged = bytes(flipped)
    strict = decode_outcome(decode_frame, damaged)
    streamed = decode_outcome(lambda b: reader_over(b).read_frame(), damaged)
    assert strict == streamed


def test_wireframe_field_validation():
    with pytest.raises(ValueError):
        WireFrame(kind=-1, burst_id=0, timestamp_us=0)
    with pytest.raises(ValueError):
        WireFrame(kind=1, burst_id=1 << 32, timestamp_us=0)
    with pytest.raises(ValueError):
        WireFrame(kind=1, burst_id=0, timestamp_us=-5)
    with pytest.raises(ValueError):
        WireFrame(kind=1, burst_id=0, timestamp_us=0,
                  payload=bytes(stream.MAX_PAYLOAD + 1))


# ---------------------------------------------------------------------------
# Incremental reader


def frames_fixture(n=3):
    r = rng(2)
    return [random_frame(r) for _ in range(n)]


def test_reader_walks_a_stream_and_stops_at_eof():
    frames = frames_fixture(5)
    reader = reader_over(b"".join(encode_frame(f) for f in frames))
    assert [reader.read_frame() for _ in range(5)] == frames
    assert reader.read_frame() is None
    assert reader.read_frame() is None  # EOF is sticky


def test_reader_resyncs_after_garbage():
    f1, f2 = frames_fixture(2)
    blob = b"noise" + encode_frame(f1) + b"\xde\xad\xbe\xef" + encode_frame(f2)
    reader = reader_over(blob)
    with pytest.raises(BadMagicError):
        reader.read_frame()
    assert reader.read_frame() == f1
    with pytest.raises(BadMagicError):
        reader.read_frame()
    assert reader.read_frame() == f2
    assert reader.read_frame() is None


def test_reader_skips_corrupt_frame_and_continues():
    f1, f2, f3 = frames_fixture(3)
    middle = bytearray(encode_frame(f2))
    middle[-1] ^= 0xFF  # break the crc
    reader = reader_over(encode_frame(f1) + bytes(middle) + encode_frame(f3))
    assert reader.read_frame() == f1
    with pytest.raises(BadCrcError):
        reader.read_frame()
    assert reader.read_frame() == f3


def test_reader_steps_over_future_versions():
    f1, f3 = frames_fixture(2)
    future = with_version(
        encode_frame(WireFrame(kind=1, burst_id=5, timestamp_us=6, payload=b"new")), 3
    )
    reader = reader_over(encode_frame(f1) + future + encode_frame(f3))
    assert reader.read_frame() == f1
    with pytest.raises(UnsupportedVersionError):
        reader.read_frame()
    assert reader.read_frame() == f3


def test_reader_rejects_implausible_length():
    header = stream._HEADER.pack(b"MMSE", 1, 1, 0, 0, stream.MAX_PAYLOAD + 1)
    f1 = frames_fixture(1)[0]
    reader = reader_over(header + encode_frame(f1))
    with pytest.raises(TruncatedFrameError):
        reader.read_frame()
    # resync from inside the bogus header is allowed to take several scans
    for _ in range(8):
        try:
            frame = reader.read_frame()
            break
        except ProtocolError:
            continue
    assert frame == f1


def test_reader_reports_stream_ending_inside_frame():
    f1 = frames_fixture(1)[0]
    reader = reader_over(encode_frame(f1)[:-3])
    with pytest.raises(TruncatedFrameError):
        reader.read_frame()
    assert reader.read_frame() is None


def read_all(reader: FrameReader) -> tuple[list[WireFrame], list[ProtocolError]]:
    """Every frame ``reader`` returns up to EOF, and every error it raises on the way."""
    frames, errors = [], []
    while True:
        try:
            frame = reader.read_frame()
        except ProtocolError as exc:
            errors.append(exc)
            continue
        if frame is None:
            return frames, errors
        frames.append(frame)


def burst_frames(count: int) -> list[WireFrame]:
    """``count`` default-config burst frames, ids 0 up, carrying random samples."""
    r = rng(8)
    shape = RadarConfig().burst_shape
    frames = []
    for i in range(count):
        data = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        payload = encode_burst_payload(RawBurst(i, i * 40_000, data))
        frames.append(WireFrame(stream.KIND_BURST, i, i * 40_000, payload))
    return frames


def with_payload_len(raw: bytes, delta: int) -> bytes:
    """The encoded frame ``raw`` with ``delta`` added to its payload_len, CRC left stale."""
    damaged = bytearray(raw)
    (length,) = struct.unpack_from("<I", damaged, 20)
    struct.pack_into("<I", damaged, 20, length + delta)
    return bytes(damaged)


def with_bit_flipped(raw: bytes, bit: int) -> bytes:
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


# (damage to frame 10, frames in the stream); a default burst frame is 24 604
# bytes, so 1 MiB more claims an end 43 frames on: inside 200, past EOF of 40
CORRUPTIONS = [
    pytest.param(lambda raw: with_bit_flipped(raw, 8 * 1000 + 3), 200, id="payload_bit"),
    pytest.param(lambda raw: with_payload_len(raw, 16), 200, id="len_plus_16"),
    pytest.param(lambda raw: with_payload_len(raw, -16), 200, id="len_minus_16"),
    pytest.param(lambda raw: with_payload_len(raw, 1 << 20), 200, id="len_plus_1mib_inside"),
    pytest.param(lambda raw: with_payload_len(raw, 1 << 20), 40, id="len_plus_1mib_past_eof"),
]


def damaged_stream(damage, count: int) -> tuple[list[WireFrame], bytes]:
    """``count`` burst frames with frame 10 damaged: the other frames, and the bytes."""
    frames = burst_frames(count)
    raws = [encode_frame(f) for f in frames]
    raws[10] = damage(raws[10])
    return frames[:10] + frames[11:], b"".join(raws)


@pytest.mark.parametrize("damage, count", CORRUPTIONS)
def test_reader_loses_only_the_damaged_frame(damage, count):
    others, blob = damaged_stream(damage, count)
    frames, errors = read_all(reader_over(blob))
    assert [f.burst_id for f in frames] == [f.burst_id for f in others]
    assert frames == others
    assert len(errors) == 1, errors


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(
        st.builds(
            WireFrame,
            kind=st.integers(0, (1 << 16) - 1),
            burst_id=st.integers(0, (1 << 32) - 1),
            timestamp_us=st.integers(0, (1 << 64) - 1),
            payload=st.binary(max_size=64),
        ),
        min_size=2,
        max_size=7,
    ),
    data=st.data(),
)
def test_one_damaged_frame_costs_that_frame_and_one_error(frames, data):
    raws = [encode_frame(f) for f in frames]
    hit = data.draw(st.integers(0, len(raws) - 1), label="damaged frame")
    raw = raws[hit]
    damage = data.draw(st.sampled_from(["bit", "payload_len", "version"]), label="damage")
    if damage == "bit":
        raws[hit] = with_bit_flipped(raw, data.draw(st.integers(0, 8 * len(raw) - 1), label="bit"))
    elif damage == "payload_len":
        length = data.draw(
            st.integers(0, (1 << 32) - 1).filter(lambda n: n != len(frames[hit].payload)),
            label="payload_len",
        )
        raws[hit] = raw[:20] + struct.pack("<I", length) + raw[24:]
    else:
        version = data.draw(
            st.integers(0, (1 << 16) - 1).filter(lambda v: v != stream.VERSION), label="version"
        )
        raws[hit] = raw[:4] + struct.pack("<H", version) + raw[6:]
    received, errors = read_all(reader_over(b"".join(raws)))
    assert received == frames[:hit] + frames[hit + 1 :]
    assert len(errors) == 1, errors


# ---------------------------------------------------------------------------
# Payload codecs


def test_burst_payload_round_trip():
    r = rng(3)
    data = (
        r.standard_normal(SMALL.burst_shape) + 1j * r.standard_normal(SMALL.burst_shape)
    ).astype(np.complex64).astype(np.complex128)
    burst = RawBurst(burst_id=11, timestamp_us=22, data=data)
    payload = encode_burst_payload(burst)
    assert len(payload) == 4 * 8 * 1 * 8
    back = decode_burst_payload(payload, SMALL, 11, 22)
    assert back.burst_id == 11
    assert back.timestamp_us == 22
    assert np.array_equal(back.data, data)
    with pytest.raises(ValueError):
        decode_burst_payload(payload[:-4], SMALL, 11, 22)
    with pytest.raises(ValueError):
        decode_burst_payload(payload, RadarConfig(), 11, 22)


def test_config_payload_round_trip():
    for config in (RadarConfig(), SMALL, RadarConfig(prf_hz=4000.0, burst_rate_hz=50.0)):
        back = decode_config_payload(encode_config_payload(config))
        assert back == config
    with pytest.raises(ValueError):
        decode_config_payload(b"\x00" * 10)


def test_detection_validation():
    with pytest.raises(ValueError):
        Detection(5, 4, 0.5, 1, 0)
    with pytest.raises(ValueError):
        Detection(0, 1, 1.5, 1, 0)
    with pytest.raises(ValueError):
        Detection(0, 1, float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Detection(0, 1, 0.5, 2, 0)


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9017") == ("127.0.0.1", 9017)
    assert parse_endpoint(":0") == ("127.0.0.1", 0)
    assert parse_endpoint("example.test:80") == ("example.test", 80)
    for bad in ("nocolon", "host:", "host:abc", ""):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


# ---------------------------------------------------------------------------
# Sources


def test_scene_source_emits_valid_frames():
    src = SceneSource("person_with_metal", seed=3, config=SMALL)
    frame = decode_frame(src.next_payload(burst_id=17, timestamp_us=4242))
    assert frame.kind == stream.KIND_BURST
    assert frame.burst_id == 17
    assert frame.timestamp_us == 4242
    burst = decode_burst_payload(frame.payload, SMALL, frame.burst_id, frame.timestamp_us)
    assert burst.data.shape == SMALL.burst_shape
    assert np.any(burst.data != 0.0)


def test_scene_source_retakes_after_horizon():
    src = SceneSource("person", seed=9, config=SMALL)
    assert src.takes == 1
    src._horizon = 1.5 / SMALL.burst_rate_hz  # force an early scene change
    for i in range(3):
        src.next_payload(burst_id=i, timestamp_us=0)
    assert src.takes == 2  # third burst crossed the shortened horizon


def make_capture(path, config, count=5, with_config=True):
    blobs = []
    if with_config:
        blobs.append(encode_frame(WireFrame(
            kind=stream.KIND_CONFIG, burst_id=0, timestamp_us=0,
            payload=encode_config_payload(config),
        )))
    r = rng(6)
    payloads = []
    for i in range(count):
        data = (r.standard_normal(config.burst_shape)
                + 1j * r.standard_normal(config.burst_shape)).astype(np.complex64)
        payload = encode_burst_payload(RawBurst(i, i * 40000, data.astype(np.complex128)))
        payloads.append(payload)
        blobs.append(encode_frame(WireFrame(
            kind=stream.KIND_BURST, burst_id=i, timestamp_us=i * 40000, payload=payload,
        )))
    path.write_bytes(b"".join(blobs))
    return payloads


def test_replay_source_cycles_and_restamps(tmp_path):
    capture = tmp_path / "capture.mmse"
    payloads = make_capture(capture, SMALL, count=3)
    src = ReplaySource(capture)
    assert src.config == SMALL  # taken from the file's config frame
    for i in range(7):
        frame = decode_frame(src.next_payload(burst_id=100 + i, timestamp_us=i))
        assert frame.burst_id == 100 + i
        assert frame.payload == payloads[i % 3]


def test_replay_source_rejects_bad_captures(tmp_path):
    empty = tmp_path / "empty.mmse"
    make_capture(empty, SMALL, count=0)
    with pytest.raises(ValueError):
        ReplaySource(empty)
    garbage = tmp_path / "garbage.mmse"
    garbage.write_bytes(b"MMSE" + b"\x00" * 40)
    with pytest.raises(ProtocolError):
        ReplaySource(garbage)


# ---------------------------------------------------------------------------
# Producer/consumer over a real socket


def start_producer(source, rate_hz, max_bursts, sndbuf=None):
    producer = BurstProducer(
        source, endpoint="127.0.0.1:0", rate_hz=rate_hz,
        max_bursts=max_bursts, sndbuf=sndbuf,
    )
    producer.bind()
    thread = threading.Thread(target=producer.serve, daemon=True)
    thread.start()
    return producer, thread, f"127.0.0.1:{producer.bound_port}"


def small_model():
    cfg = TransDopeConfig(
        seq_len=8, range_bins=8, doppler_bins=4, channels=1,
        conv_filters=4, embed_dim=8, heads=2, encoder_layers=1,
    )
    return TransDopeModel.initialize(cfg, seed=0)


def test_lossless_stream_without_model():
    src = SceneSource("person", seed=1, config=SMALL)
    producer, thread, endpoint = start_producer(src, rate_hz=0.0, max_bursts=30)
    consumer = BurstConsumer(endpoint)
    detections = list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)

    assert detections == []  # no model attached
    assert consumer.stats.configs == 1
    assert consumer.stats.bursts == 30
    assert consumer.stats.crc_errors == 0
    assert consumer.stats.other_errors == 0
    assert consumer.stats.order_regressions == 0
    assert consumer.config == SMALL  # learned from the stream
    assert producer.stats.sent == 30
    assert producer.stats.dropped == 0  # rate 0 is lossless by contract


def test_sliding_window_detection_count():
    # W-frame window over B bursts yields B - W + 1 decisions
    model = small_model()
    src = SceneSource("person_with_metal", seed=2, config=SMALL)
    producer, thread, endpoint = start_producer(src, rate_hz=0.0, max_bursts=250)
    consumer = BurstConsumer(endpoint, model=model)
    detections = list(consumer.detections())
    consumer.close()
    thread.join(timeout=30.0)

    assert len(detections) == 243
    assert consumer.stats.detections == 243
    first = detections[0]
    assert (first.first_burst_id, first.last_burst_id) == (0, 7)
    for det in detections:
        assert det.last_burst_id - det.first_burst_id == 7
        assert det.decision == int(det.probability >= 0.5)
        assert det.latency_us >= 0
    ids = [d.last_burst_id for d in detections]
    assert ids == list(range(7, 250))


def test_paced_bursts_carry_their_deadlines():
    # stamps come from the schedule, 10 000 us apart at 100 Hz, not from the
    # moment each burst was generated or sent
    src = SceneSource("person", seed=5, config=SMALL)
    producer, thread, endpoint = start_producer(src, rate_hz=100.0, max_bursts=20)
    with socket.create_connection(parse_endpoint(endpoint)) as sock:
        frames = list(iter(FrameReader(sock.recv).read_frame, None))
    thread.join(timeout=10.0)
    assert not thread.is_alive()

    stamps = [(f.burst_id, f.timestamp_us) for f in frames if f.kind == stream.KIND_BURST]
    assert len(stamps) + producer.stats.dropped == 20
    assert stamps[-1][0] == 19
    for (id0, t0), (id1, t1) in zip(stamps, stamps[1:]):
        assert abs(t1 - t0 - 10_000 * (id1 - id0)) <= 1, stamps


class SlowSource:
    """A scene source that takes two and a half 100 Hz periods per burst."""

    def __init__(self):
        self._scene = SceneSource("person", seed=5, config=SMALL)
        self.config = SMALL

    def next_payload(self, burst_id: int, timestamp_us: int) -> bytes:
        time.sleep(0.025)
        return self._scene.next_payload(burst_id, timestamp_us)


def test_source_slower_than_the_rate_is_sent_late_not_dropped():
    # time spent generating drops nothing: every burst is sent, late, and
    # still stamped with its deadline
    producer, thread, endpoint = start_producer(SlowSource(), rate_hz=100.0, max_bursts=8)
    with socket.create_connection(parse_endpoint(endpoint)) as sock:
        frames = list(iter(FrameReader(sock.recv).read_frame, None))
    thread.join(timeout=10.0)
    assert not thread.is_alive()

    stamps = [(f.burst_id, f.timestamp_us) for f in frames if f.kind == stream.KIND_BURST]
    assert [i for i, _ in stamps] == list(range(8))
    assert producer.stats.dropped == 0
    assert all(abs(t1 - t0 - 10_000) <= 1 for (_, t0), (_, t1) in zip(stamps, stamps[1:]))
    # burst k leaves about 25 + 15 k ms after its deadline: every one misses
    # its slot, and the lag grows past 100 ms by the eighth
    assert producer.stats.late >= 7
    assert producer.stats.max_late_us >= 100_000


class LateWake(threading.Event):
    """A stop event whose third wait wakes 0.1 s late, as in a paused process."""

    def __init__(self):
        super().__init__()
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        if self.waits == 3:
            time.sleep(max(timeout, 0.0) + 0.1)
            return self.is_set()
        return super().wait(timeout)


def test_paced_producer_that_wakes_late_sends_only_the_newest():
    # the ten bursts that fall due during the late wake-up are stale by the
    # time the producer runs again: the newest replaces the others
    producer = BurstProducer(SceneSource("person", seed=5, config=SMALL), rate_hz=100.0,
                             max_bursts=20)
    producer._stop = LateWake()
    producer.bind()
    thread = threading.Thread(target=producer.serve, daemon=True)
    thread.start()
    consumer = BurstConsumer(f"127.0.0.1:{producer.bound_port}")
    list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()

    assert producer.stats.dropped >= 9
    assert consumer.stats.bursts + producer.stats.dropped == 20
    assert consumer.stats.order_regressions == 0
    assert consumer._last_id == 19


def test_stop_ends_a_paced_serve_before_the_next_deadline():
    src = SceneSource("person", seed=5, config=SMALL)
    producer, thread, endpoint = start_producer(src, rate_hz=0.25, max_bursts=None)
    with socket.create_connection(parse_endpoint(endpoint)) as sock:
        reader = FrameReader(sock.recv)
        assert reader.read_frame().kind == stream.KIND_CONFIG  # the connection is served
        started = time.monotonic()
        producer.stop()
        thread.join(timeout=10.0)
        elapsed = time.monotonic() - started
        assert elapsed < 0.5
        assert reader.read_frame() is None  # closed without a burst

    assert not thread.is_alive()
    assert producer.stats.sent == 0


@pytest.mark.parametrize("rate_hz", [0.0, 25.0])
def test_stop_ends_a_send_blocked_on_a_consumer_that_never_reads(rate_hz):
    # a default-size burst (24 KiB) overfills 8 KiB socket buffers, so the
    # producer's sendall blocks until stop() shuts the connection down
    src = SceneSource("person", seed=5, config=RadarConfig())
    producer, thread, endpoint = start_producer(src, rate_hz=rate_hz, max_bursts=None, sndbuf=8192)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
        sock.connect(parse_endpoint(endpoint))
        time.sleep(0.5)
        sent = producer.stats.sent
        time.sleep(0.2)
        assert thread.is_alive()
        assert producer.stats.sent == sent  # blocked, not sending
        started = time.monotonic()
        producer.stop()
        thread.join(timeout=1.0)
        assert not thread.is_alive(), f"serve alive {time.monotonic() - started:.1f} s after stop()"


def test_paced_stream_drops_only_what_a_stall_backs_up(tmp_path):
    # default-size bursts (24 KiB) fill 8 KiB socket buffers at once, so the
    # producer's keep-latest policy, not the kernel, absorbs a stalled
    # reader's backlog
    capture = tmp_path / "capture.mmse"
    make_capture(capture, RadarConfig(), count=3)
    producer, thread, endpoint = start_producer(
        ReplaySource(capture), rate_hz=100.0, max_bursts=40, sndbuf=8192
    )
    consumer = BurstConsumer(endpoint, rcvbuf=8192)
    stalled = False

    def stall_once(stats):
        nonlocal stalled
        if not stalled and stats.bursts == 5:
            stalled = True
            time.sleep(0.3)

    list(consumer.detections(pause_hook=stall_once))
    consumer.close()
    thread.join(timeout=10.0)

    assert consumer.stats.bursts + producer.stats.dropped == 40
    assert producer.stats.dropped >= 1
    assert consumer.stats.order_regressions == 0  # every id rose strictly
    assert consumer.stats.gap_bursts == producer.stats.dropped  # each drop is a missing id
    assert consumer._last_id == 39  # the last burst is never overwritten


def test_consumer_reconnect_resumes_id_sequence():
    # 8 KiB socket buffers hold about a hundred of these 284-byte bursts, so
    # the producer still has quota left when the first consumer hangs up
    src = SceneSource("person", seed=4, config=SMALL)
    producer, thread, endpoint = start_producer(
        src, rate_hz=0.0, max_bursts=400, sndbuf=8192
    )

    c1 = BurstConsumer(endpoint, rcvbuf=8192)
    seen1 = []

    def stop_after_10(stats):
        if stats.bursts >= 10:
            raise KeyboardInterrupt

    gen = c1.detections(pause_hook=stop_after_10)
    with pytest.raises(KeyboardInterrupt):
        list(gen)
    c1.close()

    c2 = BurstConsumer(endpoint)
    list(c2.detections())
    c2.close()
    thread.join(timeout=10.0)

    assert c1.stats.bursts == 10
    assert c2.stats.configs == 1  # fresh config frame on reconnect
    assert c2.stats.bursts >= 1
    assert c2.stats.order_regressions == 0
    assert c1.stats.bursts + c2.stats.bursts <= 400
    assert producer.stats.reconnects == 1


def test_consumer_survives_config_that_does_not_fit_model():
    # the model classifies (8, 4, 1) frames; this producer makes (16, 4, 1)
    mismatched = RadarConfig(chirps_per_burst=4, samples_per_chirp=16, channels=1)
    src = SceneSource("person_with_metal", seed=6, config=mismatched)
    producer, thread, endpoint = start_producer(src, rate_hz=0.0, max_bursts=20)
    consumer = BurstConsumer(endpoint, model=small_model())
    detections = list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)

    assert detections == []
    assert consumer.config is None  # no usable config
    assert consumer.stats.configs == 1
    assert consumer.stats.skipped_bursts == 20
    assert consumer.stats.bursts == 0
    assert producer.stats.sent == 20


def test_max_bursts_counts_skipped_bursts():
    # no burst fits the model, yet max_bursts still ends the run
    mismatched = RadarConfig(chirps_per_burst=4, samples_per_chirp=16, channels=1)
    src = SceneSource("person_with_metal", seed=6, config=mismatched)
    producer, thread, endpoint = start_producer(src, rate_hz=0.0, max_bursts=60)
    consumer = BurstConsumer(endpoint, model=small_model())
    detections = list(consumer.detections(max_bursts=10))
    consumer.close()
    producer.stop()
    thread.join(timeout=10.0)

    assert detections == []
    assert consumer.stats.frames == 11  # the config frame and 10 bursts
    assert consumer.stats.skipped_bursts == 10
    assert consumer.stats.bursts == 0


def serve_once(blob: bytes) -> tuple[threading.Thread, str]:
    """Accept one connection on loopback, send ``blob``, then close."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.sendall(blob)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, f"127.0.0.1:{port}"


def config_frame(payload: bytes) -> bytes:
    return encode_frame(WireFrame(
        kind=stream.KIND_CONFIG, burst_id=0, timestamp_us=0, payload=payload
    ))


def consume_blob(blob: bytes) -> tuple[BurstConsumer, list[tuple[int, int]]]:
    """Run a model-backed consumer over ``blob``; returns it and its windows."""
    thread, endpoint = serve_once(blob)
    consumer = BurstConsumer(endpoint, model=small_model())
    detections = list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)
    return consumer, [(d.first_burst_id, d.last_burst_id) for d in detections]


def test_config_frame_restarts_window():
    # fitting config, 9 bursts; unfitting config, 3 bursts; fitting config,
    # 8 bursts: windows never span a config frame
    big = RadarConfig(chirps_per_burst=4, samples_per_chirp=16, channels=1)
    fit_src = SceneSource("person", seed=7, config=SMALL)
    big_src = SceneSource("person", seed=7, config=big)
    blob, next_id = [], 0
    for config, source, count in ((SMALL, fit_src, 9), (big, big_src, 3), (SMALL, fit_src, 8)):
        blob.append(config_frame(encode_config_payload(config)))
        for _ in range(count):
            blob.append(source.next_payload(next_id, next_id))
            next_id += 1
    consumer, windows = consume_blob(b"".join(blob))

    assert windows == [(0, 7), (1, 8), (12, 19)]
    assert consumer.stats.configs == 3
    assert consumer.stats.config_mismatches == 1
    assert consumer.stats.skipped_bursts == 3
    assert consumer.stats.bursts == 17
    assert consumer.config == SMALL


# (chirps, samples, channels, prf_hz, burst_rate_hz, center_freq_hz, bandwidth_hz)
_FIELDS = stream._CONFIG_PAYLOAD.unpack(encode_config_payload(SMALL))


@pytest.mark.parametrize("payload", [
    pytest.param(b"\x00" * 5, id="short"),
    pytest.param(stream._CONFIG_PAYLOAD.pack(*_FIELDS[:2], 0, *_FIELDS[3:]), id="no_channels"),
    pytest.param(
        stream._CONFIG_PAYLOAD.pack(*_FIELDS[:3], float("nan"), *_FIELDS[4:]), id="nan_prf"
    ),
])
def test_undecodable_config_and_id_regression_restart_window(payload):
    # fitting config, ids 0-8; a config frame that does not decode, ids 9-11
    # (skipped although they fit: no usable config); fitting config, ids
    # 12-19, then ids falling back to 5 and rising to 12
    src = SceneSource("person", seed=7, config=SMALL)
    good = config_frame(encode_config_payload(SMALL))
    blob = [good, *(src.next_payload(i, i) for i in range(9)), config_frame(payload)]
    blob += [src.next_payload(i, i) for i in range(9, 12)]
    blob += [good, *(src.next_payload(i, i) for i in (*range(12, 20), *range(5, 13)))]
    consumer, windows = consume_blob(b"".join(blob))

    assert windows == [(0, 7), (1, 8), (12, 19), (5, 12)]
    assert consumer.stats.other_errors == 1
    assert consumer.stats.configs == 2
    assert consumer.stats.skipped_bursts == 3
    assert consumer.stats.bursts == 25
    assert consumer.stats.order_regressions == 1
    assert consumer.config == SMALL


def test_id_gap_restarts_window_and_counts_missing_ids():
    # ids 0-9, then 14-22: no window spans the four missing ids
    src = SceneSource("person", seed=7, config=SMALL)
    ids = (*range(10), *range(14, 23))
    blob = [config_frame(encode_config_payload(SMALL)), *(src.next_payload(i, i) for i in ids)]
    consumer, windows = consume_blob(b"".join(blob))

    assert windows == [(0, 7), (1, 8), (2, 9), (14, 21), (15, 22)]
    assert consumer.stats.gap_bursts == 4
    assert consumer.stats.order_regressions == 0
    assert consumer.stats.bursts == 19


def test_unknown_kinds_are_counted_and_leave_the_window_alone():
    # a kind-2 and a kind-7 frame, CRC-valid, between bursts 4 and 5
    src = SceneSource("person", seed=7, config=SMALL)
    blob = [config_frame(encode_config_payload(SMALL)), *(src.next_payload(i, i) for i in range(5))]
    blob += [
        encode_frame(WireFrame(kind=kind, burst_id=5, timestamp_us=5, payload=b"??"))
        for kind in (2, 7)
    ]
    blob += [src.next_payload(i, i) for i in range(5, 10)]
    consumer, windows = consume_blob(b"".join(blob))

    assert windows == [(0, 7), (1, 8), (2, 9)]
    assert consumer.stats.unknown_kinds == 2
    assert consumer.stats.frames == 13  # the config, 10 bursts and the two others
    assert consumer.stats.other_errors == 0
    assert consumer.stats.gap_bursts == 0


def test_burst_that_does_not_decode_restarts_window():
    # ids 0-14 with burst 4's payload 8 bytes short under a valid CRC: no
    # window spans the burst that was skipped
    src = SceneSource("person", seed=7, config=SMALL)
    raws = [src.next_payload(i, i) for i in range(15)]
    short = decode_frame(raws[4])
    raws[4] = encode_frame(WireFrame(short.kind, 4, 4, short.payload[:-8]))
    consumer, windows = consume_blob(config_frame(encode_config_payload(SMALL)) + b"".join(raws))

    assert windows == [(5, 12), (6, 13), (7, 14)]
    assert consumer.stats.skipped_bursts == 1
    assert consumer.stats.bursts == 14
    assert consumer.stats.gap_bursts == 0


@pytest.mark.parametrize("damage, count", CORRUPTIONS)
def test_consumer_counts_one_error_for_one_damaged_frame(damage, count):
    _, blob = damaged_stream(damage, count)
    thread, endpoint = serve_once(config_frame(encode_config_payload(RadarConfig())) + blob)
    consumer = BurstConsumer(endpoint)  # no model: every burst is decoded and run through the DSP
    list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)

    assert consumer.stats.crc_errors + consumer.stats.other_errors == 1
    assert consumer.stats.bursts == count - 1
    assert consumer.stats.gap_bursts == 1  # id 10
