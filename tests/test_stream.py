"""Wire protocol, framing resync, and the producer/consumer pair."""

import io
import socket
import threading
import time

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
    write_detections_csv,
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

    versioned = encode_frame(
        WireFrame(kind=1, burst_id=1, timestamp_us=2, payload=b"xyz", version=2)
    )
    with pytest.raises(UnsupportedVersionError):
        decode_frame(versioned)


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
    future = WireFrame(kind=1, burst_id=5, timestamp_us=6, payload=b"new", version=3)
    reader = reader_over(encode_frame(f1) + encode_frame(future) + encode_frame(f3))
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
# Depth-1 hand-off slot


def test_latest_slot_keeps_newest_and_counts_overwrites():
    slot = stream._LatestSlot()
    assert slot.put_latest(b"a") is False
    assert slot.put_latest(b"b") is True  # "a" was never taken
    assert slot.take(timeout=0.1) == b"b"
    assert slot.take(timeout=0.01) is None


def test_latest_slot_lossless_mode_blocks():
    slot = stream._LatestSlot()
    out = []

    def drain():
        for _ in range(3):
            item = None
            while item is None:
                item = slot.take(timeout=0.05)
            out.append(item)

    consumer = threading.Thread(target=drain)
    consumer.start()
    for item in (b"1", b"2", b"3"):
        slot.put_wait(item)
    consumer.join(timeout=5.0)
    assert out == [b"1", b"2", b"3"]
    slot.close()


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


def test_consumer_reconnect_resumes_id_sequence():
    src = SceneSource("person", seed=4, config=SMALL)
    producer, thread, endpoint = start_producer(src, rate_hz=0.0, max_bursts=40)

    c1 = BurstConsumer(endpoint)
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
    assert c1.stats.bursts + c2.stats.bursts <= 40
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


def test_config_frame_restarts_window():
    # fitting config, 9 bursts; unfitting config, 3 bursts; fitting config,
    # 8 bursts: windows never span a config frame
    big = RadarConfig(chirps_per_burst=4, samples_per_chirp=16, channels=1)
    fit_src = SceneSource("person", seed=7, config=SMALL)
    big_src = SceneSource("person", seed=7, config=big)
    blob, next_id = [], 0
    for config, source, count in ((SMALL, fit_src, 9), (big, big_src, 3), (SMALL, fit_src, 8)):
        blob.append(encode_frame(WireFrame(
            kind=stream.KIND_CONFIG, burst_id=next_id, timestamp_us=0,
            payload=encode_config_payload(config),
        )))
        for _ in range(count):
            blob.append(source.next_payload(next_id, next_id))
            next_id += 1
    thread, endpoint = serve_once(b"".join(blob))
    consumer = BurstConsumer(endpoint, model=small_model())
    detections = list(consumer.detections())
    consumer.close()
    thread.join(timeout=10.0)

    windows = [(d.first_burst_id, d.last_burst_id) for d in detections]
    assert windows == [(0, 7), (1, 8), (12, 19)]
    assert consumer.stats.configs == 3
    assert consumer.stats.skipped_bursts == 3
    assert consumer.stats.bursts == 17
    assert consumer.config == SMALL


# ---------------------------------------------------------------------------
# Detection CSV


def test_write_detections_csv(tmp_path):
    rows = [
        Detection(0, 7, 0.75, 1, 1500),
        Detection(1, 8, 0.25, 0, 1600),
    ]
    path = tmp_path / "out.csv"
    assert write_detections_csv(path, iter(rows)) == 2
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "burst_id,probability,decision,latency_us"
    assert lines[1] == "7,0.750000,1,1500"
    assert lines[2] == "8,0.250000,0,1600"
