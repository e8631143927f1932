"""Paced burst generator for the stream_tcp_paced workload.

Runs as its own process, so the process under test does no sending.  It
listens on a free loopback port and prints {"port": n} as its first stdout
line.  When the consumer connects it sends the capture's config frame, then
burst i at due time t0 + i / rate on CLOCK_MONOTONIC (shared by every process
on the host), whether or not the consumer keeps up.  It sleeps until
SPIN_NS before each due time and spins from there, since waking from a
sleep ran up to milliseconds late on a virtual machine.  Each frame is stamped
with its due time in microseconds.  When done it prints one JSON line with
t0, the count sent and how late each send started relative to its due time.

    python3 perfbench/generator.py --capture pool.bin --bursts 1500 --rate 100
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mmsentry import stream  # noqa: E402

LEAD_NS = 100_000_000  # first due time, after the consumer is reading
SPIN_NS = 1_000_000  # sleep until this long before a due time, then spin
TIMEOUT_S = 30.0  # for the consumer to connect, and to hang up at the end


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", required=True, help="file of encoded wire frames")
    parser.add_argument("--bursts", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True, help="bursts per second")
    args = parser.parse_args()

    source = stream.ReplaySource(args.capture)
    period_ns = round(1e9 / args.rate)
    late_ns = []
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(TIMEOUT_S)
        print(json.dumps({"port": listener.getsockname()[1]}), flush=True)
        conn, _ = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = time.monotonic_ns() + LEAD_NS
        conn.sendall(
            stream.encode_frame(
                stream.WireFrame(
                    kind=stream.KIND_CONFIG,
                    burst_id=0,
                    timestamp_us=t0 // 1000,
                    payload=stream.encode_config_payload(source.config),
                )
            )
        )
        for i in range(args.bursts):
            due = t0 + i * period_ns
            data = source.next_payload(i, due // 1000)
            wait = due - SPIN_NS - time.monotonic_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            while time.monotonic_ns() < due:
                pass
            started = time.monotonic_ns()
            conn.sendall(data)
            late_ns.append(started - due)
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(TIMEOUT_S)
        while conn.recv(4096):  # wait for the consumer to hang up
            pass
    print(json.dumps({"t0_ns": t0, "period_ns": period_ns, "sent": len(late_ns),
                      "late_ns": late_ns}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
