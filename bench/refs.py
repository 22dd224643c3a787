"""Reference floors: what the machine gives raw sockets, same two processes.

``call_p50_us`` reads as a multiple of ``ref.socket_rtt_us`` and
``h2d_MiB_per_s`` as a share of ``ref.socket_MiB_per_s`` (ROADMAP's
"within 2x of a raw socket copy"): the floors move with the host, the
multiples with our code.
"""

from __future__ import annotations

import socket
import statistics
import time

from bench import MIB
from bench.serverproc import ServerChild

PINGS = 2000
PING_BYTES = 48
COPIES = 6
SIZE = 16 * MIB


def _recv_exact(conn: socket.socket, view: memoryview) -> None:
    got = 0
    while got < len(view):
        n = conn.recv_into(view[got:])
        if n == 0:
            raise ConnectionError("echo port closed")
        got += n


def measure() -> dict[str, float]:
    child = ServerChild()
    try:
        with socket.create_connection(("127.0.0.1", child.echo_port)) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            now = time.perf_counter_ns
            ping = (PING_BYTES - 4).to_bytes(4, "big") + bytes(PING_BYTES - 4)
            reply = memoryview(bytearray(PING_BYTES))
            rtts = []
            for _ in range(PINGS):
                start = now()
                conn.sendall(ping)
                _recv_exact(conn, reply)
                rtts.append(now() - start)
            header = SIZE.to_bytes(4, "big")
            payload = bytes(SIZE)
            ack = memoryview(bytearray(4))
            rates = []
            for _ in range(COPIES):
                start = now()
                conn.sendall(header)
                conn.sendall(payload)
                _recv_exact(conn, ack)
                rates.append(SIZE / MIB / ((now() - start) / 1e9))
        return {
            "ref.socket_rtt_us": statistics.median(rtts) / 1e3,
            "ref.socket_MiB_per_s": statistics.median(rates),
        }
    finally:
        child.stop()
