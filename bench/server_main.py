"""The server half of the two socket workloads, as a child process.

Runs ``CricketServer([GpuDevice(A100, mem_bytes=256 MiB)])`` with default
planes on 127.0.0.1 and prints one JSON line with its ports.  Beside the
RPC port it opens a raw echo port, so the reference floors (`ref.*`) are
measured between the same two processes as the workloads.  Each ``stat``
line on stdin is answered with the allocator's ``used_bytes``, the
process's CPU seconds and ``ru_maxrss``; on stdin EOF -- the generator
finished, or died -- it reports once more and shuts down.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import sys
import threading
import time

from bench import MIB

#: echo-port messages up to this size are echoed whole; larger ones are
#: acknowledged with 4 bytes (the shape of a bulk upload)
ECHO_LIMIT = 1024


def _recv_exact(conn: socket.socket, view: memoryview) -> bool:
    got = 0
    while got < len(view):
        n = conn.recv_into(view[got:])
        if n == 0:
            return False
        got += n
    return True


def _echo_connection(conn: socket.socket) -> None:
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    header = bytearray(4)
    buffer = bytearray(16 * MIB)
    with conn:
        while _recv_exact(conn, memoryview(header)):
            length = int.from_bytes(header, "big")
            if length > len(buffer):
                return
            body = memoryview(buffer)[:length]
            if not _recv_exact(conn, body):
                return
            conn.sendall(bytes(header) + bytes(body) if length <= ECHO_LIMIT else header)


def _echo_loop(listener: socket.socket) -> None:
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # listener closed: shutting down
        threading.Thread(target=_echo_connection, args=(conn,), daemon=True).start()


def main() -> int:
    from repro.cricket import CricketServer
    from repro.gpu import A100, GpuDevice

    device = GpuDevice(A100, mem_bytes=256 * MIB)
    server = CricketServer([device])
    _, port = server.serve_tcp("127.0.0.1", 0)
    listener = socket.create_server(("127.0.0.1", 0))
    threading.Thread(target=_echo_loop, args=(listener,), daemon=True).start()

    def report(**extra: object) -> None:
        stat = {
            "used_bytes": device.allocator.used_bytes,
            "cpu_s": time.process_time(),
            "maxrss_KiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        print(json.dumps({**stat, **extra}), flush=True)

    report(port=port, echo_port=listener.getsockname()[1], pid=os.getpid())
    try:
        for line in sys.stdin:
            if line.strip() == "stat":
                report()
        report()
    finally:
        listener.close()
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
