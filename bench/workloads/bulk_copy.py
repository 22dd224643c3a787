"""bulk_copy: the paper's Fig 7 bandwidthTest, scaled to fit.

Alternating ``memcpy_h2d`` / ``memcpy_d2h`` of 16 MiB (16 fragments at the
default 1 MiB fragment size) on one device buffer over TCP, the payload
alternating between two seeded random buffers.

Why: the byte-moving path (``rpcl`` opaque encode/decode, ``oncrpc.record``
fragment/reassemble, ``oncrpc.transport`` socket I/O, ``gpu`` memory
write/read) does the work and per-call cost is under 0.5 %.  H2D and D2H
run the same layers in opposite roles -- client encodes and server
reassembles, then the reverse -- so a zero-copy change that helps one
direction and costs the other shows in ``detail.h2d_MiB_per_s`` against
``detail.d2h_MiB_per_s``.
"""

from __future__ import annotations

import time

import numpy as np

from bench import MIB
from bench.workloads import Segment
from bench.workloads.sockets import SocketWorkload

SIZE = 16 * MIB
WARMUP_PAIRS = 3
SEGMENTS = 40


class BulkCopy(SocketWorkload):
    name = "bulk_copy"
    fixed_ops = 16  # 8 copy pairs

    def setup(self) -> None:
        self.connect()
        self.base_used = self.used_bytes()
        rng = np.random.default_rng(self.seed)
        self.payloads = [rng.bytes(SIZE), rng.bytes(SIZE)]
        self.buffer = self.client.malloc(SIZE)
        self.pairs = 0
        self._segment(WARMUP_PAIRS, None)

    def _segment(self, pairs: int | None, seconds: float | None) -> Segment:
        client, buffer = self.client, self.buffer
        now = time.perf_counter_ns
        h2d_ns = d2h_ns = done = 0
        cpu_before = self.cpu_s()
        deadline = None if seconds is None else now() + int(seconds * 1e9)
        while done < pairs if pairs is not None else (done == 0 or now() < deadline):
            payload = self.payloads[self.pairs % 2]
            data = b""
            t0 = now()
            try:
                client.memcpy_h2d(buffer, payload)
                t1 = now()
                data = client.memcpy_d2h(buffer, SIZE)
            except Exception as exc:
                self.fail(f"{type(exc).__name__}: {exc}", 2)
                t1 = now()
            t2 = now()
            h2d_ns += t1 - t0
            d2h_ns += t2 - t1
            # output check, outside the timed spans
            if self.fault == "flip_byte" and self.pairs == 0:
                data = bytes([data[0] ^ 1]) + data[1:]
            if data and data != payload:
                self.fail("memcpy_d2h did not return the bytes last written")
            self.pairs += 1
            done += 1
        self.attempted += 2 * done
        cpu_s = self.cpu_s() - cpu_before
        mib = done * SIZE / MIB
        return Segment(
            ops=2 * done, wall_s=(h2d_ns + d2h_ns) / 1e9, cpu_s=cpu_s,
            detail={
                "detail.h2d_MiB_per_s": mib / (h2d_ns / 1e9),
                "detail.d2h_MiB_per_s": mib / (d2h_ns / 1e9),
            },
        )

    def run_timed(self, seconds: float) -> list[Segment]:
        return [self._segment(None, seconds / SEGMENTS) for _ in range(SEGMENTS)]

    def run_fixed(self) -> Segment:
        return self._segment(self.fixed_ops // 2, None)

    def check(self) -> None:
        self.client.free(self.buffer)
        if self.used_bytes() != self.base_used:
            self.fail("server used_bytes did not return to its pre-run value")
