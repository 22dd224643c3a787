"""launch_storm: the paper's Fig 6 micro-calls plus the matrixMul inner loop.

A seeded shuffle of a 16-call cycle -- 12 x ``launch_kernel(saxpy,
n=256)`` doing ``y += 1*x``, 2 x ``get_device_count``, one ``malloc(s)``
and one ``free``, ``s`` drawn from {256, 4 KiB, 64 KiB} -- over TCP, every
record under 200 bytes.

Why: per-call cost is everything here.  ``rpcl``/``xdr``,
``oncrpc.message``, ``oncrpc.client``, ``oncrpc.server`` and
``cricket.server`` do most of the work and the bulk path of
``oncrpc.record`` does none; compiled stubs, a staged dispatch pipeline
and batched launches must show here.
"""

from __future__ import annotations

import random
import time

import numpy as np

from bench.stats import percentile
from bench.workloads import Segment
from bench.workloads.sockets import SocketWorkload

N = 256  # floats per vector
CYCLE = ("launch",) * 12 + ("count",) * 2 + ("malloc", "free")
SIZES = (256, 4 << 10, 64 << 10)
PATTERN_CYCLES = 64
WARMUP_CALLS = 500
SEGMENTS = 80


class LaunchStorm(SocketWorkload):
    name = "launch_storm"
    fixed_ops = 2000

    def setup(self) -> None:
        from repro.cubin.loader import build_cubin_for_registry, load_cubin
        from repro.gpu.kernels import build_default_registry

        self.connect()
        client = self.client
        self.base_used = self.used_bytes()
        cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
        module = client.module_load(cubin)
        meta = load_cubin(cubin).metadata.kernel("saxpy")
        self.function = client.get_function(module, "saxpy", meta)
        self.x = client.malloc(4 * N)
        self.y = client.malloc(4 * N)
        client.memcpy_h2d(self.x, np.ones(N, dtype=np.float32).tobytes())
        client.memcpy_h2d(self.y, np.zeros(N, dtype=np.float32).tobytes())
        self.persistent_used = self.used_bytes()
        self.launches = 0
        self.skipped = 0
        self.calls_before = client.calls_made
        self.cycles = self._build_cycles()
        self.cursor = 0
        self._run_cycles(-(-WARMUP_CALLS // len(CYCLE)), None)

    def _build_cycles(self) -> list[list]:
        """Pre-bound zero-argument ops, so the timed loop adds no work."""
        client, function, x, y = self.client, self.function, self.x, self.y
        pending: list[int] = []

        def launch() -> None:
            client.launch_kernel(function, (1, 1, 1), (N, 1, 1), (y, x, 1.0, N))
            self.launches += 1

        def skipped_launch() -> None:  # test-only: counted but never sent
            self.launches += 1
            self.skipped += 1

        def count() -> None:
            if client.get_device_count() != 1:
                raise RuntimeError("get_device_count() != 1")

        def malloc_of(size: int):
            return lambda: pending.append(client.malloc(size))

        def free() -> None:
            client.free(pending.pop())

        rng = random.Random(self.seed)
        cycles = []
        for _ in range(PATTERN_CYCLES):
            kinds = list(CYCLE)
            rng.shuffle(kinds)
            first, second = sorted((kinds.index("malloc"), kinds.index("free")))
            kinds[first], kinds[second] = "malloc", "free"
            ops = {"launch": launch, "count": count, "free": free,
                   "malloc": malloc_of(rng.choice(SIZES))}
            cycles.append([ops[kind] for kind in kinds])
        if self.fault == "skip_launch":
            cycle = cycles[0]
            cycle[cycle.index(launch)] = skipped_launch
        return cycles

    def _run_cycles(self, cycles: int | None, deadline_ns: int | None) -> list[int]:
        """Run whole cycles until the count or the deadline; per-op ns."""
        latencies: list[int] = []
        record = latencies.append
        now = time.perf_counter_ns
        done = 0
        while done < cycles if cycles is not None else (done == 0 or now() < deadline_ns):
            for op in self.cycles[self.cursor % PATTERN_CYCLES]:
                start = now()
                try:
                    op()
                except Exception as exc:  # counted, never fatal: a failed op
                    self.fail(f"{type(exc).__name__}: {exc}")
                record(now() - start)
            self.cursor += 1
            done += 1
        self.attempted += len(latencies)
        return latencies

    def _segment(self, cycles: int | None, seconds: float | None) -> Segment:
        cpu_before = self.cpu_s()
        start = time.perf_counter_ns()
        deadline = None if seconds is None else start + int(seconds * 1e9)
        latencies = self._run_cycles(cycles, deadline)
        wall_s = (time.perf_counter_ns() - start) / 1e9
        cpu_s = self.cpu_s() - cpu_before
        latencies.sort()
        return Segment(
            ops=len(latencies), wall_s=wall_s, cpu_s=cpu_s,
            detail={
                "detail.call_p50_us": percentile(latencies, 0.50) / 1e3,
                "detail.call_p99_us": percentile(latencies, 0.99) / 1e3,
            },
        )

    def run_timed(self, seconds: float) -> list[Segment]:
        return [self._segment(None, seconds / SEGMENTS) for _ in range(SEGMENTS)]

    def run_fixed(self) -> Segment:
        return self._segment(self.fixed_ops // len(CYCLE), None)

    def check(self) -> None:
        client = self.client
        issued = client.calls_made - self.calls_before
        if issued != self.attempted - self.skipped:
            self.fail(f"calls_made grew by {issued}, ops issued {self.attempted}")
        client.device_synchronize()
        y = np.frombuffer(client.memcpy_d2h(self.y, 4 * N), dtype=np.float32)
        self.attempted += 1
        if not np.all(y == np.float32(self.launches)):
            self.fail(f"y reads {y[0]} after {self.launches} launches")
        if self.used_bytes() != self.persistent_used:
            self.fail("server used_bytes did not return to its pre-run value")
        client.free(self.y)
        client.free(self.x)
        if self.used_bytes() != self.base_used:
            self.fail("server used_bytes did not return to zero after cleanup")
