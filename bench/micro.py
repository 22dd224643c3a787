"""Each layer timed alone, on inputs captured where they crossed it.

One real launch, one 16 MiB upload and one ``get_device_count`` go through
an in-process client whose transport keeps the records that passed; the
``micro.*`` metrics then replay those records and the values decoded from
them against a single layer at a time.  A layer metric that falls should
move the end-to-end metric the README's interaction table names for it.
"""

from __future__ import annotations

import itertools
import statistics
import time
import tracemalloc
from typing import Callable

from bench import MIB

SIZE = 16 * MIB
BATCHES = 5


def per_call_s(fn: Callable[[], object], budget_s: float) -> float:
    """Median over ``BATCHES`` batches of the mean seconds per call."""
    now = time.perf_counter_ns
    start = now()
    fn()
    first = max(now() - start, 100)
    loops = max(1, min(100_000, int(budget_s * 1e9 / BATCHES / first)))
    samples = []
    for _ in range(BATCHES):
        start = now()
        for _ in range(loops):
            fn()
        samples.append((now() - start) / loops)
    return statistics.median(samples) / 1e9


class _Recording:
    """A transport that remembers the last record each way."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sent = b""

    def send_record(self, record: bytes) -> None:
        self.sent = record
        self.inner.send_record(record)

    def recv_record(self) -> bytes:
        return self.inner.recv_record()

    def close(self) -> None:
        self.inner.close()


def _loopback_rig(mem_bytes: int):
    """(server, client, recording transport) over ``LoopbackTransport``."""
    from repro.cricket import CricketClient, CricketServer
    from repro.gpu import A100, GpuDevice
    from repro.oncrpc.transport import LoopbackTransport

    server = CricketServer([GpuDevice(A100, mem_bytes=mem_bytes)])
    session: dict = {}
    transport = _Recording(
        LoopbackTransport(lambda record: server.dispatch_record(record, session=session))
    )
    return server, CricketClient(transport), transport


def measure(budget_s: float) -> dict[str, float]:
    import numpy as np

    from repro.cricket import params as kparams
    from repro.cricket.client import cricket_interface
    from repro.cubin.loader import build_cubin_for_registry, load_cubin
    from repro.gpu.kernels import build_default_registry
    from repro.gpu.memory import DeviceAllocator
    from repro.net.simclock import SimClock
    from repro.oncrpc.message import RpcMessage
    from repro.oncrpc.record import RecordReader, append_crc, encode_record, verify_crc
    from repro.resilience.overload import OverloadConfig, OverloadController
    from repro.unikernel import rustyhermit
    from repro.unikernel.platform import PlatformMeter
    from repro.unikernel.presets import path_for
    from repro.xdr import XdrEncoder

    server, client, wire = _loopback_rig(64 * MIB)
    signatures = cricket_interface().signatures

    # -- capture ---------------------------------------------------------------
    cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
    meta = load_cubin(cubin).metadata.kernel("saxpy")
    function = client.get_function(client.module_load(cubin), "saxpy", meta)
    x, y = client.malloc(1024), client.malloc(1024)
    client.memcpy_h2d(x, np.ones(256, dtype=np.float32).tobytes())
    client.launch_kernel(function, (1, 1, 1), (256, 1, 1), (y, x, 1.0, 256))
    wire_launch = wire.sent
    launch_message = RpcMessage.decode(wire_launch)
    launch_sig = signatures["rpc_cuLaunchKernel"]
    launch_bytes = launch_message.body.args
    launch_values = launch_sig.decode_args(launch_bytes)
    big = client.malloc(SIZE)
    client.memcpy_h2d(big, np.random.default_rng(0).bytes(SIZE))
    h2d_sig = signatures["rpc_cudaMemcpyH2D"]
    h2d_record = wire.sent
    h2d_bytes = RpcMessage.decode(h2d_record).body.args
    h2d_values = h2d_sig.decode_args(h2d_bytes)
    client.get_device_count()
    count_tail = wire.sent[4:]
    count_record = wire.sent

    # -- replay ----------------------------------------------------------------
    framed = memoryview(encode_record(h2d_record))

    def reassemble() -> bytes:
        cursor = 0

        def read(n: int) -> bytes:
            nonlocal cursor
            chunk = framed[cursor:cursor + n]
            cursor += len(chunk)
            return chunk.tobytes()

        return RecordReader(read).read_record()

    xids = itertools.count(1)
    session: dict = {}
    overload = OverloadController(OverloadConfig(), now_ns=lambda: 0)

    def admit_release() -> None:
        overload.acquire("micro", 1)
        overload.release()

    def pack_1000_uint() -> bytes:
        enc = XdrEncoder()
        for i in range(1000):
            enc.pack_uint(i)
        return enc.getvalue()

    # the packed parameter block, unpacked the way the server does it
    launch_args = kparams.unpack_params(meta, launch_values[3])
    driver = server.driver
    allocator = DeviceAllocator(64 * MIB)
    meter = PlatformMeter(path_for(rustyhermit()), SimClock())
    small = bytes(200)

    probes: dict[str, tuple[Callable[[], object], float]] = {
        "micro.rpcl.encode_launch_us": (lambda: launch_sig.encode_args(launch_values), 1e6),
        "micro.rpcl.decode_launch_us": (lambda: launch_sig.decode_args(launch_bytes), 1e6),
        "micro.rpcl.encode_h2d_16MiB_ms": (lambda: h2d_sig.encode_args(h2d_values), 1e3),
        "micro.rpcl.decode_h2d_16MiB_ms": (lambda: h2d_sig.decode_args(h2d_bytes), 1e3),
        "micro.xdr.pack_1000_uint_us": (pack_1000_uint, 1e6),
        "micro.message.encode_call_us": (launch_message.encode, 1e6),
        "micro.message.decode_call_us": (lambda: RpcMessage.decode(wire_launch), 1e6),
        "micro.record.frame_200B_us": (lambda: encode_record(small), 1e6),
        "micro.record.frame_16MiB_ms": (lambda: encode_record(h2d_record), 1e3),
        "micro.record.reassemble_16MiB_ms": (reassemble, 1e3),
        "micro.record.crc_16MiB_ms": (lambda: verify_crc(append_crc(h2d_record)), 1e3),
        "micro.server.dispatch_miss_us": (
            lambda: server.dispatch_record(
                next(xids).to_bytes(4, "big") + count_tail, session=session), 1e6),
        "micro.server.dispatch_cache_hit_us": (
            lambda: server.dispatch_record(count_record, session=session), 1e6),
        "micro.overload.admit_release_us": (admit_release, 1e6),
        "micro.cuda.launch_us": (
            lambda: driver.cuLaunchKernel(function, (1, 1, 1), (256, 1, 1), launch_args), 1e6),
        "micro.gpu.alloc_free_us": (lambda: allocator.free(allocator.alloc(4096)), 1e6),
        "micro.unikernel.meter_send_us": (lambda: meter.on_send(150), 1e6),
    }
    each = budget_s / len(probes)
    result = {name: per_call_s(fn, each) * scale for name, (fn, scale) in probes.items()}
    client.close()
    return result


def alloc_peaks() -> dict[str, float]:
    """``tracemalloc`` peak during one 16 MiB copy / payload bytes, per direction.

    Client and server share this process and thread (``LoopbackTransport``:
    same framing and reassembly as TCP, no socket), so the allocation
    sequence, and with it the ratio, repeats exactly.  It counts every live
    copy of the payload either side holds at the worst moment -- what a
    zero-copy change must lower.
    """
    import numpy as np

    _, client, _ = _loopback_rig(64 * MIB)
    payload = np.random.default_rng(0).bytes(SIZE)
    buffer = client.malloc(SIZE)
    client.memcpy_h2d(buffer, payload)  # warm both paths
    client.memcpy_d2h(buffer, SIZE)
    peaks = {}
    tracemalloc.start()
    try:
        for name, copy in (
            ("alloc.h2d_peak_ratio", lambda: client.memcpy_h2d(buffer, payload)),
            ("alloc.d2h_peak_ratio", lambda: client.memcpy_d2h(buffer, SIZE)),
        ):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            copy()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / SIZE
    finally:
        tracemalloc.stop()
        client.close()
    return peaks
