"""Device-to-host replies are sent from pinned device memory.

A D2H reply references its allocation instead of copying it
(:class:`~repro.gpu.memory.PinnedSpan`), so the allocation is copy-on-write
while the reply is in flight.  The race table holds that promise over TCP:
a reader with a tiny receive buffer asks for 16 MiB and stalls, and while
the server is stuck sending to it a second connection writes, frees,
launches over, clears or fails over the same allocation.  Each time:

* the reader receives the bytes as of its call;
* the mutating call returns while the reader is still stalled;
* every pin is let go once the reply has gone, however it goes.

Run under ``REPRO_DEBUG_ALLOCATOR=1`` (as CI does) every swap is followed
by the allocator's invariant check.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.spec import cricket_interface
from repro.cubin.loader import build_cubin_for_registry, load_cubin
from repro.gpu import A100, GpuDevice
from repro.gpu.kernels import build_default_registry
from repro.oncrpc import message as msg
from repro.oncrpc.record import encode_record, read_record_reference
from repro.oncrpc.transport import LoopbackTransport
from repro.resilience.faults import FaultInjectingTransport, FaultPlan
from repro.xdr.encoder import GatherRecord

MIB = 1 << 20
SIZE = 16 * MIB
IFACE = cricket_interface()
D2H = IFACE.signatures["rpc_cudaMemcpyD2H"]


def payload_of(length: int, seed: int) -> bytes:
    """``length`` bytes of finite float32s (a kernel adds to them)."""
    return np.random.default_rng(seed).random(length // 4, dtype=np.float32).tobytes()


def d2h_call(xid: int, ptr: int, size: int) -> bytearray:
    return msg.RpcMessage(
        xid,
        msg.CallBody(
            IFACE.prog_number, IFACE.vers_number, D2H.number,
            args=bytes(D2H.encode_args((ptr, size))),
        ),
    ).encode()


def payload_of_reply(reply) -> bytes:
    return bytes(D2H.decode_result(msg.RpcMessage.decode(reply).body.results)["data"])


def wait_for(condition, what: str, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.002)


class StalledReader:
    """A raw connection that asks for one D2H and reads nothing until told.

    Its receive buffer is a few KiB, so a 16 MiB reply fills the socket
    buffers and the server's ``sendmsg`` blocks mid-reply.
    """

    def __init__(self, address, ptr: int, size: int) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.settimeout(30)
        self.sock.connect(address)
        self.sock.sendall(encode_record(d2h_call(0xD2, ptr, size)))

    def drain(self) -> bytes:
        try:
            return payload_of_reply(read_record_reference(self.sock.recv))
        finally:
            self.sock.close()

    def reset(self) -> None:
        """Tear the connection down with a RST, mid-reply."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.sock.close()


def _server(**kwargs) -> CricketServer:
    devices = [GpuDevice(A100, ordinal=i, mem_bytes=64 * MIB) for i in range(2)]
    return CricketServer(devices, **kwargs)


@pytest.fixture
def node(request):
    """(server, its address, a client, a 16 MiB buffer holding payload 1);
    the parameter says whether the server is sanitized."""
    server = _server(sanitizer=request.param)
    address = server.serve_tcp()
    helper = CricketClient.connect_tcp(*address, io_timeout=10)
    buffer = helper.malloc(SIZE)
    helper.memcpy_h2d(buffer, payload_of(SIZE, 1))
    yield server, address, helper, buffer
    helper.close()
    server.shutdown()


def saxpy_over(helper: CricketClient, buffer: int) -> None:
    """A kernel adding 1.0 to the first 256 floats of ``buffer``."""
    cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
    meta = load_cubin(cubin).metadata.kernel("saxpy")
    function = helper.get_function(helper.module_load(cubin), "saxpy", meta)
    x = helper.malloc(1024)
    helper.memcpy_h2d(x, np.ones(256, dtype=np.float32))
    helper.launch_kernel(function, (1, 1, 1), (256, 1, 1), (buffer, x, 1.0, 256))
    helper.device_synchronize()


def _overwrite(server, helper, buffer):
    helper.memcpy_h2d(buffer, payload_of(SIZE, 2))
    return lambda: helper.memcpy_d2h(buffer, SIZE) == payload_of(SIZE, 2)


def _free(server, helper, buffer):
    helper.free(buffer)
    return lambda: not server.devices[0].allocator.is_live(buffer)


def _kernel(server, helper, buffer):
    saxpy_over(helper, buffer)
    before = np.frombuffer(payload_of(SIZE, 1)[:1024], dtype=np.float32)
    return lambda: np.array_equal(
        np.frombuffer(helper.memcpy_d2h(buffer, 1024), dtype=np.float32), before + 1.0
    )


def _memset(server, helper, buffer):
    helper.memset(buffer, 0, SIZE)
    return lambda: helper.memcpy_d2h(buffer, SIZE) == bytes(SIZE)


def _failover(server, helper, buffer):
    server.failover_device(0)
    return lambda: server.devices[0].allocator.is_live(buffer)


MUTATIONS = {
    "h2d-overwrite": _overwrite,
    "free": _free,
    "kernel": _kernel,
    "memset": _memset,
    "failover": _failover,
}
#: (mutation, sanitized): a sanitized free poisons what it frees
ROWS = [(name, False) for name in sorted(MUTATIONS)] + [("free", True)]


class TestRaceTable:
    @pytest.mark.parametrize("mutation, node", ROWS, indirect=["node"])
    def test_reader_gets_the_bytes_of_its_call(self, node, mutation):
        server, address, helper, buffer = node
        sanitized = server.sanitized
        allocator = server.devices[0].allocator  # the pinned one, even after failover
        allocation = allocator._allocs[buffer]
        reader = StalledReader(address, buffer, SIZE)
        wait_for(lambda: allocator.pinned_spans == 1, "the reply to pin the buffer")
        adopted = allocator.landings_adopted

        # returns while the reader is stalled, with 16 MiB still to drain
        took_effect = MUTATIONS[mutation](server, helper, buffer)
        assert allocator.pinned_spans == 1
        # Whatever writes in place swaps a copy in first; a plain free and a
        # failover write nothing the reply reads.  A whole-allocation
        # upload swaps the array it was received into in: no copy either.
        uploads = mutation == "h2d-overwrite"
        writes = not uploads and mutation != "failover" and (mutation != "free" or sanitized)
        assert allocator.cow_copies == (1 if writes else 0)
        assert allocator.landings_adopted - adopted == (1 if uploads else 0)
        assert allocation.pins == (0 if writes or uploads else 1)

        assert reader.drain() == payload_of(SIZE, 1)
        wait_for(lambda: allocator.pinned_spans == 0, "the pin to go")
        assert took_effect()
        allocator.check_invariants()


class TestPinsAlwaysGo:
    def test_uncontended_d2h_copies_nothing(self):
        server = _server()
        address = server.serve_tcp()
        client = CricketClient.connect_tcp(*address)
        try:
            buffer = client.malloc(SIZE)
            for seed in (1, 2):
                client.memcpy_h2d(buffer, payload_of(SIZE, seed))
                assert client.memcpy_d2h(buffer, SIZE) == payload_of(SIZE, seed)
            allocator = server.devices[0].allocator
            wait_for(lambda: allocator.pinned_spans == 0, "the last reply's pin to go")
            assert allocator.cow_copies == 0
        finally:
            client.close()
            server.shutdown()

    def test_loopback_flattens(self):
        server = _server()
        client = CricketClient.loopback(server)
        buffer = client.malloc(SIZE)
        client.memcpy_h2d(buffer, payload_of(SIZE, 1))
        assert client.memcpy_d2h(buffer, SIZE) == payload_of(SIZE, 1)
        assert server.devices[0].allocator.pinned_spans == 0

    def test_dropped_unsent(self):
        server = _server()
        client = CricketClient.loopback(server)
        buffer = client.malloc(SIZE)
        reply = server.dispatch_record(d2h_call(5, buffer, SIZE))
        allocator = server.devices[0].allocator
        assert type(reply) is GatherRecord and allocator.pinned_spans == 1
        del reply
        assert allocator.pinned_spans == 0

    def test_sendmsg_raising(self):
        server = _server()
        buffer = CricketClient.loopback(server).malloc(SIZE)
        call = memoryview(encode_record(d2h_call(6, buffer, SIZE)))

        class BrokenConnection:
            def setsockopt(self, *args) -> None:
                pass

            def recv_into(self, view) -> int:
                nonlocal call
                count = min(len(view), len(call))
                view[:count] = call[:count]
                call = call[count:]
                return count

            def sendmsg(self, buffers) -> int:
                assert server.devices[0].allocator.pinned_spans == 1
                raise ConnectionResetError("peer went away")

            def close(self) -> None:
                closed_with.append(server.devices[0].allocator.pinned_spans)

        closed_with: list[int] = []
        server._serve_connection(BrokenConnection(), "broken")
        assert closed_with == [0]  # let go as the send failed, not later

    def test_peer_reset_mid_send(self):
        server = _server()
        address = server.serve_tcp()
        helper = CricketClient.connect_tcp(*address)
        try:
            buffer = helper.malloc(SIZE)
            allocator = server.devices[0].allocator
            reader = StalledReader(address, buffer, SIZE)
            wait_for(lambda: allocator.pinned_spans == 1, "the reply to pin the buffer")
            reader.reset()
            wait_for(lambda: allocator.pinned_spans == 0, "the pin to go")
            helper.memcpy_h2d(buffer, payload_of(SIZE, 3))  # and the server serves on
            assert allocator.cow_copies == 0
        finally:
            helper.close()
            server.shutdown()


def _device_arrays(server):
    return [a.data for d in server.devices for a in d.allocator.live_allocations()]


def _owns_its_bytes(server, reply) -> bool:
    view = np.frombuffer(reply, dtype=np.uint8)
    return type(reply) is bytearray and not any(
        np.shares_memory(view, array) for array in _device_arrays(server)
    )


class TestWhatIsKeptOwnsItsBytes:
    def test_a_cached_d2h_replays_its_original_bytes(self):
        server = _server()
        client = CricketClient.loopback(server)
        size = MIB // 2  # a reply the cache keeps, and one sent by reference
        buffer = client.malloc(size)
        client.memcpy_h2d(buffer, payload_of(size, 1))
        call = d2h_call(7, buffer, size)
        first = server.dispatch_record(call)
        assert _owns_its_bytes(server, first)
        assert server.devices[0].allocator.pinned_spans == 0
        client.memcpy_h2d(buffer, payload_of(size, 2))
        hits = server.server_stats.reply_cache_hits
        again = server.dispatch_record(call)
        assert server.server_stats.reply_cache_hits == hits + 1
        assert payload_of_reply(again) == payload_of(size, 1)
        assert all(_owns_its_bytes(server, r) for r in server._reply_cache.values())

    def test_the_op_log_observer_sees_owned_bytes(self):
        server = _server()
        seen = []
        server.on_executed = lambda record, call, reply: seen.append(reply)
        address = server.serve_tcp()
        client = CricketClient.connect_tcp(*address)
        try:
            buffer = client.malloc(SIZE)
            client.memcpy_h2d(buffer, payload_of(SIZE, 1))
            assert client.memcpy_d2h(buffer, SIZE) == payload_of(SIZE, 1)
            assert _owns_its_bytes(server, seen[-1])
            assert payload_of_reply(seen[-1]) == payload_of(SIZE, 1)
            assert server.devices[0].allocator.pinned_spans == 0
        finally:
            client.close()
            server.shutdown()

    def test_a_duplicated_reply_is_stashed_owned(self):
        server = _server()
        buffer = CricketClient.loopback(server).malloc(SIZE)
        transport = FaultInjectingTransport(
            LoopbackTransport(server.dispatch_record), FaultPlan(duplicate_rate=1.0)
        )
        transport.send_record(d2h_call(8, buffer, SIZE))
        reply = transport.recv_record()
        (stashed,) = transport._stash
        assert _owns_its_bytes(server, reply) and stashed is reply
        assert server.devices[0].allocator.pinned_spans == 0
