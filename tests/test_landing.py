"""Bulk payloads received where they are used, held to the staged path.

A record whose bulk opaque a landing provider placed -- an H2D payload in a
buffer the device adopts, a D2H result in the client's arena -- is a
:class:`~repro.xdr.encoder.LandedRecord`, and it must be indistinguishable
from its flattening everywhere above the reader:

* server twins -- two servers driven alike, one dispatching the landed
  record, the other its flattening: same reply bytes, device bytes,
  counters, virtual time and op log, whatever happens to the call (a whole
  or partial write, a retransmission, every refusal, a bad CRC, bad
  padding, a short record, a pointer that is bad, freed or replaced, a
  ``cudaSetDevice`` between the peek and the call, a sticky fault, the
  sanitizer);
* the reader -- flattened, a landed record is the reference reader's
  record, and a stream that ends or lies fails the same way;
* the client -- D2H results land over TCP, with and without CRC, and a
  result somebody holds is never overwritten by a later one.
"""

from __future__ import annotations

import itertools
import socket
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cricket import CricketClient, CricketServer
from repro.cricket.spec import cricket_interface
from repro.cricket.witness import LeadershipFence, Witness
from repro.gpu import A100, GpuDevice
from repro.gpu.device import FAULT_KINDS
from repro.gpu.memory import Landing
from repro.net.simclock import SimClock
from repro.oncrpc import message as msg
from repro.oncrpc.auth import call_meta_auth, client_token_auth
from repro.oncrpc.errors import RpcProtocolError, RpcTransportError
from repro.oncrpc.record import (
    RecordReader,
    append_crc,
    encode_record,
    read_record_reference,
    verify_crc,
)
from repro.oncrpc.transport import TcpTransport, awaiting
from repro.resilience.overload import OverloadConfig
from repro.xdr.encoder import LandedRecord, flatten

KIB, MIB = 1 << 10, 1 << 20
#: a bulk payload: referenced, not copied, by its sender, and landed
SIZE = 256 * KIB
FRAGMENT = 64 * KIB
IFACE = cricket_interface()
TENANT = b"landing-tenant"
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def payload_of(length: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).bytes(length)


def scheduled(data: bytes, sizes=(1 << 30,)):
    """``(read, recv_into)`` over ``data``, each call moving at most the next
    size of the (cycled) schedule."""
    sizes = itertools.cycle(sizes)
    view, pos = memoryview(data), 0

    def take(limit: int) -> memoryview:
        nonlocal pos
        chunk = view[pos : pos + min(limit, next(sizes))]
        pos += len(chunk)
        return chunk

    def recv_into(target: memoryview) -> int:
        chunk = take(len(target))
        target[: len(chunk)] = chunk
        return len(chunk)

    return (lambda n: bytes(take(n))), recv_into


def outcomes(next_record) -> list:
    """Records until the stream ends (flattened), then how it ended."""
    seen: list = []
    while True:
        try:
            record = next_record()
        except (RpcTransportError, RpcProtocolError) as exc:
            return seen + [(type(exc), str(exc))]
        if record is None:
            return seen + [None]
        seen.append(bytes(flatten(record)))


def read_one(wire: bytes, land, sizes=(1 << 30,)):
    return RecordReader(recv_into=scheduled(wire, sizes)[1], land=land).read_record()


# -- server twins ------------------------------------------------------------------


class Twin:
    """Two servers built and driven alike.  ``landed`` is fed records through
    a reader with its landing provider, ``staged`` their flattening."""

    def __init__(self, *, devices: int = 1, fence: bool = False, **kwargs) -> None:
        self.servers = tuple(
            CricketServer(
                [GpuDevice(A100, ordinal=i, mem_bytes=4 * MIB) for i in range(devices)],
                clock=SimClock(),
                **kwargs,
            )
            for _ in range(2)
        )
        self.landed, self.staged = self.servers
        self.crc = kwargs.get("crc_records", False)
        self.oplogs = {id(server): [] for server in self.servers}
        for server in self.servers:
            log = self.oplogs[id(server)]
            server.on_executed = lambda record, call, reply, log=log: log.append((record, reply))
            if fence:
                server.test_fence = LeadershipFence(
                    server, Witness(server.clock, lease_s=1.0), name="primary", peer_hint="b"
                )
                server.test_fence.lead()
        self.xids = itertools.count(100)

    def record(self, name: str, *args, xid: int | None = None, remaining_ns=None) -> bytes:
        sig = IFACE.signatures[name]
        call = msg.CallBody(
            IFACE.prog_number, IFACE.vers_number, sig.number,
            cred=client_token_auth(TENANT),
            verf=call_meta_auth(remaining_ns, priority=0),
            args=bytes(sig.encode_args(args)),
        )
        record = bytes(msg.RpcMessage(next(self.xids) if xid is None else xid, call).encode())
        return bytes(append_crc(record)) if self.crc else record

    def reply_of(self, reply) -> msg.AcceptedReply:
        reply = flatten(reply)
        return msg.RpcMessage.decode(verify_crc(reply) if self.crc else reply).body

    def on_both(self, name: str, *args):
        """Run a call, staged, on both servers; its (equal) result."""
        record = self.record(name, *args)
        results = [
            IFACE.signatures[name].decode_result(
                self.reply_of(server.dispatch_record(record)).results
            )
            for server in self.servers
        ]
        assert results[0] == results[1]
        return results[0]

    def dispatch(self, record: bytes, *, landed: bool = True, between=None, sizes=(1 << 30,)):
        """``record`` landed on one twin, flat on the other; the reply."""
        got = read_one(encode_record(record, FRAGMENT), self.landed.land, sizes)
        assert (type(got) is LandedRecord) is landed
        assert bytes(flatten(got)) == record
        if between is not None:
            for server in self.servers:
                between(server)
        replies = [self.landed.dispatch_record(got), self.staged.dispatch_record(record)]
        flat = [None if r is None else bytes(flatten(r)) for r in replies]
        assert flat[0] == flat[1]
        assert self.state(self.landed) == self.state(self.staged)
        return None if flat[0] is None else self.reply_of(flat[0])

    def state(self, server: CricketServer) -> dict:
        runtime = server.runtime
        return {
            "memory": [
                [(a.addr, a.size, a.data.tobytes()) for a in d.allocator.live_allocations()]
                for d in server.devices
            ],
            "allocators": [
                (
                    d.allocator.used_bytes, d.allocator.alloc_count, d.allocator.free_count,
                    d.allocator.dirty_pages(), d.allocator.dirty_marks,
                    d.allocator.cow_copies, d.allocator.pinned_spans,
                )
                for d in server.devices
            ],
            "faults": [repr(d.fault) for d in server.devices],
            "stats": asdict(server.server_stats),
            "served": server.calls_served,
            "runtime": (
                runtime.api_call_count, runtime.time_charged_ns, runtime._current,
                runtime._last_error,
            ),
            "clock": server.clock.now_ns,
            "violations": list(server.violations),
            "oplog": [(bytes(r), bytes(p)) for r, p in self.oplogs[id(server)]],
        }

    def adopted(self, ordinal: int = 0) -> int:
        return self.landed.devices[ordinal].allocator.landings_adopted

    def upload(self, ptr: int, payload: bytes, **kwargs) -> msg.AcceptedReply:
        return self.dispatch(self.record("rpc_cudaMemcpyH2D", ptr, payload), **kwargs)


def status(body: msg.AcceptedReply) -> int:
    """The CUDA status of an ``int``-result call that succeeded at RPC level."""
    assert body.stat == msg.SUCCESS
    return int.from_bytes(body.results, "big", signed=True)


class TestServerTwins:
    def test_a_whole_write_is_adopted(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        assert status(twin.upload(ptr, payload_of(SIZE, 1))) == 0
        assert twin.adopted() == 1
        allocator = twin.landed.devices[0].allocator
        spare = allocator._spare
        assert spare is not None  # what the adoption swapped out
        assert status(twin.upload(ptr, payload_of(SIZE, 2))) == 0
        assert twin.adopted() == 2
        assert allocator._allocs[ptr].data is spare  # received into the spare
        assert twin.on_both("rpc_cudaMemcpyD2H", ptr, SIZE)["data"] == payload_of(SIZE, 2)

    def test_a_free_drops_the_spare(self):
        """The spare does not outlive the frees: a session whose allocator
        lingers until the cycle collector runs holds no array beyond them."""
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        assert status(twin.upload(ptr, payload_of(SIZE, 1))) == 0
        allocator = twin.landed.devices[0].allocator
        assert allocator._spare is not None
        twin.on_both("rpc_cudaFree", ptr)
        assert allocator._spare is None

    @pytest.mark.parametrize("where", ["offset", "shorter"])
    def test_a_partial_write_is_copied(self, where):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", 2 * SIZE)["ptr"]
        dst = ptr + 4096 if where == "offset" else ptr
        assert status(twin.upload(dst, payload_of(SIZE, 1))) == 0
        assert twin.adopted() == 0

    def test_async_upload(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        stream = twin.on_both("rpc_cudaStreamCreate")["value"]
        record = twin.record("rpc_cudaMemcpyH2DAsync", ptr, payload_of(SIZE, 3), stream)
        assert status(twin.dispatch(record)) == 0
        assert twin.adopted() == 1

    def test_a_retransmission_is_answered_from_the_cache(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        first = twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 1))
        twin.dispatch(first)
        twin.upload(ptr, payload_of(SIZE, 2))
        hits = twin.landed.server_stats.reply_cache_hits
        assert status(twin.dispatch(first)) == 0  # landed, then dropped
        assert twin.landed.server_stats.reply_cache_hits == hits + 1 and twin.adopted() == 2
        assert twin.on_both("rpc_cudaMemcpyD2H", ptr, SIZE)["data"] == payload_of(SIZE, 2)

    REFUSALS = {
        "paused": (lambda s: s.pause_serving(), {}, msg.RPC_BUSY),
        "fenced": (lambda s: s.test_fence.fence("deposed"), {}, msg.RPC_NOT_LEADER),
        "browned-out": (
            lambda s: (s.brownout.add_signal("test", lambda: 1.5), s.brownout.update()),
            {}, msg.RPC_BUSY,
        ),
        "expired": (lambda s: None, {"remaining_ns": 0}, msg.CALL_EXPIRED),
        # one call holds the only slot and one waits in the only queue seat
        "overloaded": (
            lambda s: (
                s.overload.acquire("token:holder", 1),
                s.overload.queue.offer("token:waiter", 2, s.clock.now_ns),
            ),
            {}, msg.RPC_BUSY,
        ),
    }

    @pytest.mark.parametrize("row", REFUSALS)
    def test_a_refused_call_drops_its_landing(self, row):
        condition, kwargs, stat = self.REFUSALS[row]
        twin = Twin(
            fence=row == "fenced",
            brownout=row == "browned-out",
            overload=OverloadConfig(max_queue_depth=1) if row == "overloaded" else None,
        )
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        for server in twin.servers:
            condition(server)
        record = twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 1), **kwargs)
        assert twin.dispatch(record).stat == stat
        assert twin.adopted() == 0

    def test_crc_good_and_bad(self):
        twin = Twin(crc_records=True)
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        assert status(twin.upload(ptr, payload_of(SIZE, 1))) == 0
        assert twin.adopted() == 1
        record = bytearray(twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 2)))
        record[len(record) // 2] ^= 0x5A  # in the payload
        assert twin.dispatch(bytes(record)) is None
        assert twin.landed.server_stats.crc_rejected == 1 and twin.adopted() == 1

    def test_non_zero_padding(self):
        twin = Twin()
        size = SIZE + 1
        ptr = twin.on_both("rpc_cudaMalloc", size)["ptr"]
        record = bytearray(twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(size, 1)))
        record[-3] = 1  # the first of the three padding bytes
        assert twin.dispatch(bytes(record)).stat == msg.GARBAGE_ARGS
        assert twin.adopted() == 0

    def test_a_record_shorter_than_its_payload_is_staged(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        record = twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 1))
        assert twin.dispatch(record[: len(record) - 1000], landed=False).stat == msg.GARBAGE_ARGS

    def test_a_bad_pointer_is_staged_and_fails(self):
        twin = Twin()
        twin.on_both("rpc_cudaMalloc", SIZE)
        body = twin.upload(0xDEAD_0000, payload_of(SIZE, 1), landed=False)
        assert status(body) != 0

    def test_a_write_past_the_allocation_is_staged_and_fails(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        assert status(twin.upload(ptr + 8, payload_of(SIZE, 1), landed=False)) != 0

    def test_freed_between_peek_and_call(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        free = twin.record("rpc_cudaFree", ptr)
        body = twin.upload(ptr, payload_of(SIZE, 1), between=lambda s: s.dispatch_record(free))
        assert status(body) != 0 and twin.adopted() == 0

    def test_replaced_between_peek_and_call(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        free, malloc = twin.record("rpc_cudaFree", ptr), twin.record("rpc_cudaMalloc", SIZE)

        def replace(server):
            server.dispatch_record(free)
            server.dispatch_record(malloc)
            assert server.devices[0].allocator.is_live(ptr)  # the same address

        assert status(twin.upload(ptr, payload_of(SIZE, 1), between=replace)) == 0
        assert twin.adopted() == 0  # not the allocation it was sized against
        assert twin.on_both("rpc_cudaMemcpyD2H", ptr, SIZE)["data"] == payload_of(SIZE, 1)

    def test_set_device_between_peek_and_call(self):
        twin = Twin(devices=2)
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        twin.on_both("rpc_cudaSetDevice", 1)
        assert twin.on_both("rpc_cudaMalloc", SIZE)["ptr"] == ptr
        twin.on_both("rpc_cudaSetDevice", 0)
        to_device_1 = twin.record("rpc_cudaSetDevice", 1)
        body = twin.upload(
            ptr, payload_of(SIZE, 1), between=lambda s: s.dispatch_record(to_device_1)
        )
        assert status(body) == 0
        assert twin.adopted(0) == twin.adopted(1) == 0
        memory = twin.landed.devices[1].allocator.read(ptr, SIZE)
        assert memory == payload_of(SIZE, 1)

    def test_sticky_fault(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        for server in twin.servers:
            server.inject_device_fault(0)
        assert status(twin.upload(ptr, payload_of(SIZE, 1))) == FAULT_KINDS["ecc"]
        assert twin.adopted() == 0

    def test_sanitizer(self):
        twin = Twin(sanitizer=True)
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        assert status(twin.upload(ptr, payload_of(SIZE, 1))) == 0
        assert twin.adopted() == 1
        for server in twin.servers:
            server.sweep_now()
        assert twin.state(twin.landed) == twin.state(twin.staged)
        # an out-of-bounds upload is staged, and reported alike
        assert status(twin.upload(ptr + 256, payload_of(SIZE, 2), landed=False)) != 0
        assert twin.landed.violations and twin.adopted() == 1

    def test_what_the_op_log_keeps_owns_its_bytes(self):
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        record = twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 1))
        twin.dispatch(record)
        kept, _ = twin.oplogs[id(twin.landed)][-1]
        arrays = [a.data for a in twin.landed.devices[0].allocator.live_allocations()]
        assert type(kept) is bytearray and kept == record
        assert not any(np.shares_memory(np.frombuffer(kept, np.uint8), a) for a in arrays)
        twin.upload(ptr, payload_of(SIZE, 2))
        assert kept == record


# -- the reader --------------------------------------------------------------------


def h2d_wire(fragment: int = FRAGMENT) -> tuple[CricketServer, bytes, bytes]:
    """A server holding a ``SIZE`` allocation, and an upload to it: the
    record and its framing."""
    twin = Twin()
    ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
    record = twin.record("rpc_cudaMemcpyH2D", ptr, payload_of(SIZE, 1))
    return twin.landed, record, encode_record(record, fragment)


class TestReader:
    def test_eof_at_every_fragment_boundary(self):
        server, record, wire = h2d_wire()
        step = FRAGMENT + 4
        cuts = {c + d for c in range(step, len(wire), step) for d in (-1, 0, 1, 4, 5)}
        for cut in sorted(cuts):
            for sizes in ((1 << 30,), (5, 1000, 3)):
                read, _ = scheduled(wire[:cut], sizes)
                _, recv_into = scheduled(wire[:cut], sizes)
                reader = RecordReader(recv_into=recv_into, land=server.land)
                reference = outcomes(lambda: read_record_reference(read))
                assert outcomes(reader.read_record) == reference, cut

    def test_the_next_record_follows_a_landed_one(self):
        server, record, wire = h2d_wire()
        tail = encode_record(b"next record!", 5)
        _, recv_into = scheduled(wire + tail + wire, (300, 7, 1 << 20))
        reader = RecordReader(recv_into=recv_into, land=server.land)
        first, second, third = (reader.read_record() for _ in range(3))
        assert type(first) is LandedRecord and type(third) is LandedRecord
        assert bytes(flatten(first)) == bytes(flatten(third)) == record
        assert second == b"next record!" and reader.read_record() is None

    def test_a_hostile_1gib_declaration_is_staged(self):
        """A forged length that fits no allocation lands nothing: the record
        is grown one declared fragment at a time, as ever."""
        twin = Twin()
        ptr = twin.on_both("rpc_cudaMalloc", SIZE)["ptr"]
        head = bytearray(twin.record("rpc_cudaMemcpyH2D", ptr, b""))
        head[-4:] = (1 << 30).to_bytes(4, "big")  # the opaque's length word
        wire = (256 * KIB).to_bytes(4, "big") + bytes(head) + bytes(1000)  # then silence
        _, recv_into = scheduled(wire)
        reader = RecordReader(recv_into=recv_into, land=twin.landed.land)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(RpcTransportError, match="mid-record"):
                reader.read_record()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 256 * KIB + 64 * KIB

    @PROPERTY
    @given(
        length=st.integers(0, 3000),
        fragment=st.sampled_from([1, 3, 4, 64, 700, 5000]),
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=4),
        land=st.tuples(st.integers(0, 600), st.integers(0, 4000)),
        eof=st.one_of(st.none(), st.integers(0, 4000)),
    )
    def test_flattened_landed_is_the_reference_record(self, length, fragment, sizes, land, eof):
        """For any fragmentation, read schedule, landing and end of stream:
        the records (flattened) and the failure of the reference reader."""
        offset, size = land
        wire = encode_record(payload_of(length), fragment) + encode_record(b"and then", 3)
        if eof is not None:
            wire = wire[:eof]

        def provider(prefix: memoryview):
            return (offset, bytearray(size)) if offset <= len(prefix) else None

        read, _ = scheduled(wire, sizes)
        _, recv_into = scheduled(wire, sizes)
        reader = RecordReader(recv_into=recv_into, land=provider)
        assert outcomes(reader.read_record) == outcomes(lambda: read_record_reference(read))


# -- the client --------------------------------------------------------------------


@pytest.fixture(params=[False, True], ids=["plain", "crc"])
def tcp_pair(request):
    server = CricketServer([GpuDevice(A100, mem_bytes=64 * MIB)], crc_records=request.param)
    client = CricketClient.connect_tcp(*server.serve_tcp(), crc=request.param)
    yield server, client
    client.close()
    server.shutdown()


def arena_of(client: CricketClient) -> bytearray | None:
    transport = client.stub.client.transport
    transport = getattr(transport, "inner", transport)  # under the CRC layer
    return transport._inner._arena  # the reconnecting transport's connection


class TestClient:
    def test_d2h_and_async_land(self, tcp_pair):
        server, client = tcp_pair
        ptr = client.malloc(4 * MIB)
        stream = client.stream_create()
        for seed in (1, 2):
            client.memcpy_h2d(ptr, payload_of(4 * MIB, seed))
            assert client.memcpy_d2h(ptr, 4 * MIB) == payload_of(4 * MIB, seed)
            assert client.memcpy_d2h_async(ptr, 4 * MIB, stream) == payload_of(4 * MIB, seed)
        arena = arena_of(client)
        assert arena is not None and len(arena) == 4 * MIB
        assert server.devices[0].allocator.landings_adopted == 2

    def test_a_held_result_survives_a_later_d2h(self, tcp_pair):
        _, client = tcp_pair
        ptr = client.malloc(SIZE)
        client.memcpy_h2d(ptr, payload_of(SIZE, 1))
        held = client.stub.call_landing("rpc_cudaMemcpyD2H", SIZE, ptr, SIZE)["data"]
        first_arena = arena_of(client)
        client.memcpy_h2d(ptr, payload_of(SIZE, 2))
        assert client.memcpy_d2h(ptr, SIZE) == payload_of(SIZE, 2)
        assert held == payload_of(SIZE, 1) and held.readonly
        assert arena_of(client) is not first_arena  # it was viewed: a new one
        del held
        client.memcpy_d2h(ptr, SIZE)
        kept = arena_of(client)
        client.memcpy_d2h(ptr, SIZE)  # nothing views it now: reused
        assert arena_of(client) is kept

    def test_only_the_awaited_reply_lands_within_its_bound(self):
        d2h = IFACE.signatures["rpc_cudaMemcpyD2H"]
        payload = payload_of(SIZE, 4)

        def reply(xid: int) -> bytes:
            results = bytes(d2h.encode_result({"err": 0, "data": payload}))
            return bytes(msg.RpcMessage(xid, msg.AcceptedReply(results=results)).encode())

        listener = socket.create_server(("127.0.0.1", 0))
        transport = TcpTransport(*listener.getsockname()[:2])
        peer, _ = listener.accept()
        try:
            for xid, awaited, bound, lands in (
                (7, 7, SIZE, True), (8, 7, SIZE, False), (9, 9, SIZE - 1, False),
            ):
                peer.sendall(encode_record(reply(xid), FRAGMENT))
                with awaiting(awaited, d2h.result_split, bound):
                    got = transport.recv_record()
                assert (type(got) is LandedRecord) is lands
                body = msg.RpcMessage.decode(got).body
                flat = msg.RpcMessage.decode(bytes(flatten(got))).body
                assert d2h.decode_result(body.results) == d2h.decode_result(flat.results)
                assert d2h.decode_result(body.results)["data"] == payload
        finally:
            transport.close()
            peer.close()
            listener.close()


def test_landing_type_is_what_the_allocator_adopts():
    """Only a view of a whole, unconsumed landing of the allocation is adopted."""
    device = GpuDevice(A100, mem_bytes=4 * MIB)
    allocator = device.allocator
    ptr = allocator.alloc(SIZE)
    landing = allocator._landing(ptr, SIZE)
    assert type(landing) is Landing
    memoryview(landing)[:] = payload_of(SIZE, 5)
    device.memcpy_h2d(ptr, memoryview(landing)[: SIZE // 2])  # a part: copied
    assert allocator.landings_adopted == 0
    device.memcpy_h2d(ptr, memoryview(landing).toreadonly())
    assert allocator.landings_adopted == 1
    device.memcpy_h2d(ptr, memoryview(landing))  # consumed: copied
    assert allocator.landings_adopted == 1
    assert allocator.read(ptr, SIZE) == payload_of(SIZE, 5)
    assert allocator._landing(ptr + SIZE - 8, 16) is None  # does not fit


def test_a_pinned_array_is_never_landed_into():
    """An adoption keeps a pinned array for its spans, out of the spare."""
    device = GpuDevice(A100, mem_bytes=4 * MIB)
    allocator = device.allocator
    ptr = allocator.alloc(SIZE)
    allocator.write(ptr, payload_of(SIZE, 1))
    span = allocator.pin(ptr, SIZE)
    for seed in (2, 3):  # two whole uploads while the span is in flight
        landing = allocator._landing(ptr, SIZE)
        assert not np.shares_memory(landing, span)
        memoryview(landing)[:] = payload_of(SIZE, seed)
        device.memcpy_h2d(ptr, memoryview(landing).toreadonly())
    assert allocator.landings_adopted == 2 and allocator.cow_copies == 0
    assert span.tobytes() == payload_of(SIZE, 1)
    span.unpin()
    allocator.check_invariants()
