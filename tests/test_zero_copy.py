"""The zero-copy bulk path against its slow references, and against abuse.

Every fast path here keeps the implementation it replaced as a reference
(:func:`~repro.oncrpc.record.encode_record` for the ``sendmsg`` gather
framing, :func:`~repro.oncrpc.record.read_record_reference` for the
``recv_into`` reader), and this file holds the two to each other:

* differential -- same wire bytes, same records, same typed errors, over
  record lengths around every fragment boundary and read schedules down to
  one byte at a time, through partial ``sendmsg`` calls on a real socket;
* hostile -- forged lengths allocate nothing, a torn connection shows no
  half-record (``tests/test_fuzz_hardening.py`` itself runs unmodified
  against the new reader: a ``read(n)`` callable is only adapted to
  ``recv_into``, the reassembly behind it is the one under test here);
* aliasing -- a record, its reply and whatever was parsed out of it stay
  byte for byte what they were while later calls reuse the connection;
* wire identity -- what a raw socket peer receives is exactly the reference
  framing of the reference message;
* a copy budget -- ``tracemalloc`` peak over payload size, which a later
  ``bytes(...)`` slipped back into the path would fail.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cricket import CricketClient, CricketServer
from repro.cricket import params as kparams
from repro.cricket.spec import cricket_interface
from repro.cubin.loader import build_cubin_for_registry, load_cubin
from repro.gpu import A100, GpuDevice
from repro.gpu.kernels import build_default_registry
from repro.oncrpc import message as msg
from repro.oncrpc.errors import RpcProtocolError, RpcTimeoutError, RpcTransportError
from repro.oncrpc.record import (
    DEFAULT_MAX_FRAGMENT,
    IOV_MAX,
    LAST_FRAGMENT,
    RecordReader,
    append_crc,
    encode_record,
    gather_fragments,
    read_record_reference,
    sendmsg_all,
    verify_crc,
)
from repro.oncrpc.server import RpcServer
from repro.oncrpc.transport import ChecksummedTransport, LoopbackTransport, TcpTransport
from repro.resilience.faults import FaultInjectingTransport, FaultPlan
from repro.xdr import XdrEncoder
from repro.xdr.encoder import BY_REFERENCE_BYTES, GatherRecord, flatten
from repro.xdr.errors import XdrError
from repro.xdr.plan import encode_each

MIB = 1 << 20
#: the same corpus on every run, and no per-example deadline on a loaded box
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
FRAGMENT_SIZES = (1, 3, 4, 7, 64, 1000)


def boundary_lengths(fragment: int) -> list[int]:
    return sorted({0, 1, 3, 4, fragment - 1, fragment, fragment + 1, 3 * fragment + 5})


def payload_of(length: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).bytes(length)


# -- streams with a read schedule ---------------------------------------------------


def scheduled(data: bytes, sizes):
    """``(read, recv_into)`` over ``data``; each call moves at most the next
    size in the (cycled) schedule -- the short reads a socket makes."""
    sizes = itertools.cycle(sizes)
    view = memoryview(data)
    pos = 0

    def take(limit: int) -> memoryview:
        nonlocal pos
        chunk = view[pos : pos + min(limit, next(sizes))]
        pos += len(chunk)
        return chunk

    def read(n: int) -> bytes:
        return bytes(take(n))

    def recv_into(target: memoryview) -> int:
        chunk = take(len(target))
        target[: len(chunk)] = chunk
        return len(chunk)

    return read, recv_into


def drain(next_record) -> list:
    """Records until the stream ends: each outcome, then how it ended."""
    outcomes: list = []
    while True:
        try:
            record = next_record()
        except (RpcTransportError, RpcProtocolError) as exc:
            outcomes.append((type(exc), str(exc)))
            return outcomes
        if record is None:
            outcomes.append(None)
            return outcomes
        outcomes.append(bytes(record))


def both_readers(wire: bytes, sizes, **limits) -> tuple[list, list]:
    read, _ = scheduled(wire, sizes)
    _, recv_into = scheduled(wire, sizes)
    reader = RecordReader(recv_into=recv_into, **limits)
    return (
        drain(reader.read_record),
        drain(lambda: read_record_reference(read, **limits)),
    )


SCHEDULES = [(1 << 30,), (1,), (2, 1, 5), (3, 1000, 1)]


class TestGatherFramingIsReferenceFraming:
    @pytest.mark.parametrize("fragment", FRAGMENT_SIZES)
    def test_byte_for_byte(self, fragment):
        for length in boundary_lengths(fragment):
            record = bytearray(payload_of(length, seed=length))
            buffers = gather_fragments(record, fragment)
            assert b"".join(buffers) == encode_record(record, fragment)
            # the payload parts are views of the record, not copies of it
            for part in buffers:
                if isinstance(part, memoryview):
                    assert part.obj is record
                else:
                    assert len(part) == 4

    @PROPERTY
    @given(st.binary(max_size=600), st.integers(min_value=1, max_value=80))
    def test_byte_for_byte_property(self, record, fragment):
        assert b"".join(gather_fragments(record, fragment)) == encode_record(record, fragment)

    def test_fragment_size_validated_like_the_reference(self):
        for bad in (0, -1, 1 << 31):
            with pytest.raises(ValueError):
                gather_fragments(b"abc", bad)
            with pytest.raises(ValueError):
                encode_record(b"abc", bad)


class TestReaderIsReferenceReader:
    @pytest.mark.parametrize("sizes", SCHEDULES)
    @pytest.mark.parametrize("fragment", FRAGMENT_SIZES)
    def test_every_boundary_length(self, fragment, sizes):
        records = [payload_of(n, seed=n) for n in boundary_lengths(fragment)]
        wire = b"".join(encode_record(r, fragment) for r in records)
        new, reference = both_readers(wire, sizes)
        assert new == reference == [*records, None]

    @pytest.mark.parametrize("sizes", SCHEDULES)
    def test_wire_bytes_is_what_the_peer_sent(self, sizes):
        record = payload_of(3 * 64 + 5)
        for fragment in (64, 1000):
            wire = encode_record(record, fragment)
            _, recv_into = scheduled(wire, sizes)
            reader = RecordReader(recv_into=recv_into)
            assert reader.read_record() == record
            assert reader.wire_bytes == len(wire)

    @PROPERTY
    @given(
        st.lists(st.binary(max_size=300), max_size=4),
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    )
    def test_records_property(self, records, fragment, sizes):
        wire = b"".join(encode_record(r, fragment) for r in records)
        new, reference = both_readers(wire, sizes)
        assert new == reference == [*records, None]

    @PROPERTY
    @given(
        st.binary(max_size=400),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    )
    def test_hostile_streams_property(self, wire, sizes):
        """Garbage, truncation, forged lengths: the same records, then the
        same typed error with the same message, from both readers."""
        limits = dict(max_record_size=1 << 10, max_fragment_size=1 << 8)
        new, reference = both_readers(wire, sizes, **limits)
        assert new == reference

    def test_a_bytes_read_callable_still_works(self):
        wire = encode_record(b"abcdefghij", 3)
        read, _ = scheduled(wire, (2,))
        assert RecordReader(read).read_record() == b"abcdefghij"

    def test_exactly_one_stream_is_given(self):
        with pytest.raises(TypeError):
            RecordReader()
        with pytest.raises(TypeError):
            RecordReader(lambda n: b"", recv_into=lambda view: 0)


# -- partial sendmsg ----------------------------------------------------------------


class Trickle:
    """A socket that takes at most ``limit`` bytes per ``sendmsg``."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.wire = bytearray()
        self.widest_call = 0

    def sendmsg(self, buffers) -> int:
        self.widest_call = max(self.widest_call, len(buffers))
        budget = self.limit
        for part in buffers:
            taken = bytes(part[:budget])
            self.wire += taken
            budget -= len(taken)
            if not budget:
                break
        return self.limit - budget


class TestSendmsgAll:
    @pytest.mark.parametrize("limit", (1, 3, 4, 5, 97, 1 << 20))
    def test_resumes_partial_sends_anywhere(self, limit):
        record = payload_of(3 * 64 + 5)
        sock = Trickle(limit)
        sent = sendmsg_all(sock, gather_fragments(record, 64))
        assert bytes(sock.wire) == encode_record(record, 64)
        assert sent == len(sock.wire)

    def test_never_more_than_iov_max_buffers_per_call(self):
        record = payload_of(4 * IOV_MAX)  # 1-byte fragments: 8 * IOV_MAX buffers
        sock = Trickle(1 << 30)
        sendmsg_all(sock, gather_fragments(record, 1))
        assert sock.widest_call == IOV_MAX
        assert bytes(sock.wire) == encode_record(record, 1)

    def test_tiny_send_buffer_and_a_slow_reader(self):
        """A real socket whose send buffer is far smaller than the record:
        ``sendmsg`` returns early, between buffers and inside them."""
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        left.settimeout(30)  # as TcpTransport does: sendmsg stops when the buffer is full
        record = payload_of(300_000)
        partial_calls = 0
        plain_sendmsg = left.sendmsg

        class Counting:
            def sendmsg(self, buffers) -> int:
                nonlocal partial_calls
                sent = plain_sendmsg(buffers)
                partial_calls += sent < sum(len(part) for part in buffers)
                return sent

        received = bytearray()

        def slow_reader() -> None:
            while chunk := right.recv(1500):
                received.extend(chunk)
                time.sleep(0.0002)

        reader = threading.Thread(target=slow_reader)
        reader.start()
        try:
            sent = sendmsg_all(Counting(), gather_fragments(record, 1000))
        finally:
            left.close()
            reader.join(timeout=30)
            right.close()
        assert not reader.is_alive()
        assert bytes(received) == encode_record(record, 1000)
        assert sent == len(received)
        assert partial_calls > 0

    def test_send_timeout_is_an_rpc_timeout(self):
        """Nobody reads: the socket buffers fill and the send times out."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            transport = TcpTransport(*listener.getsockname()[:2], io_timeout=0.2)
            conn, _ = listener.accept()
            with pytest.raises(RpcTimeoutError, match="send timed out"):
                transport.send_record(bytes(64 * MIB))
            transport.close()
            conn.close()
        finally:
            listener.close()


# -- gather records against their flattening --------------------------------------------


def gather_of(record: bytes, cuts) -> GatherRecord:
    """``record`` cut at ``cuts`` (a repeated cut is an empty segment), its
    segments alternately ``bytes``, ``bytearray`` and ``memoryview``."""
    bounds = [0, *sorted(min(cut, len(record)) for cut in cuts), len(record)]
    kinds = (bytes, bytearray, memoryview)
    return GatherRecord(
        tuple(kinds[i % 3](record[a:b]) for i, (a, b) in enumerate(zip(bounds, bounds[1:])))
    )


def boundary_splits(length: int, fragment: int) -> list[list[int]]:
    """Segment cuts around the places framing can go wrong: none, empty
    segments at either end, 1-byte segments, and one byte either side of
    every fragment boundary."""
    splits = [[], [0, 0], [length, length], [0, length // 2, length // 2, length]]
    if length <= 200:
        splits.append(list(range(1, length)))
    for edge in range(fragment, length + 1, fragment):
        splits += [[edge - 1], [edge + 1], [edge - 1, edge, edge + 1], [edge, edge]]
    return splits


def boundary_cases():
    for fragment in FRAGMENT_SIZES:
        for length in boundary_lengths(fragment):
            for cuts in boundary_splits(length, fragment):
                yield fragment, payload_of(length, seed=length), cuts


def _underlying(buffer):
    return buffer.obj if isinstance(buffer, memoryview) else buffer


class _Nowhere:
    def send_record(self, record) -> None:  # pragma: no cover - never called
        raise AssertionError


class TestGatherRecordIsItsFlattening:
    """Whatever the segments, a gather record frames, checksums, trickles
    and corrupts into exactly the bytes of its flattening."""

    def check(self, fragment: int, record: bytes, cuts) -> None:
        gather = gather_of(record, cuts)
        assert len(gather) == len(record) and bytes(gather) == record
        framed = encode_record(record, fragment)
        buffers = gather_fragments(gather, fragment)
        assert b"".join(buffers) == framed == encode_record(gather, fragment)
        # the payload parts are views of the segments, not copies of them
        owners = [_underlying(segment) for segment in gather.segments]
        for part in buffers:
            if isinstance(part, memoryview):
                assert any(part.obj is owner for owner in owners)
        # the CRC trailer is one more segment; the bytes are the flat one's
        crc = append_crc(gather)
        assert type(crc) is GatherRecord and crc.pins is gather.pins
        assert all(a is b for a, b in zip(crc.segments, gather.segments))
        assert bytes(crc) == bytes(append_crc(bytes(record)))
        assert verify_crc(crc) == record
        # a socket taking a few bytes at a time resumes inside and across segments
        for limit in (1, 3, 5):
            sock = Trickle(limit)
            assert sendmsg_all(sock, gather_fragments(gather, fragment)) == len(framed)
            assert bytes(sock.wire) == framed
        # a corrupted gather record flips the same byte, and draws the same
        plan = FaultPlan(corrupt_rate=1.0, seed=len(record) + fragment)
        flat_side = FaultInjectingTransport(_Nowhere(), plan)
        gather_side = FaultInjectingTransport(_Nowhere(), plan)
        assert bytes(gather_side._flip_byte(gather)) == bytes(
            flat_side._flip_byte(bytearray(record))
        )
        assert gather_side._corrupt_rng.random() == flat_side._corrupt_rng.random()

    def test_every_boundary(self):
        for fragment, record, cuts in boundary_cases():
            self.check(fragment, record, cuts)

    @PROPERTY
    @given(
        st.binary(max_size=600),
        st.integers(min_value=1, max_value=80),
        st.lists(st.integers(min_value=0, max_value=600), max_size=6),
    )
    def test_property(self, record, fragment, cuts):
        self.check(fragment, record, cuts)

    def test_a_message_decodes_from_either_form(self):
        iface = cricket_interface()
        sig = iface.signatures["rpc_cudaMemcpyH2D"]
        payload = payload_of(BY_REFERENCE_BYTES + 5)
        call = msg.RpcMessage(
            3, msg.CallBody(iface.prog_number, iface.vers_number, sig.number,
                            args=partial(sig.encode_args, (0x1000, payload)))
        ).encode()
        assert type(call) is GatherRecord
        decoded = msg.RpcMessage.decode(call)
        assert decoded == msg.RpcMessage.decode(bytes(call))
        assert sig.decode_args(decoded.body.args) == (0x1000, payload)


class TestEncoderReferencesBulkOpaques:
    def test_the_threshold_and_the_wire(self):
        for size in (BY_REFERENCE_BYTES - 1, BY_REFERENCE_BYTES, BY_REFERENCE_BYTES + 3):
            payload = payload_of(size)
            enc = XdrEncoder()
            enc.pack_uint(7)
            enc.pack_opaque(payload)
            enc.pack_uint(9)
            wire = (
                (7).to_bytes(4, "big") + size.to_bytes(4, "big") + payload
                + bytes(-size % 4) + (9).to_bytes(4, "big")
            )
            record = enc.buffer
            assert len(enc) == len(record) == len(wire)
            assert bytes(record) == enc.getvalue() == wire
            if size < BY_REFERENCE_BYTES:
                assert type(record) is bytearray
            else:
                assert type(record) is GatherRecord
                assert any(segment is payload for segment in record.segments)
                assert flatten(record) == wire

    def test_a_failed_plan_drops_what_it_referenced(self):
        """The compiled plan references the payload, then meets a stream it
        cannot pack; the interpreter redoes the arguments from scratch and
        raises, and the encoder is left as the interpreter leaves it."""
        sig = cricket_interface().signatures["rpc_cudaMemcpyH2DAsync"]
        args = (0x1000, payload_of(BY_REFERENCE_BYTES), 2**64)
        compiled, walked = XdrEncoder(), XdrEncoder()
        for encoder in (compiled, walked):
            encoder.pack_uint(9)
        with pytest.raises(XdrError):
            sig.encode_args(args, compiled)
        with pytest.raises(XdrError):
            encode_each(sig.arg_types, args, walked)
        assert bytes(compiled.buffer) == bytes(walked.buffer)
        assert len(compiled) == len(walked)


# -- hostile peers -------------------------------------------------------------------


class TestHostileHeaders:
    def test_oversized_declaration_allocates_nothing(self):
        """``max_fragment_size + 1`` is refused from the header alone."""
        wire = ((DEFAULT_MAX_FRAGMENT + 1) | LAST_FRAGMENT).to_bytes(4, "big")
        _, recv_into = scheduled(wire, (1 << 30,))
        reader = RecordReader(recv_into=recv_into)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(RpcProtocolError, match="above the"):
                reader.read_record()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_record_cap_holds_across_fragments(self):
        wire = ((64).to_bytes(4, "big") + bytes(64)) * 8
        _, recv_into = scheduled(wire, (3, 1, 2))
        reader = RecordReader(recv_into=recv_into, max_record_size=200)
        with pytest.raises(RpcProtocolError, match="exceeds maximum size"):
            reader.read_record()

    def test_growth_is_one_declared_fragment_at_a_time(self):
        """A peer that declares fragment after fragment but sends only the
        first costs one fragment of memory, not the record it hints at."""
        wire = (256 * 1024).to_bytes(4, "big") + bytes(1000)  # then silence
        _, recv_into = scheduled(wire, (1 << 30,))
        reader = RecordReader(recv_into=recv_into, max_fragment_size=256 * 1024)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(RpcTransportError, match="mid-record"):
                reader.read_record()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024 + 64 * 1024

    def test_connection_closed_mid_fragment(self):
        left, right = socket.socketpair()
        reader = RecordReader(recv_into=right.recv_into)
        left.sendall(encode_record(b"whole record", 5))
        left.sendall((100 | LAST_FRAGMENT).to_bytes(4, "big") + bytes(40))
        left.close()
        assert reader.read_record() == b"whole record"
        with pytest.raises(RpcTransportError, match=r"mid-record \(40/100 bytes\)"):
            reader.read_record()
        assert reader.read_record() is None  # and nothing of it is left behind
        right.close()

    def test_server_never_dispatches_a_torn_record(self):
        server = RpcServer()
        seen: list[bytes] = []
        server.register_program(77, 1, {1: lambda args, ctx: seen.append(bytes(args)) or b""})
        host, port = server.serve_tcp()
        try:
            call = msg.RpcMessage(9, msg.CallBody(77, 1, 1, args=b"\0" * 64)).encode()
            wire = encode_record(call, 1 << 20)
            with socket.create_connection((host, port)) as raw:
                raw.sendall(wire + wire[: len(wire) // 2])
                reply = read_record_reference(raw.recv)
                assert msg.RpcMessage.decode(reply).xid == 9
            deadline = time.monotonic() + 5
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._conns  # the connection was dropped ...
            assert seen == [b"\0" * 64]  # ... and the half record with it
        finally:
            server.shutdown()


# -- aliasing: nothing handed up is ever reused ---------------------------------------


def _cricket_server(**kwargs) -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=64 * MIB)], **kwargs)


@pytest.fixture(params=["tcp", "loopback"])
def observed_rig(request):
    """(server, client, op log) with the op-log observer and reply cache on."""
    server = _cricket_server()
    log: list[tuple] = []
    server.on_executed = lambda record, call, reply: log.append((record, call, reply))
    if request.param == "tcp":
        host, port = server.serve_tcp()
        client = CricketClient.connect_tcp(host, port)
    else:
        client = CricketClient.loopback(server)
    yield server, client, log
    client.close()
    server.shutdown()


class TestRetainedBuffersAreNeverReused:
    def test_record_reply_and_module_survive_later_calls(self, observed_rig):
        server, client, log = observed_rig
        size = 3 * MIB + 5  # several fragments, unaligned tail
        payload_a, payload_b = payload_of(size, 1), payload_of(size, 2)
        buffer = client.malloc(size)
        cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
        meta = load_cubin(cubin).metadata.kernel("saxpy")

        client.memcpy_h2d(buffer, payload_a)
        record, call, reply = log[-1]
        kept = (bytes(record), bytes(call.args), bytes(reply))

        # the cubin arrives in a bytearray that the client then scribbles on
        image = bytearray(cubin)
        module = client.module_load(image)
        image[:] = bytes(len(image))
        client.memcpy_h2d(buffer, payload_b)
        assert client.memcpy_d2h(buffer, size) == payload_b

        # the first record, its decoded arguments and its reply: untouched
        assert (bytes(record), bytes(call.args), bytes(reply)) == kept
        assert payload_a in kept[0] and payload_b not in kept[0]
        # the reply cache answers a retransmission with that same reply
        hits = server.server_stats.reply_cache_hits
        assert server.dispatch_record(record) == kept[2]
        assert server.server_stats.reply_cache_hits == hits + 1
        # the module loaded in between still resolves and launches
        x, y = client.malloc(1024), client.malloc(1024)
        client.memcpy_h2d(x, np.ones(256, dtype=np.float32))
        client.memcpy_h2d(y, np.zeros(256, dtype=np.float32))
        function = client.get_function(module, "saxpy", meta)
        client.launch_kernel(function, (1, 1, 1), (256, 1, 1), (y, x, 2.0, 256))
        client.device_synchronize()
        result = np.frombuffer(client.memcpy_d2h(y, 1024), dtype=np.float32)
        assert np.array_equal(result, np.full(256, 2.0, dtype=np.float32))

    def test_decoded_opaques_are_read_only_views(self):
        sig = cricket_interface().signatures["rpc_cudaMemcpyH2D"]
        encoded = sig.encode_args((0x1000, b"payload!"))
        assert isinstance(encoded, bytearray)
        _, data = sig.decode_args(encoded)
        assert isinstance(data, memoryview) and data.readonly
        assert data.obj is encoded and data == b"payload!"
        with pytest.raises(TypeError):
            data[0] = 0
        with pytest.raises(BufferError):
            encoded += b"\0\0\0\0"  # a viewed record cannot even be resized

    def test_memcpy_d2h_returns_bytes(self, observed_rig):
        _, client, _ = observed_rig
        buffer = client.malloc(4096)
        client.memcpy_h2d(buffer, memoryview(payload_of(4096)))
        assert type(client.memcpy_d2h(buffer, 4096)) is bytes

    def test_any_contiguous_buffer_uploads_without_conversion(self, observed_rig):
        _, client, _ = observed_rig
        values = np.arange(512, dtype=np.float32).reshape(16, 32)
        buffer = client.malloc(values.nbytes)
        for source in (values, memoryview(values), bytearray(values.tobytes())):
            client.memcpy_h2d(buffer, source)
            assert client.memcpy_d2h(buffer, values.nbytes) == values.tobytes()
        strided = values[:, ::2]  # not contiguous: flattened on the way in
        client.memcpy_h2d(buffer, strided)
        assert client.memcpy_d2h(buffer, strided.nbytes) == strided.tobytes()


# -- wire identity ------------------------------------------------------------------


def reference_call(client: CricketClient, proc: str, values: tuple) -> bytes:
    """The call record, composed field by field (no writer, no views)."""
    rpc = client.stub.client
    sig = cricket_interface().signatures[proc]
    enc = XdrEncoder()
    enc.pack_uint(rpc.last_xid)
    enc.pack_enum(msg.CALL)
    enc.pack_uint(msg.RPC_VERSION)
    enc.pack_uint(rpc.prog)
    enc.pack_uint(rpc.vers)
    enc.pack_uint(sig.number)
    rpc.cred.encode(enc)
    msg.NULL_AUTH.encode(enc)
    return enc.getvalue() + bytes(sig.encode_args(values))


def reference_reply(xid: int, proc: str, value) -> bytes:
    sig = cricket_interface().signatures[proc]
    enc = XdrEncoder()
    enc.pack_uint(xid)
    enc.pack_enum(msg.REPLY)
    enc.pack_enum(msg.MSG_ACCEPTED)
    msg.NULL_AUTH.encode(enc)
    enc.pack_enum(msg.SUCCESS)
    return enc.getvalue() + bytes(sig.encode_result(value))


class RawPeer:
    """A socket server that keeps every byte it receives and answers each
    call with a canned success reply (framed by the reference)."""

    def __init__(self, results: list[bytes]) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.received: list[bytes] = []
        self._results = results
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            for results in self._results:
                raw = bytearray()

                def read(n: int) -> bytes:
                    chunk = conn.recv(n)
                    raw.extend(chunk)
                    return chunk

                record = read_record_reference(read)
                self.received.append(bytes(raw))
                reply = msg.RpcMessage(
                    int.from_bytes(record[:4], "big"), msg.AcceptedReply(results=results)
                ).encode()
                conn.sendall(encode_record(reply))

    def close(self) -> None:
        self._thread.join(timeout=10)
        self.listener.close()


class TestWireIdentity:
    def test_what_a_raw_peer_receives_for_a_launch_and_a_bulk_upload(self):
        ok = bytes(4)  # an int result of 0
        peer = RawPeer([ok, ok])
        fragment = 1 << 20
        client = CricketClient(TcpTransport(*peer.address, fragment_size=fragment))
        try:
            cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
            meta = load_cubin(cubin).metadata.kernel("saxpy")
            client._function_meta[7] = meta
            client.launch_kernel(7, (1, 1, 1), (256, 1, 1), (0x2000, 0x1000, 1.0, 256))
            launch = reference_call(
                client,
                "rpc_cuLaunchKernel",
                (
                    7,
                    {"x": 1, "y": 1, "z": 1},
                    {"x": 256, "y": 1, "z": 1},
                    kparams.pack_params(meta, (0x2000, 0x1000, 1.0, 256)),
                    0,
                    0,
                ),
            )
            payload = payload_of(16 * MIB)
            client.memcpy_h2d(0x1000, payload)
            upload = reference_call(client, "rpc_cudaMemcpyH2D", (0x1000, payload))
        finally:
            client.close()
            peer.close()
        assert peer.received[0] == encode_record(launch, fragment)
        assert len(peer.received[1]) == len(upload) + 4 * 17
        assert peer.received[1] == encode_record(upload, fragment)

    def test_what_a_raw_peer_receives_for_a_d2h_reply(self):
        server = _cricket_server()
        server.fragment_size = 256 * 1024
        host, port = server.serve_tcp()
        helper = CricketClient.connect_tcp(host, port)
        try:
            size = 2 * MIB + 3
            payload = payload_of(size)
            buffer = helper.malloc(size)
            helper.memcpy_h2d(buffer, payload)
            sig = cricket_interface().signatures["rpc_cudaMemcpyD2H"]
            iface = cricket_interface()
            call = msg.RpcMessage(
                0xABCD,
                msg.CallBody(
                    iface.prog_number, iface.vers_number, sig.number,
                    args=bytes(sig.encode_args((buffer, size))),
                ),
            ).encode()
            raw = bytearray()
            with socket.create_connection((host, port)) as sock:
                sock.sendall(encode_record(call))

                def read(n: int) -> bytes:
                    chunk = sock.recv(n)
                    raw.extend(chunk)
                    return chunk

                reply = read_record_reference(read)
            expected = reference_reply(0xABCD, "rpc_cudaMemcpyD2H", {"err": 0, "data": payload})
            assert reply == expected
            assert bytes(raw) == encode_record(expected, server.fragment_size)
        finally:
            helper.close()
            server.shutdown()


# -- the meter is charged what crossed the wire ------------------------------------------


class RecordingMeter:
    def __init__(self) -> None:
        self.sent: list[int] = []
        self.received: list[int] = []

    def on_send(self, nbytes: int) -> None:
        self.sent.append(nbytes)

    def on_recv(self, nbytes: int) -> None:
        self.received.append(nbytes)


class TestMeterChargesWireBytes:
    def test_peer_fragments_at_its_own_size(self):
        """Client 1 MiB fragments, server 64 KiB: a 1 MiB D2H reply comes
        in 17 fragments, and that is what ``on_recv`` is charged."""
        server = _cricket_server()
        server.fragment_size = 64 * 1024
        host, port = server.serve_tcp()
        meter = RecordingMeter()
        client = CricketClient(TcpTransport(host, port, fragment_size=MIB, meter=meter))
        try:
            buffer = client.malloc(MIB)
            payload = payload_of(MIB)
            client.memcpy_h2d(buffer, payload)
            request = reference_call(client, "rpc_cudaMemcpyH2D", (buffer, payload))
            request_bytes = meter.sent[-1]
            client.memcpy_d2h(buffer, MIB)
        finally:
            client.close()
            server.shutdown()
        reply_len = len(reference_reply(0, "rpc_cudaMemcpyD2H", {"err": 0, "data": payload}))
        assert -(-reply_len // (64 * 1024)) == 17
        assert meter.received[-1] == reply_len + 4 * 17
        # and the sender is charged what sendmsg put on the wire (2 fragments)
        assert request_bytes == len(request) + 4 * 2

    @pytest.mark.parametrize("fragment", (64, 1000, MIB))
    def test_equal_fragment_sizes_charge_what_they_always_did(self, fragment):
        """payload + 4 per fragment, both directions, both transports."""
        server = RpcServer(fragment_size=fragment)
        server.register_program(77, 1, {1: lambda args, ctx: bytes(args) * 2})
        host, port = server.serve_tcp()
        try:
            for make in (
                lambda meter: TcpTransport(host, port, fragment_size=fragment, meter=meter),
                lambda meter: LoopbackTransport(
                    server.dispatch_record, fragment_size=fragment, meter=meter
                ),
            ):
                meter = RecordingMeter()
                transport = make(meter)
                call = msg.RpcMessage(5, msg.CallBody(77, 1, 1, args=bytes(1500))).encode()
                transport.send_record(call)
                reply = transport.recv_record()
                transport.close()
                assert len(reply) > 3000
                assert meter.sent == [len(encode_record(call, fragment))]
                assert meter.received == [len(encode_record(reply, fragment))]
        finally:
            server.shutdown()


# -- CRC without copies ---------------------------------------------------------------


class TestCrcInPlace:
    def test_trailer_goes_onto_an_owned_bytearray_in_place(self):
        record = bytearray(b"an outgoing record")
        framed = append_crc(record)
        assert framed is record and len(record) == 18 + 4
        payload = verify_crc(framed)
        assert isinstance(payload, memoryview) and payload.readonly
        assert payload.obj is record and payload == b"an outgoing record"

    def test_buffers_others_hold_are_left_alone(self):
        for shared in (b"immutable", memoryview(bytearray(b"lent out"))):
            framed = append_crc(shared)
            assert type(framed) is bytes and framed is not shared
            assert verify_crc(framed) == bytes(shared)
        viewed = bytearray(b"somebody reads this")
        reader = memoryview(viewed)
        framed = append_crc(viewed)
        assert framed is not viewed and viewed == b"somebody reads this"
        assert verify_crc(framed) == reader

    def test_crc_server_never_extends_the_reply_it_caches(self):
        server = RpcServer(crc_records=True)
        server.register_program(77, 1, {1: lambda args, ctx: b"\0\0\0\x2a"})
        replies: list = []
        server.on_executed = lambda record, call, reply: replies.append(reply)
        call = msg.RpcMessage(5, msg.CallBody(77, 1, 1)).encode()
        first = server.dispatch_record(append_crc(bytes(call)))
        size = len(replies[0])
        again = server.dispatch_record(append_crc(bytes(call)))  # reply-cache hit
        assert bytes(first) == bytes(again) and server.server_stats.reply_cache_hits == 1
        assert len(replies[0]) == size and verify_crc(first) == replies[0]

    def test_checksummed_16mib_over_tcp(self):
        server = _cricket_server(crc_records=True)
        host, port = server.serve_tcp()
        client = CricketClient.connect_tcp(host, port, crc=True)
        assert isinstance(client.stub.client.transport, ChecksummedTransport)
        try:
            payload = payload_of(16 * MIB)
            buffer = client.malloc(16 * MIB)
            client.memcpy_h2d(buffer, payload)
            assert client.memcpy_d2h(buffer, 16 * MIB) == payload
            assert server.server_stats.crc_rejected == 0
            assert client.stats.crc_rejected == 0
        finally:
            client.close()
            server.shutdown()

    def test_rejects_are_counted_on_both_sides(self):
        server = _cricket_server(crc_records=True)
        assert server.dispatch_record(b"not checksummed at all") is None
        assert server.server_stats.crc_rejected == 1
        client = CricketClient.loopback(server)
        inner = client.stub.client.transport.inner
        inner._pending.append(bytearray(b"a reply nobody checksummed"))
        with pytest.raises(RpcTransportError):
            client.stub.client.transport.recv_record()
        assert client.stats.crc_rejected == 1


# -- the copy budget ------------------------------------------------------------------


class TestCopyBudget:
    """Live copies of the payload at the worst moment of one 16 MiB copy.

    Client and server share the process over ``LoopbackTransport`` (same
    framing and reassembly as TCP), so the allocation sequence repeats
    exactly.  H2D, warm: nothing -- the request references the caller's
    buffer, the server receives the payload into the array the previous
    upload swapped out of the allocation (the allocator's spare), and the
    device write adopts it.  D2H: the reply references pinned device
    memory; the loopback "socket" copies it out once, and the client the
    ``bytes`` handed to the caller.  Each side alone, the two sends copy
    nothing.
    """

    SIZE = 16 * MIB
    SIDE_BUDGET = 0.05

    @pytest.fixture
    def rig(self):
        server = _cricket_server()
        client = CricketClient.loopback(server)
        buffer = client.malloc(self.SIZE)
        payload = payload_of(self.SIZE)
        client.memcpy_h2d(buffer, payload)  # warm both paths
        client.memcpy_d2h(buffer, self.SIZE)
        yield server, client, buffer, payload
        client.close()

    def _peak_ratio(self, copy) -> float:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            copy()
            return (tracemalloc.get_traced_memory()[1] - before) / self.SIZE
        finally:
            tracemalloc.stop()

    def test_h2d(self, rig):
        server, client, buffer, payload = rig
        adopted = server.devices[0].allocator.landings_adopted
        ratio = self._peak_ratio(lambda: client.memcpy_h2d(buffer, payload))
        assert ratio < self.SIDE_BUDGET
        assert server.devices[0].allocator.landings_adopted == adopted + 1

    def test_d2h(self, rig):
        _, client, buffer, _ = rig
        ratio = self._peak_ratio(lambda: client.memcpy_d2h(buffer, self.SIZE))
        assert 1.9 < ratio <= 2.1

    def test_client_side_of_h2d(self):
        """Encoding the call and sending it to a socket peer."""
        listener = socket.create_server(("127.0.0.1", 0))
        drained = threading.Event()

        def drain_into_one_buffer() -> None:
            conn, _ = listener.accept()
            sink, total = memoryview(bytearray(MIB)), 0
            with conn:
                while count := conn.recv_into(sink):
                    total += count
            drained.set()

        threading.Thread(target=drain_into_one_buffer, daemon=True).start()
        client = CricketClient(TcpTransport(*listener.getsockname()[:2]))
        sig = cricket_interface().signatures["rpc_cudaMemcpyH2D"]
        payload = payload_of(self.SIZE)
        rpc = client.stub.client

        def encode_and_send() -> None:
            writer = partial(sig.encode_args, (0x1000, payload))  # what the stub hands over
            rpc.transport.send_record(rpc._encode_call(1, sig.number, writer, None))

        try:
            encode_and_send()  # warm
            assert self._peak_ratio(encode_and_send) < self.SIDE_BUDGET
        finally:
            client.close()
            listener.close()
        assert drained.wait(10)

    def test_server_side_of_d2h(self, rig):
        """``dispatch_record`` of the call, the reply held and not yet sent."""
        server, _, buffer, payload = rig
        iface = cricket_interface()
        sig = iface.signatures["rpc_cudaMemcpyD2H"]
        call = msg.RpcMessage(
            77, msg.CallBody(iface.prog_number, iface.vers_number, sig.number,
                             args=bytes(sig.encode_args((buffer, self.SIZE))))
        ).encode()
        replies = []
        assert self._peak_ratio(lambda: replies.append(server.dispatch_record(call))) < (
            self.SIDE_BUDGET
        )
        (reply,) = replies
        assert type(reply) is GatherRecord and bytes(reply).endswith(payload)

