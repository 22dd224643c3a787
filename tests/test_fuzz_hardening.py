"""Property-based hardening tests for the hostile-input surfaces.

Everything a remote peer controls -- record-marking headers, XDR length
prefixes, whole RPC messages -- is fuzzed here with Hypothesis under a
fixed, derandomized profile (so CI failures reproduce exactly).  The
invariant under test is always the same: hostile bytes produce a *typed*
error or a clean parse, never a hang, a MemoryError, or an untyped crash.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cricket import CricketServer
from repro.oncrpc import message as msg
from repro.oncrpc.auth import call_meta_auth, client_token_auth
from repro.oncrpc.errors import (
    RpcIntegrityError,
    RpcProtocolError,
    RpcTransportError,
)
from repro.oncrpc.record import (
    DEFAULT_MAX_FRAGMENT,
    LAST_FRAGMENT,
    READ_AHEAD_BYTES,
    RecordReader,
    append_crc,
    encode_record,
    verify_crc,
)
from repro.xdr import XdrDecoder, XdrError, XdrLimitError

# Fixed profile: derandomized so every CI run fuzzes the identical corpus,
# deadline=None so a loaded CI box never flakes on per-example timing.
settings.register_profile(
    "hardening",
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hardening")

#: every exception a hostile record is *allowed* to produce
TYPED_RECORD_ERRORS = (RpcTransportError, RpcProtocolError, RpcIntegrityError)


def stream_reader(data: bytes, **kwargs) -> RecordReader:
    """A RecordReader over an in-memory byte stream with recv semantics."""
    view = memoryview(data)
    pos = 0

    def read(n: int) -> bytes:
        nonlocal pos
        chunk = view[pos : pos + n]
        pos += len(chunk)
        return bytes(chunk)

    return RecordReader(read, **kwargs)


class TestRecordReaderFuzz:
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes_terminate(self, data):
        """Random garbage into the reassembler: records or typed errors,
        and the stream always terminates (no livelock on junk headers)."""
        reader = stream_reader(
            data, max_record_size=1 << 16, max_fragment_size=1 << 12
        )
        # each loop iteration consumes >= 4 header bytes or ends the stream
        for _ in range(len(data) // 4 + 2):
            try:
                if reader.read_record() is None:
                    return
            except TYPED_RECORD_ERRORS:
                return
        pytest.fail("record reader failed to make progress on fuzz input")

    @given(st.binary(max_size=2048), st.integers(min_value=0))
    def test_bit_flipped_record(self, payload, position):
        """One flipped bit anywhere in a framed CRC'd record: either the
        flip lands in padding we never made (impossible), the CRC catches
        it, or the framing rejects it -- never a hang or untyped crash."""
        wire = bytearray(encode_record(append_crc(payload), fragment_size=256))
        position %= len(wire)
        wire[position] ^= 1 << (position % 8)
        reader = stream_reader(
            bytes(wire), max_record_size=1 << 16, max_fragment_size=1 << 12
        )
        try:
            record = reader.read_record()
            if record is not None:
                verify_crc(record)
        except TYPED_RECORD_ERRORS:
            pass

    @given(st.binary(max_size=1024), st.integers(min_value=0))
    def test_truncated_record(self, payload, position):
        """Cutting the stream anywhere inside a record is a typed
        transport error (or a clean None when nothing arrived at all)."""
        wire = encode_record(payload, fragment_size=128)
        cut = position % len(wire)
        reader = stream_reader(wire[:cut], max_record_size=1 << 16)
        if cut == 0:
            assert reader.read_record() is None
        else:
            with pytest.raises(RpcTransportError):
                reader.read_record()

    def test_oversized_fragment_rejected_before_buffering(self):
        """A forged header declaring a multi-hundred-MiB fragment is
        refused from the 4 header bytes alone -- the reader never asks the
        transport for the declared payload."""
        hostile = ((256 * 1024 * 1024) | LAST_FRAGMENT).to_bytes(4, "big")
        requested: list[int] = []
        view = memoryview(hostile)
        pos = 0

        def read(n: int) -> bytes:
            nonlocal pos
            requested.append(n)
            chunk = view[pos : pos + n]
            pos += len(chunk)
            return bytes(chunk)

        reader = RecordReader(read)
        with pytest.raises(RpcProtocolError, match="above the"):
            reader.read_record()
        # Nothing was asked for beyond the reader's own read-ahead buffer.
        assert max(requested) <= READ_AHEAD_BYTES
        assert 256 * 1024 * 1024 > DEFAULT_MAX_FRAGMENT  # the cap did this

    def test_record_size_cap_across_fragments(self):
        """Many small conforming fragments cannot tiptoe past the record
        cap: reassembly stops at the bound, not at exhaustion."""
        fragment = (64 | 0).to_bytes(4, "big") + b"\x00" * 64

        def read(n, _state=[0, fragment * 8]):
            pos, data = _state
            chunk = data[pos : pos + n]
            _state[0] += len(chunk)
            return chunk

        reader = RecordReader(read, max_record_size=256)
        with pytest.raises(RpcProtocolError, match="maximum size"):
            reader.read_record()


class TestMessageDecodeFuzz:
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, data):
        """Random bytes into RpcMessage.decode: message or typed error."""
        try:
            msg.RpcMessage.decode(data)
        except (RpcProtocolError, XdrError):
            pass

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=7))
    def test_bit_flipped_call(self, position, bit):
        """A real call message with one bit flipped still decodes to a
        message or a typed error -- auth opaques, length prefixes and
        union discriminants all reject rather than crash."""
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=12,
            cred=client_token_auth(b"fuzz-tenant"),
            verf=call_meta_auth(5_000_000, priority=1),
            args=(4096).to_bytes(8, "big") + (8).to_bytes(4, "big") + b"abcdefgh",
        )
        wire = bytearray(msg.RpcMessage(99, call).encode())
        position %= len(wire)
        wire[position] ^= 1 << bit
        try:
            msg.RpcMessage.decode(bytes(wire))
        except (RpcProtocolError, XdrError):
            pass


class TestXdrDecoderFuzz:
    @given(st.binary(max_size=256))
    def test_opaque_and_string(self, data):
        """Length-prefixed unpacks on arbitrary bytes: the declared length
        is capped *before* allocation, so a forged 4-byte prefix can name
        4 GiB without costing more than a typed error."""
        for unpack in ("unpack_opaque", "unpack_string", "unpack_array_header"):
            try:
                getattr(XdrDecoder(data), unpack)()
            except XdrError:
                pass

    def test_forged_length_is_limit_error(self):
        hostile = (0xFFFF_FFF0).to_bytes(4, "big")
        with pytest.raises(XdrLimitError):
            XdrDecoder(hostile).unpack_opaque()
        # the typed subclass still participates in the generic mapping
        assert issubclass(XdrLimitError, XdrError)


class TestServerHostileArgs:
    def test_hostile_opaque_length_maps_to_garbage_args(self):
        """rpc_cudaMemcpyH2D with a forged ~4 GiB opaque length prefix:
        the server answers GARBAGE_ARGS (XdrLimitError mapped by the stub
        skeleton) instead of buffering, crashing, or touching the GPU."""
        server = CricketServer()
        used_before = sum(d.allocator.used_bytes for d in server.devices)
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=12,  # rpc_cudaMemcpyH2D(unsigned hyper, raw)
            cred=client_token_auth(b"fuzz-tenant"),
            verf=call_meta_auth(5_000_000_000),
            args=(4096).to_bytes(8, "big") + (0xFFFF_FFF0).to_bytes(4, "big"),
        )
        reply = server.dispatch_record(msg.RpcMessage(11, call).encode())
        assert msg.RpcMessage.decode(reply).body.stat == msg.GARBAGE_ARGS
        assert sum(d.allocator.used_bytes for d in server.devices) == used_before


class TestExpiredNeverExecutes:
    """Satellite regression: a call that arrives past its deadline must be
    refused before any GpuDevice method runs, for *any* xid or size."""

    server = None

    @classmethod
    def setup_class(cls):
        cls.server = CricketServer()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=0xFFFF_FFFF),
        st.integers(min_value=1, max_value=1 << 30),
    )
    def test_expired_malloc_never_allocates(self, xid, size):
        server = self.server
        used_before = sum(d.allocator.used_bytes for d in server.devices)
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=10,  # rpc_cudaMalloc
            cred=client_token_auth(b"expired-tenant"),
            verf=call_meta_auth(0),  # remaining budget: none
            args=size.to_bytes(8, "big"),
        )
        reply = server.dispatch_record(msg.RpcMessage(xid, call).encode())
        assert msg.RpcMessage.decode(reply).body.stat == msg.CALL_EXPIRED
        assert sum(d.allocator.used_bytes for d in server.devices) == used_before
