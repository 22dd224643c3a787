"""Stateful property-based tests (hypothesis RuleBasedStateMachine).

These drive the device allocator and the Rust-lifetime buffer layer with
arbitrary interleavings of operations, maintaining a shadow model and
checking the allocator invariants after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.errors import DoubleFreeClientError, UseAfterFreeError
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.memory import DeviceAllocator

MIB = 1 << 20


class AllocatorMachine(RuleBasedStateMachine):
    """Random alloc/free/write/read workload against a shadow model."""

    def __init__(self):
        super().__init__()
        self.allocator = DeviceAllocator(2 * MIB)
        #: ptr -> shadow contents (bytearray)
        self.shadow: dict[int, bytearray] = {}

    ptrs = Bundle("ptrs")

    @rule(target=ptrs, size=st.integers(min_value=1, max_value=64 * 1024))
    def alloc(self, size):
        try:
            ptr = self.allocator.alloc(size)
        except OutOfMemoryError:
            return None
        assert ptr not in self.shadow
        self.shadow[ptr] = bytearray(size)
        return ptr

    @rule(ptr=ptrs)
    def free(self, ptr):
        if ptr is None:
            return
        if ptr in self.shadow:
            self.allocator.free(ptr)
            del self.shadow[ptr]
        else:
            # already freed by an earlier rule invocation on the same ptr
            try:
                self.allocator.free(ptr)
                raise AssertionError("double free not detected")
            except Exception:
                pass

    @rule(ptr=ptrs, data=st.binary(min_size=1, max_size=512),
          offset=st.integers(min_value=0, max_value=1024))
    def write_read(self, ptr, data, offset):
        if ptr is None or ptr not in self.shadow:
            return
        shadow = self.shadow[ptr]
        if offset + len(data) > len(shadow):
            return
        self.allocator.write(ptr + offset, data)
        shadow[offset : offset + len(data)] = data
        assert self.allocator.read(ptr, len(shadow)) == bytes(shadow)

    @rule(ptr=ptrs)
    def read_whole(self, ptr):
        if ptr is None or ptr not in self.shadow:
            return
        shadow = self.shadow[ptr]
        assert self.allocator.read(ptr, len(shadow)) == bytes(shadow)

    @invariant()
    def allocator_invariants_hold(self):
        self.allocator.check_invariants()

    @invariant()
    def usage_matches_shadow(self):
        assert len(self.allocator.live_allocations()) == len(self.shadow)


TestAllocatorStateMachine = AllocatorMachine.TestCase
TestAllocatorStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class BufferLifetimeMachine(RuleBasedStateMachine):
    """Random lifetime operations on DeviceBuffers must never corrupt state
    nor let a lifetime violation reach the server."""

    def __init__(self):
        super().__init__()
        from repro import GpuSession, SessionConfig

        self.session = GpuSession(SessionConfig(device_mem_bytes=4 * MIB))
        self.live: list = []
        self.dead: list = []

    buffers = Bundle("buffers")

    @rule(target=buffers, size=st.integers(min_value=1, max_value=32 * 1024))
    def alloc(self, size):
        buffer = self.session.alloc(size)
        self.live.append(buffer)
        return buffer

    @rule(buffer=buffers)
    def free(self, buffer):
        if buffer in self.live:
            buffer.free()
            self.live.remove(buffer)
            self.dead.append(buffer)
        else:
            try:
                buffer.free()
                raise AssertionError("double free not detected client-side")
            except DoubleFreeClientError:
                pass

    @rule(buffer=buffers, value=st.integers(min_value=0, max_value=255))
    def touch(self, buffer, value):
        if buffer in self.live:
            buffer.fill(value)
            data = buffer.read()
            assert data == bytes([value]) * buffer.size
        else:
            calls_before = self.session.api_calls
            try:
                buffer.fill(value)
                raise AssertionError("use after free not detected")
            except UseAfterFreeError:
                pass
            # the violation never became an RPC
            assert self.session.api_calls == calls_before

    @invariant()
    def server_state_consistent(self):
        live_on_server = len(self.session.server.device.allocator.live_allocations())
        assert live_on_server == len(self.live)

    def teardown(self):
        self.session.close()


TestBufferLifetimeMachine = BufferLifetimeMachine.TestCase
TestBufferLifetimeMachine.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


class TestCompressionFuzz:
    """The decompressor must reject arbitrary garbage, never crash."""

    def test_fuzz_decompress_rejects_garbage(self):
        import random

        from repro.cubin.compression import DecompressionError, MAGIC, decompress

        rng = random.Random(99)
        rejected = 0
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            try:
                decompress(blob)
            except DecompressionError:
                rejected += 1
        assert rejected >= 295  # nearly everything must be rejected cleanly

    def test_fuzz_decompress_valid_magic_bad_stream(self):
        import random
        import struct

        from repro.cubin.compression import DecompressionError, MAGIC, decompress

        rng = random.Random(7)
        for _ in range(200):
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
            blob = struct.pack("<II", MAGIC, rng.randrange(1, 500)) + body
            try:
                result = decompress(blob)
                assert isinstance(result, bytes)  # rare accidental success ok
            except DecompressionError:
                pass


class TestLoaderFuzz:
    def test_fuzz_cubin_loader_never_crashes(self):
        import random

        from repro.cubin.errors import CubinError
        from repro.cubin.loader import load_cubin

        rng = random.Random(5)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(128)))
            try:
                load_cubin(blob)
            except CubinError:
                pass

    def test_fuzz_rpc_message_decode(self):
        import random

        from repro.oncrpc.errors import RpcProtocolError
        from repro.oncrpc.message import RpcMessage
        from repro.xdr.errors import XdrError

        rng = random.Random(3)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(4 * rng.randrange(1, 24)))
            try:
                RpcMessage.decode(blob)
            except (RpcProtocolError, XdrError):
                pass
