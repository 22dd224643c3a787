"""The small-call hot path against its references, and its call budget.

Every per-call shortcut keeps what it replaced as the reference, and this
file holds the two to each other:

* a kernel's parameter block compiled once (``KernelMeta.param_struct``)
  against the parameter-by-parameter walk (``pack_params_reference`` /
  ``unpack_params_reference``): the same bytes and values, or the same
  ``KernelParamError`` text -- and ``Kernel.check_params`` against
  ``check_params_reference``;
* the launch duration, geometry normalised, against the roofline of
  ``GpuTimingModel.kernel_time_s(kernel.cost(ctx))``: equal, not close;
* the read-ahead ``RecordReader`` against ``read_record_reference``;
* the tuple-built RPC structures against the reference walk.

And the small-call twin of ``TestCopyBudget``: the Python and C calls one
loopback call makes, and the ``recv_into`` calls one small record costs.
Call counts repeat exactly, so they hold the hot path where timings from
hosted runners cannot.
"""

from __future__ import annotations

import itertools
import math
import pickle
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cricket import CricketClient, CricketServer
from repro.cricket.params import (
    pack_params,
    pack_params_reference,
    unpack_params,
    unpack_params_reference,
)
from repro.cubin.loader import build_cubin_for_registry, load_cubin
from repro.cubin.metadata import KernelMeta, ParamInfo
from repro.gpu import A100, GpuDevice
from repro.gpu.kernels import PARAM_KINDS, LaunchContext, build_default_registry
from repro.harness.runner import make_session
from repro.oncrpc import message as msg
from repro.oncrpc.auth import (
    NULL_AUTH,
    AuthSysParams,
    OpaqueAuth,
    call_meta_auth,
    client_token_auth,
    leader_epoch_auth,
)
from repro.oncrpc.errors import RpcProtocolError, RpcTransportError
from repro.oncrpc.record import (
    READ_AHEAD_BYTES,
    RecordReader,
    encode_record,
    read_record_reference,
)
from repro.unikernel import rustyhermit
from repro.xdr import XdrEncoder

MIB = 1 << 20
#: the same corpus on every run, and no per-example deadline on a loaded box
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def outcome(fn, *args):
    """What a call returns, or the type and text of what it raises; ``repr``
    so a NaN unpacked by both sides compares equal."""
    try:
        return repr(("ok", fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return repr((type(exc), str(exc)))


# -- the parameter block ------------------------------------------------------------

#: values of every shape a caller may hand a parameter: in range, out of
#: range, of the wrong type, numpy scalars, bools, non-finite floats
VALUES = st.one_of(
    st.integers(min_value=-(2**65), max_value=2**65),
    st.sampled_from([0, 1, -1, 2**31 - 1, 2**31, -(2**31) - 1, 2**32, 2**64 - 1, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e39, -1e39, 3.4e38, float("nan"), True, False]),
    st.sampled_from([np.int32(7), np.uint64(2**63), np.float32(1.5), np.float64(-2.5)]),
    st.sampled_from([None, "7", b"\x07", 1j, [1], object()]),
)


@st.composite
def layouts(draw) -> KernelMeta:
    """Parameter layouts: natural ones, and hand-laid ones with gaps,
    overlaps, offsets out of order and sizes that disagree with the kind."""
    kinds = draw(st.lists(st.sampled_from(PARAM_KINDS), max_size=7))
    if draw(st.booleans()):
        return KernelMeta.from_kinds("k", tuple(kinds))
    offsets = draw(st.lists(st.integers(0, 64), min_size=len(kinds), max_size=len(kinds)))
    if draw(st.booleans()):
        offsets.sort()
    sizes = [draw(st.sampled_from([4, 8, 12])) for _ in kinds]
    return KernelMeta("k", tuple(ParamInfo(k, s, o) for k, s, o in zip(kinds, sizes, offsets)))


class TestParamBlockIsTheWalk:
    @PROPERTY
    @given(layouts(), st.data())
    def test_pack(self, meta, data):
        count = len(meta.params) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        values = data.draw(st.lists(VALUES, min_size=max(count, 0), max_size=max(count, 0)))
        assert outcome(pack_params, meta, values) == outcome(pack_params_reference, meta, values)

    @PROPERTY
    @given(layouts(), st.data())
    def test_unpack(self, meta, data):
        size = meta.param_block_size + data.draw(st.sampled_from([0, 0, 0, -1, 3]))
        block = data.draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
        for buffer in (block, memoryview(block)):
            assert outcome(unpack_params, meta, buffer) == outcome(
                unpack_params_reference, meta, block
            )

    @pytest.mark.parametrize("kinds", [(), ("f64",), ("i32", "ptr", "f32", "u64", "u32", "f64")])
    def test_natural_layouts_compile(self, kinds):
        """Every CUDA-ABI layout compiles; the padding is pad bytes."""
        meta = KernelMeta.from_kinds("k", kinds)
        assert meta.param_struct is not None
        assert meta.param_struct.size == meta.param_block_size

    def test_layouts_only_the_walk_lays_out_do_not_compile(self):
        overlapping = KernelMeta("k", (ParamInfo("u64", 8, 0), ParamInfo("u32", 4, 4)))
        backwards = KernelMeta("k", (ParamInfo("u32", 4, 8), ParamInfo("u32", 4, 0)))
        short = KernelMeta("k", (ParamInfo("u64", 4, 0),))
        for meta in (overlapping, backwards, short):
            assert meta.param_struct is None

    def test_the_launch_block_is_one_struct(self):
        meta = KernelMeta.from_kinds("saxpy", ("ptr", "ptr", "f32", "i32"))
        assert meta.param_struct.format == "<QQfi"
        values = (0x7F0000000100, 0x7F0000000200, 1.0, 256)
        assert pack_params(meta, values) == pack_params_reference(meta, values)


class TestCheckParamsIsTheReference:
    REGISTRY = build_default_registry()

    @PROPERTY
    @given(st.sampled_from(REGISTRY.names()), st.data())
    def test_every_kernel(self, name, data):
        kernel = self.REGISTRY.get(name)
        count = len(kernel.param_kinds) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        params = tuple(data.draw(st.lists(VALUES, min_size=max(count, 0), max_size=max(count, 0))))
        assert outcome(kernel.check_params, params) == outcome(
            kernel.check_params_reference, params
        )


    def test_valid_parameters_never_reach_the_walk(self, monkeypatch):
        kernel = self.REGISTRY.get("saxpy")
        monkeypatch.setattr(type(kernel), "check_params_reference", None)
        for params in [(1, 2, 3.0, 4), (np.uint64(1), 2, np.float32(3.0), np.int32(4)), (1, 2, 3, 4)]:
            kernel.check_params(params)


# -- the launch duration -------------------------------------------------------------

GEOMETRIES = [
    ((1, 1, 1), (1, 1, 1)),
    ((1, 1, 1), (256, 1, 1)),
    ((64, 1, 1), (256, 1, 1)),
    ((20, 20, 1), (16, 16, 1)),
    ((3, 5, 7), (2, 4, 8)),
]
#: a value per parameter kind, sized so every cost function does real work
SAMPLE = {"ptr": 0, "u64": 0, "u32": 640, "i32": 640, "f32": 0.5, "f64": 0.25}


def reference_ns(device: GpuDevice, kernel, grid, block, params, fp64: bool) -> int:
    ctx = LaunchContext(device, grid, block, 0, params)
    seconds = device.timing.kernel_time_s(
        kernel.cost(ctx), fp64=fp64, throttle=device.throttle_multiplier
    )
    return int(round(seconds * 1e9))


class TestDurationIsTheRoofline:
    def test_every_kernel_geometry_and_throttle(self):
        device = GpuDevice(A100, execute=False, mem_bytes=MIB)
        for kernel in map(device.registry.get, device.registry.names()):
            params = tuple(SAMPLE[kind] for kind in kernel.param_kinds)
            for (grid, block), throttle, fp64 in itertools.product(
                GEOMETRIES, (1.0, 2.5, 4.0), (False, True)
            ):
                device.throttle_multiplier = throttle
                got = device.launch(kernel, grid, block, params, fp64=fp64).duration_ns
                assert got == reference_ns(device, kernel, grid, block, params, fp64)

    def test_geometry_of_other_types_costs_what_its_ints_cost(self):
        """numpy and bool dimensions take the normalising path: the duration
        is the roofline of the ints they equal."""
        device = GpuDevice(A100, execute=False, mem_bytes=MIB)
        kernel = device.registry.get("saxpy")
        for params in [(0, 0, 1.0, 512), (np.int64(0), 0, np.float32(1.0), np.int32(512))]:
            for grid in [(2, 1, 1), (np.int64(2), True, 1)]:
                got = device.launch(kernel, grid, (256, 1, 1), params).duration_ns
                ints = tuple(map(int, grid))
                assert got == reference_ns(device, kernel, ints, (256, 1, 1), params, False)


# -- the read-ahead reader -------------------------------------------------------------


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


def both(wire: bytes, sizes, **limits) -> tuple[list, list]:
    read, _ = scheduled(wire, sizes)
    _, recv_into = scheduled(wire, sizes)
    reader = RecordReader(recv_into=recv_into, **limits)
    return drain(reader.read_record), drain(lambda: read_record_reference(read, **limits))


#: batched replies: many small records back to back, in one segment
BATCH = [bytes([i]) * (4 + 4 * (i % 9)) for i in range(40)]
SCHEDULES = [(1 << 30,), (1,), (2, 3, 1), (3, 1000, 1), (5,), (READ_AHEAD_BYTES - 1, 7)]


class TestReadAheadIsTheReference:
    @pytest.mark.parametrize("sizes", SCHEDULES)
    def test_back_to_back_records(self, sizes):
        wire = b"".join(encode_record(record, 16) for record in BATCH)
        new, reference = both(wire, sizes)
        assert new == reference == [*BATCH, None]

    @pytest.mark.parametrize("sizes", SCHEDULES)
    def test_records_around_the_buffer_size(self, sizes):
        records = [bytes(n) for n in (READ_AHEAD_BYTES - 8, READ_AHEAD_BYTES - 4, 1, 3 * READ_AHEAD_BYTES + 5)]
        wire = b"".join(encode_record(r, fragment) for r in records for fragment in (1 << 20, 1000))
        new, reference = both(wire, sizes)
        assert new == reference
        assert new[-1] is None

    @pytest.mark.parametrize("sizes", [(1 << 30,), (1,), (3, 2)])
    def test_eof_at_every_offset(self, sizes):
        """Inside a mark, inside a body, between records: the same records
        and the same typed error with the same message."""
        wire = b"".join(encode_record(record, 5) for record in BATCH[:6])
        for cut in range(len(wire) + 1):
            new, reference = both(wire[:cut], sizes)
            assert new == reference, cut

    @PROPERTY
    @given(
        st.lists(st.binary(max_size=300), max_size=6),
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6),
    )
    def test_records_property(self, records, fragment, sizes):
        wire = b"".join(encode_record(r, fragment) for r in records)
        new, reference = both(wire, sizes)
        assert new == reference == [*records, None]

    @PROPERTY
    @given(
        st.binary(max_size=400),
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    )
    def test_hostile_streams_property(self, wire, sizes):
        limits = dict(max_record_size=1 << 10, max_fragment_size=1 << 8)
        new, reference = both(wire, sizes, **limits)
        assert new == reference

    def test_a_long_fragment_is_filled_in_place(self):
        """At most the buffered prefix of a fragment is copied; the rest goes
        from the stream into the record itself."""
        record = np.random.default_rng(3).bytes(3 * MIB + 17)
        wire = encode_record(record, MIB)
        _, recv_into = scheduled(wire, (1 << 30,))
        targets: list[tuple[object, int]] = []

        def spy(view: memoryview) -> int:
            targets.append((view.obj, len(view)))
            return recv_into(view)

        reader = RecordReader(recv_into=spy)
        got = reader.read_record()
        assert got == record and reader.wire_bytes == len(wire)
        into_record = [n for obj, n in targets if obj is got]
        into_buffer = [n for obj, n in targets if obj is not got]
        assert len(into_buffer) == 4  # one per fragment mark
        assert len(into_record) == 3  # the rest of each 1 MiB fragment, in place
        copied = len(record) - sum(into_record)
        assert copied == 3 * (READ_AHEAD_BYTES - 4) + 17  # buffered prefixes, the tail


class CountingSocket:
    """A socket peer that has the whole wire waiting: every ``recv_into``
    gets all that fits."""

    def __init__(self, wire: bytes) -> None:
        self._read, self._recv_into = scheduled(wire, (1 << 30,))
        self.calls = 0

    def recv_into(self, view: memoryview) -> int:
        self.calls += 1
        return self._recv_into(view)


class TestOneRecvPerSmallRecord:
    def test_one_small_record_one_recv(self):
        call = bytes(msg.RpcMessage(7, msg.CallBody(1, 1, 34, args=bytes(120))).encode())
        sock = CountingSocket(encode_record(call))
        reader = RecordReader(recv_into=sock.recv_into)
        assert reader.read_record() == call
        assert sock.calls == 1

    def test_a_batch_of_replies_in_one_segment_is_one_recv(self):
        replies = [bytes([i]) * 28 for i in range(READ_AHEAD_BYTES // 32)]
        wire = b"".join(encode_record(record) for record in replies)
        sock = CountingSocket(wire)
        reader = RecordReader(recv_into=sock.recv_into)
        assert [reader.read_record() for _ in replies] == replies
        assert sock.calls == 1
        assert reader.read_record() is None and sock.calls == 2

    def test_a_reconnect_starts_from_an_empty_buffer(self):
        """What a reader read ahead dies with it: a new reader on a new
        stream sees only that stream."""
        first = encode_record(b"one") + encode_record(b"two")
        old = RecordReader(recv_into=CountingSocket(first).recv_into)
        assert old.read_record() == b"one"
        new = RecordReader(recv_into=CountingSocket(encode_record(b"three")).recv_into)
        assert new.read_record() == b"three"
        assert new.read_record() is None


# -- the RPC structures ------------------------------------------------------------------

AUTHS = [
    NULL_AUTH,
    OpaqueAuth(0, b""),
    client_token_auth(bytes(range(16))),
    client_token_auth(b"tok5!"),
    call_meta_auth(1_500_000, 2),
    leader_epoch_auth(7, True, "node-b"),
    AuthSysParams(1, "unikernel", 1000, 100, (4, 24)).to_opaque(),
    OpaqueAuth(9, bytes(400)),
]


def messages() -> list[msg.RpcMessage]:
    out = []
    for cred, verf in itertools.product(AUTHS, AUTHS[::3]):
        out.append(msg.RpcMessage(0xDEADBEEF, msg.CallBody(0x20000199, 1, 34, cred, verf, bytes(8))))
    for verf in AUTHS:
        out.append(msg.RpcMessage(17, msg.AcceptedReply(verf, msg.SUCCESS, b"\0\0\0\1")))
        out.append(msg.RpcMessage(18, msg.AcceptedReply(verf, msg.RPC_BUSY)))
    out.append(msg.RpcMessage(4, msg.RejectedReply(msg.RPC_MISMATCH, 0, 2, 2), msg.MSG_DENIED))
    return out


class TestStructuresAreValues:
    @pytest.mark.parametrize("message", messages(), ids=repr)
    def test_decode_is_the_reference_decode(self, message):
        wire = bytes(message.encode())
        assert wire == bytes(msg.encode_reference(message))
        decoded = msg.RpcMessage.decode(wire)
        reference = msg.decode_reference(wire)
        assert decoded == reference and hash(decoded) == hash(reference)
        assert type(decoded.body) is type(reference.body)

    @pytest.mark.parametrize("auth", AUTHS, ids=repr)
    def test_an_auth_carries_its_wire_form(self, auth):
        encoder = XdrEncoder()
        auth.encode(encoder)
        assert auth.wire == encoder.getvalue()
        assert pickle.loads(pickle.dumps(auth)) == auth

    def test_equality_is_a_dataclass_equality(self):
        body = msg.CallBody(1, 2, 3)
        assert body == msg.CallBody(1, 2, 3, NULL_AUTH, NULL_AUTH, b"")
        assert hash(body) == hash(msg.CallBody(1, 2, 3))
        assert body != msg.CallBody(1, 2, 4)
        assert body != tuple(body)  # never equal to a plain tuple
        assert msg.RejectedReply(1, 0, 2, 2) != (1, 0, 2, 2)
        assert msg.RpcMessage(1, body) == msg.RpcMessage(1, msg.CallBody(1, 2, 3))
        assert OpaqueAuth(1, b"x") != (1, b"x", OpaqueAuth(1, b"x").wire)
        assert len({OpaqueAuth(1, b"x"), OpaqueAuth(1, b"x"), OpaqueAuth(2, b"x")}) == 2

    @pytest.mark.parametrize("value, field", [
        (msg.CallBody(1, 2, 3), "prog"),
        (msg.AcceptedReply(), "stat"),
        (msg.RejectedReply(), "auth_stat"),
        (msg.RpcMessage(1, msg.AcceptedReply()), "xid"),
        (NULL_AUTH, "flavor"),
    ])
    def test_immutable(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 5)
        with pytest.raises(AttributeError):
            value.extra = 5

    def test_repr_reads_like_the_dataclass_it_was(self):
        assert repr(msg.CallBody(1, 2, 3)) == (
            "CallBody(prog=1, vers=2, proc=3, cred=OpaqueAuth(flavor=0, body=b''), "
            "verf=OpaqueAuth(flavor=0, body=b''), args=b'')"
        )
        assert repr(msg.RpcMessage(1, msg.RejectedReply())) == (
            "RpcMessage(xid=1, body=RejectedReply(stat=1, auth_stat=0, "
            "mismatch_low=2, mismatch_high=2), reply_stat=0)"
        )


# -- the call budget -----------------------------------------------------------------


def calls_of(op) -> int:
    """Python and C calls ``op`` makes, after two warm-up runs."""
    op()
    op()
    count = 0

    def profile(frame, event, arg) -> None:
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return count


#: (``launch_kernel``, ``get_device_count``, metered launch) call budgets
#: per CPython version they were measured on.  On 3.11 the three make 210,
#: 142 and 217 calls (281 and 182 before the launch plan, tuple-built
#: messages and the read-ahead reader; 233, 164 and 288 before the loopback
#: hand-over and the compiled meter charges); the budget adds about 3 % for
#: numpy releases, whose Python-level helpers a kernel body may call.  A
#: version gets a row once its counts have been measured; until then its
#: interpreter skips the test.
CALL_BUDGETS = {(3, 11): (216, 146, 223)}


@pytest.mark.skipif(
    sys.version_info[:2] not in CALL_BUDGETS,
    reason="no call count measured on this CPython version (see CALL_BUDGETS)",
)
class TestCallBudget:
    """One loopback call, end to end, client and server."""

    @pytest.fixture(scope="class")
    def rig(self):
        server = CricketServer([GpuDevice(A100, mem_bytes=MIB)])
        client = CricketClient.loopback(server)
        cubin = build_cubin_for_registry(build_default_registry(), ["saxpy"])
        meta = load_cubin(cubin).metadata.kernel("saxpy")
        function = client.get_function(client.module_load(cubin), "saxpy", meta)
        x, y = client.malloc(1024), client.malloc(1024)
        yield client, function, x, y
        client.close()

    def test_launch_kernel(self, rig):
        client, function, x, y = rig
        calls = calls_of(lambda: client.launch_kernel(function, (1, 1, 1), (256, 1, 1), (y, x, 1.0, 256)))
        assert calls <= CALL_BUDGETS[sys.version_info[:2]][0]

    def test_get_device_count(self, rig):
        client = rig[0]
        assert calls_of(client.get_device_count) <= CALL_BUDGETS[sys.version_info[:2]][1]

    def test_metered_harness_launch(self):
        """A matrixMul launch as the Fig 5 harness makes it: a ``GpuSession``
        on ``rustyhermit()``, so the platform meter charges both records."""
        session = make_session(rustyhermit())
        kernel = session.load_builtin_module(["matrixMulCUDA"]).function("matrixMulCUDA")
        a, b, c = (session.alloc(4 * 320 * 640) for _ in range(3))
        calls = calls_of(lambda: kernel.launch((40, 20, 1), (16, 16, 1), c, a, b, 320, 640))
        session.close()
        assert calls <= CALL_BUDGETS[sys.version_info[:2]][2]


def test_struct_codes_are_little_endian_cuda_abi():
    """The compiled block and the walk share one table of codes."""
    meta = KernelMeta.from_kinds("k", ("u32", "f64"))
    assert meta.param_struct.format == "<I4xd"
    assert struct.calcsize(meta.param_struct.format) == 16
    assert math.isnan(unpack_params(meta, pack_params(meta, (1, float("nan"))))[1])
