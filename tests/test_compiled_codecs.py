"""The compiled wire codecs against the interpreter they replaced, and against abuse.

Every call's bytes are produced and parsed by compiled code: module-level
``struct.Struct``s for the RPC header (:mod:`repro.oncrpc.message`) and one
generated function per signature for its arguments and result
(:mod:`repro.xdr.plan`).  The field-by-field walk stays as the oracle --
:func:`~repro.oncrpc.message.encode_reference`,
:func:`~repro.oncrpc.message.decode_reference`,
:func:`~repro.xdr.plan.encode_each`, :func:`~repro.xdr.plan.decode_each` --
and this file holds the two to each other:

* differential -- every signature of ``cricket.x`` (and a specification with
  every kind of descriptor in it) on hypothesis-drawn values, every message
  body under every auth flavor and status: the same bytes, the same values;
* hostile -- truncation at every offset, every padding byte set, unknown
  discriminants, over-long auth, values of the wrong type and range in
  every integer position: the same exception class **and** message as the
  walk called directly, or the same bytes;
* the plan-coverage table -- which signatures compiled to what, pinned;
* the connection loop survives a record whose header does not parse.
"""

from __future__ import annotations

import enum
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cricket.spec import cricket_interface
from repro.oncrpc import message as msg
from repro.oncrpc.auth import (
    AUTH_BADCRED,
    AUTH_SHORT,
    AUTH_TOOWEAK,
    NULL_AUTH,
    AuthSysParams,
    OpaqueAuth,
    call_meta_auth,
    client_token_auth,
    leader_epoch_auth,
)
from repro.oncrpc.client import RpcClient
from repro.oncrpc.record import encode_record
from repro.oncrpc.server import RpcServer
from repro.oncrpc.transport import LoopbackTransport, TcpTransport
from repro.rpcl.compiler import LazyRef, ProcedureSignature
from repro.rpcl.stubgen import ProgramInterface
from repro.xdr import XdrEncoder
from repro.xdr import types as xt
from repro.xdr.errors import XdrDecodeError, XdrError
from repro.xdr.plan import (
    ALL_FIXED,
    INTERPRETER_ONLY,
    MIXED,
    compile_plan,
    decode_each,
    encode_each,
)

#: the same corpus on every run, and no per-example deadline on a loaded box
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)

SIGNATURES = cricket_interface().signatures

#: every kind of descriptor the RPCL compiler can emit, in argument and
#: result position, fixed-width members on both sides of the variable ones
EVERY_SHAPE = ProgramInterface.from_source(
    """
    enum color { RED = 0, GREEN = 1, BLUE = 7 };
    struct point { int x; hyper y; };
    struct tagged { unsigned int id; color paint; bool on; point at; double w; };
    union shape switch (color kind) {
        case RED: point corner;
        case GREEN: unsigned hyper radius;
        default: void;
    };
    struct node { int value; node *next; };
    struct bag {
        float scale;
        int fixed[3];
        unsigned hyper counted<4>;
        opaque digest[5];
        string label<8>;
        point *maybe;
    };
    program SHAPES {
        version V1 {
            tagged everything(int, tagged, unsigned hyper) = 1;
            shape unions(shape, shape) = 2;
            node lists(unsigned int, node, unsigned int) = 3;
            bag bags(bag, float, double) = 4;
            void nothing(void) = 5;
            bool flags(bool, color) = 6;
        } = 1;
    } = 0x20000777;
    """,
    "SHAPES",
    1,
).signatures


# -- values drawn from descriptors ------------------------------------------------

_PRIMITIVE_VALUES = {
    "int": st.integers(-(2**31), 2**31 - 1),
    "unsigned int": st.integers(0, 2**32 - 1),
    "hyper": st.integers(-(2**63), 2**63 - 1),
    "unsigned hyper": st.integers(0, 2**64 - 1),
    "float": st.floats(width=32, allow_nan=False),
    "double": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "void": st.none(),
}


def values_of(xdr_type, depth: int = 0):
    """A strategy for the Python values ``xdr_type`` encodes."""
    if isinstance(xdr_type, LazyRef):
        return values_of(xdr_type._target(), depth)
    if isinstance(xdr_type, (xt._Primitive, xt._Void)):
        return _PRIMITIVE_VALUES[xdr_type.name]
    if isinstance(xdr_type, xt.StructType):
        return st.fixed_dictionaries(
            {field.name: values_of(field.type, depth) for field in xdr_type.fields}
        )
    if isinstance(xdr_type, xt.VarOpaque):
        return st.binary(max_size=min(xdr_type.max_size or 40, 40))
    if isinstance(xdr_type, xt.FixedOpaque):
        return st.binary(min_size=xdr_type.size, max_size=xdr_type.size)
    if isinstance(xdr_type, xt.StringType):
        return st.text("aé", max_size=(xdr_type.max_size or 16) // 2)
    if isinstance(xdr_type, xt.EnumType):
        return st.sampled_from(sorted(xdr_type.members.values()))
    if isinstance(xdr_type, xt.FixedArray):
        element = values_of(xdr_type.element, depth)
        return st.lists(element, min_size=xdr_type.size, max_size=xdr_type.size)
    if isinstance(xdr_type, xt.VarArray):
        return st.lists(values_of(xdr_type.element, depth), max_size=xdr_type.max_size or 4)
    if isinstance(xdr_type, xt.OptionalType):
        if depth >= 3:
            return st.none()
        return st.none() | values_of(xdr_type.element, depth + 1)
    if isinstance(xdr_type, xt.UnionType):
        return st.sampled_from(sorted(xdr_type.arms)).flatmap(
            lambda disc: st.tuples(st.just(disc), values_of(xdr_type.arms[disc], depth))
        )
    raise AssertionError(f"no strategy for {xdr_type!r}")


# -- outcomes: a value, or the error's class, message and context ----------------------


def outcome(fn, *args):
    """What ``fn(*args)`` did, comparable between the two paths."""
    try:
        value = fn(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc), type(exc.__context__))
    if isinstance(value, bytearray):
        value = bytes(value)
    return ("returned", value)


def interpreted_args(sig: ProcedureSignature, values) -> bytearray:
    encoder = XdrEncoder()
    encode_each(sig.arg_types, values, encoder)
    return encoder.buffer


def interpreted_result(sig: ProcedureSignature, value) -> bytearray:
    encoder = XdrEncoder()
    sig.result_type.encode(encoder, value)
    return encoder.buffer


def views_into(value, data) -> list[memoryview]:
    """Every opaque in a decoded value; each must be a read-only view of ``data``."""
    if isinstance(value, memoryview):
        assert value.readonly and value.obj is data
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [view for item in value for view in views_into(item, data)]
    return []


def key_order(value) -> list:
    if isinstance(value, dict):
        return [list(value), [key_order(item) for item in value.values()]]
    if isinstance(value, (list, tuple)):
        return [key_order(item) for item in value]
    return []


def check_signature(sig: ProcedureSignature, args, result) -> None:
    wire = bytes(sig.encode_args(args))
    assert wire == interpreted_args(sig, args)
    decoded = sig.decode_args(wire)
    reference = decode_each(sig.arg_types, wire)
    assert decoded == reference and key_order(decoded) == key_order(reference)
    assert len(views_into(decoded, wire)) == len(views_into(reference, wire))

    wire = bytes(sig.encode_result(result))
    assert wire == interpreted_result(sig, result)
    decoded = sig.decode_result(wire)
    (reference,) = decode_each((sig.result_type,), wire)
    assert decoded == reference and key_order(decoded) == key_order(reference)
    assert len(views_into(decoded, wire)) == len(views_into(reference, wire))

    # behind a header already in the encoder, as the call path does it
    encoder = XdrEncoder()
    encoder.pack_uint(7)
    assert sig.encode_args(args, encoder) is encoder.buffer
    assert bytes(encoder.buffer) == b"\x00\x00\x00\x07" + bytes(interpreted_args(sig, args))


class TestEverySignature:
    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    @PROPERTY
    @given(st.data())
    def test_cricket_x(self, name, data):
        sig = SIGNATURES[name]
        args = data.draw(st.tuples(*(values_of(t) for t in sig.arg_types)))
        check_signature(sig, args, data.draw(values_of(sig.result_type)))

    @pytest.mark.parametrize("name", sorted(EVERY_SHAPE))
    @PROPERTY
    @given(st.data())
    def test_every_kind_of_descriptor(self, name, data):
        sig = EVERY_SHAPE[name]
        args = data.draw(st.tuples(*(values_of(t) for t in sig.arg_types)))
        check_signature(sig, args, data.draw(values_of(sig.result_type)))

    def test_the_launch_plan_is_two_structs_around_one_opaque(self):
        plan = SIGNATURES["rpc_cuLaunchKernel"].args_plan
        sizes = [s.size for s in plan.encode.__globals__.values() if hasattr(s, "unpack_from")]
        assert sizes == [32, 12] and plan.source.count(".encode(enc, ") == 1

    def test_wrong_argument_count_is_still_a_type_error(self):
        with pytest.raises(TypeError, match=r"rpc_cudaMalloc\(\) takes 1 argument\(s\), got 2"):
            SIGNATURES["rpc_cudaMalloc"].encode_args((1, 2))

    def test_a_failed_encode_leaves_what_the_interpreter_leaves(self):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        args = (1, {"x": 1, "y": 1, "z": 1}, {"x": 1, "y": 1, "z": 1}, b"abc", 2**32, 0)
        compiled, walked = XdrEncoder(), XdrEncoder()
        for encoder in (compiled, walked):
            encoder.pack_uint(9)
        with pytest.raises(XdrError):
            sig.encode_args(args, compiled)
        with pytest.raises(XdrError):
            encode_each(sig.arg_types, args, walked)
        assert compiled.buffer == walked.buffer


# -- hostile values on encode ------------------------------------------------------


class Stream(enum.IntEnum):
    DEFAULT = 0
    OTHER = 3


#: ``struct.pack(">i", True)`` succeeds where ``pack_int(True)`` raises: the
#: row a naive plan fails.  ``2**32`` and ``-1`` are valid in some positions.
HOSTILE_INTEGERS = (True, 1.0, None, np.int64(1), Stream.OTHER, 2**32, -1, "1", 2**64, -(2**31) - 1)

LAUNCH_ARGS = (0x7F00_0000_1000, {"x": 1, "y": 2, "z": 3}, {"x": 256, "y": 1, "z": 1},
               b"p" * 21, 48, 0)


def launch_args_with(position, value) -> tuple:
    args = [dict(a) if isinstance(a, dict) else a for a in LAUNCH_ARGS]
    if isinstance(position, tuple):
        args[position[0]][position[1]] = value
    else:
        args[position] = value
    return tuple(args)


INTEGER_POSITIONS = (0, (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"), 4, 5)


class TestHostileValuesOnEncode:
    @pytest.mark.parametrize("position", INTEGER_POSITIONS, ids=str)
    @pytest.mark.parametrize("value", HOSTILE_INTEGERS, ids=repr)
    def test_every_integer_position_of_a_launch(self, position, value):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        args = launch_args_with(position, value)
        assert outcome(sig.encode_args, args) == outcome(interpreted_args, sig, args)

    @pytest.mark.parametrize("position", (1, 2))
    @pytest.mark.parametrize("field", "xyz")
    def test_a_dim3_missing_a_field(self, position, field):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        args = launch_args_with(position, {k: 1 for k in "xyz" if k != field})
        expected = outcome(interpreted_args, sig, args)
        assert outcome(sig.encode_args, args) == expected
        assert expected[2] == f"struct dim3 missing field {field!r}"

    @pytest.mark.parametrize("value", [None, 5, [1, 2, 3], "xyz"], ids=repr)
    def test_a_dim3_that_is_no_mapping(self, value):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        args = launch_args_with(1, value)
        assert outcome(sig.encode_args, args) == outcome(interpreted_args, sig, args)

    @pytest.mark.parametrize("value", [None, "abc", 3, bytearray(b"ab"), np.arange(3)], ids=repr)
    def test_the_opaque_member_keeps_its_own_checks(self, value):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        args = launch_args_with(3, value)
        assert outcome(sig.encode_args, args) == outcome(interpreted_args, sig, args)

    @pytest.mark.parametrize("name", ["rpc_cudaFree", "rpc_cudaMalloc", "rpc_cudaEventElapsedTime",
                                      "rpc_cudaGetDeviceProperties", "rpc_cublasDgemm"])
    @pytest.mark.parametrize("value", HOSTILE_INTEGERS + ({}, {"err": True, "value": 1.5}), ids=repr)
    def test_results(self, name, value):
        sig = SIGNATURES[name]
        assert outcome(sig.encode_result, value) == outcome(interpreted_result, sig, value)

    @pytest.mark.parametrize("value", [True, None, "1.0", 1, 1e300, np.float32(2.5)], ids=repr)
    def test_float_members_pack_what_the_walk_packs(self, value):
        sig = SIGNATURES["rpc_cudaEventElapsedTime"]
        result = {"err": 0, "value": value}
        assert outcome(sig.encode_result, result) == outcome(interpreted_result, sig, result)


# -- hostile bytes on decode -------------------------------------------------------


def every_truncation(wire: bytes):
    return [wire[:n] for n in range(len(wire))] + [wire + b"\x00", wire + bytes(4)]


def each_byte_set(wire: bytes, offsets) -> list[bytes]:
    return [wire[:i] + b"\x01" + wire[i + 1:] for i in offsets]


class TestHostileBytesOnDecode:
    def test_launch_arguments_truncated_and_padded(self):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        wire = bytes(sig.encode_args(LAUNCH_ARGS))
        assert len(wire) == 32 + 4 + 24 + 12
        padding = range(32 + 4 + 21, 32 + 4 + 24)
        for data in every_truncation(wire) + each_byte_set(wire, padding):
            expected = outcome(decode_each, sig.arg_types, data)
            assert outcome(sig.decode_args, data) == expected
            assert expected[0] == "raised" and issubclass(expected[1], XdrDecodeError)

    def test_a_forged_opaque_length(self):
        sig = SIGNATURES["rpc_cuLaunchKernel"]
        wire = bytes(sig.encode_args(LAUNCH_ARGS))
        for length in (22, 2**20, 2**30 + 1, 2**32 - 1):
            data = wire[:32] + length.to_bytes(4, "big") + wire[36:]
            assert outcome(sig.decode_args, data) == outcome(decode_each, sig.arg_types, data)

    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_every_result_truncated(self, name):
        sig = SIGNATURES[name]
        wire = bytes(interpreted_result(sig, _a_value_of(sig.result_type)))
        for data in every_truncation(wire):
            expected = outcome(decode_each, (sig.result_type,), data)
            got = outcome(sig.decode_result, data)
            assert got == (expected if expected[0] == "raised" else ("returned", expected[1][0]))


def _a_value_of(xdr_type):
    """A fixed, valid value of ``xdr_type`` (no hypothesis outside ``@given``)."""
    if isinstance(xdr_type, xt.StructType):
        return {field.name: _a_value_of(field.type) for field in xdr_type.fields}
    if isinstance(xdr_type, xt.VarOpaque):
        return b"opaque"
    if isinstance(xdr_type, xt.StringType):
        return "A100"
    return {"float": 1.5, "double": 2.5}.get(xdr_type.name, 7)


# -- RpcMessage ----------------------------------------------------------------------

AUTHS = {
    "AUTH_NONE": NULL_AUTH,
    "AUTH_NONE (another object)": OpaqueAuth(0, b""),
    "AUTH_CLIENT_TOKEN": client_token_auth(bytes(range(16))),
    "AUTH_CLIENT_TOKEN (5 bytes)": client_token_auth(b"tok5!"),
    "AUTH_CALL_META": call_meta_auth(1_500_000, 2),
    "AUTH_LEADER_EPOCH": leader_epoch_auth(7, True, "node-b"),
    "AUTH_SYS": AuthSysParams(1, "unikernel", 1000, 100, (4, 24)).to_opaque(),
    "AUTH_SHORT (10 bytes)": OpaqueAuth(AUTH_SHORT, b"short-verf"),
    "400 bytes": OpaqueAuth(9, bytes(400)),
}
ARGS = bytes(SIGNATURES["rpc_cuLaunchKernel"].encode_args(LAUNCH_ARGS))
ACCEPT_STATS = sorted(msg._ACCEPT_STAT_NAMES)


def every_message() -> list[msg.RpcMessage]:
    messages = []
    for cred in AUTHS.values():
        for verf in AUTHS.values():
            messages.append(msg.RpcMessage(0xDEADBEEF, msg.CallBody(0x20000199, 1, 34, cred, verf, ARGS)))
    for verf in AUTHS.values():
        for stat in ACCEPT_STATS:
            results = b"\x00\x00\x00\x00" if stat == msg.SUCCESS else b""
            messages.append(msg.RpcMessage(
                17, msg.AcceptedReply(verf, stat, results, 2, 5), msg.MSG_ACCEPTED))
    messages.append(msg.RpcMessage(1, msg.CallBody(1, 2, 3), msg.MSG_ACCEPTED))
    messages.append(msg.RpcMessage(2**32 - 1, msg.AcceptedReply(), msg.MSG_ACCEPTED))
    for auth_stat in range(AUTH_BADCRED, AUTH_TOOWEAK + 1):
        messages.append(msg.RpcMessage(
            3, msg.RejectedReply(msg.AUTH_ERROR, auth_stat), msg.MSG_DENIED))
    messages.append(msg.RpcMessage(4, msg.RejectedReply(msg.RPC_MISMATCH, 0, 2, 2), msg.MSG_DENIED))
    return messages


def as_written(message: msg.RpcMessage) -> msg.RpcMessage:
    """What decoding the encoding of ``message`` must give back."""
    body = message.body
    if isinstance(body, msg.AcceptedReply):
        if body.stat == msg.PROG_MISMATCH:
            body = msg.AcceptedReply(body.verf, body.stat, b"", body.mismatch_low, body.mismatch_high)
        else:
            body = msg.AcceptedReply(body.verf, body.stat, body.results)
    elif isinstance(body, msg.RejectedReply) and body.stat == msg.AUTH_ERROR:
        body = msg.RejectedReply(body.stat, body.auth_stat, 0, 0)
    return msg.RpcMessage(message.xid, body, message.reply_stat)


class TestEveryMessage:
    def test_same_bytes_same_message(self):
        messages = every_message()
        assert len(messages) > 150
        for message in messages:
            wire = bytes(message.encode())
            assert wire == msg.encode_reference(message), message
            decoded = msg.RpcMessage.decode(wire)
            reference = msg.decode_reference(wire)
            assert decoded == reference, message
            if not (isinstance(message.body, msg.RejectedReply) and message.body.stat == msg.AUTH_ERROR):
                assert decoded == as_written(message)
            payload = getattr(decoded.body, "args", getattr(decoded.body, "results", b""))
            if isinstance(payload, memoryview):
                assert payload.readonly and payload.obj is wire
            for auth in (getattr(decoded.body, "cred", NULL_AUTH), getattr(decoded.body, "verf", NULL_AUTH)):
                assert type(auth.body) is bytes  # detached from the record

    def test_a_writer_runs_once_behind_the_header(self):
        calls = []

        def writer(encoder):
            calls.append(len(encoder))
            encoder.append_raw(ARGS)

        message = msg.RpcMessage(5, msg.CallBody(1, 1, 34, AUTHS["AUTH_CLIENT_TOKEN"], NULL_AUTH, writer))
        assert message.encode() == msg.RpcMessage(
            5, msg.CallBody(1, 1, 34, AUTHS["AUTH_CLIENT_TOKEN"], NULL_AUTH, ARGS)).encode()
        assert calls == [24 + 8 + 16 + 8]

    def test_a_writer_that_raises_is_not_run_again(self):
        calls = []

        def writer(encoder):
            calls.append(1)
            raise XdrError("no")

        with pytest.raises(XdrError, match="no"):
            msg.RpcMessage(5, msg.CallBody(1, 1, 34, args=writer)).encode()
        assert calls == [1]

    @pytest.mark.parametrize("stat", [6, 99, -1, 104])
    def test_unknown_accept_stat(self, stat):
        message = msg.RpcMessage(1, msg.AcceptedReply(NULL_AUTH, stat))
        wire = bytes(message.encode())
        assert wire == msg.encode_reference(message)
        expected = outcome(msg.decode_reference, wire)
        assert outcome(msg.RpcMessage.decode, wire) == expected
        assert expected[1:3] == (msg.RpcProtocolError, f"invalid accept_stat {stat}")

    def test_unknown_reject_stat_is_refused_on_encode(self):
        message = msg.RpcMessage(1, msg.RejectedReply(5), msg.MSG_DENIED)
        expected = outcome(msg.encode_reference, message)
        assert outcome(message.encode) == expected and expected[1] is msg.RpcProtocolError

    @pytest.mark.parametrize("field", ["xid", "prog", "vers", "proc", "flavor", "body", "stat"])
    @pytest.mark.parametrize("value", HOSTILE_INTEGERS, ids=repr)
    def test_hostile_header_fields(self, field, value):
        cred = AUTHS["AUTH_CLIENT_TOKEN"]
        if field == "flavor":
            cred = OpaqueAuth(value, b"abc")
        elif field == "body":
            cred = OpaqueAuth(1, value)
        numbers = {"xid": 1, "prog": 2, "vers": 3, "proc": 4}
        if field in numbers:
            numbers[field] = value
        xid = numbers.pop("xid")
        messages = [msg.RpcMessage(xid, msg.CallBody(**numbers, cred=cred, verf=cred, args=ARGS))]
        stat = value if field == "stat" else msg.SUCCESS
        messages.append(msg.RpcMessage(xid, msg.AcceptedReply(cred, stat, b"")))
        for message in messages:
            assert outcome(message.encode) == outcome(msg.encode_reference, message)

    @pytest.mark.parametrize("slot", ["cred", "verf"])
    def test_a_401_byte_auth_is_refused_on_encode(self, slot):
        message = msg.RpcMessage(1, msg.CallBody(1, 1, 1, **{slot: OpaqueAuth(1, bytes(401))}))
        expected = outcome(msg.encode_reference, message)
        assert outcome(message.encode) == expected
        assert expected[2] == "auth body exceeds 400 bytes (401)"


def real_launch_call() -> bytes:
    return bytes(msg.RpcMessage(0x01020304, msg.CallBody(
        0x20000199, 1, 34, AUTHS["AUTH_CLIENT_TOKEN (5 bytes)"], AUTHS["AUTH_SHORT (10 bytes)"], ARGS,
    )).encode())


def real_launch_reply() -> bytes:
    return bytes(msg.RpcMessage(0x01020304, msg.AcceptedReply(
        AUTHS["AUTH_SHORT (10 bytes)"], msg.SUCCESS, b"\x00\x00\x00\x00"), msg.MSG_ACCEPTED).encode())


def word(value: int) -> bytes:
    return value.to_bytes(4, "big")


class TestHostileRecords:
    @pytest.mark.parametrize("wire", [real_launch_call(), real_launch_reply()], ids=["call", "reply"])
    def test_truncated_at_every_offset(self, wire):
        for data in every_truncation(wire):
            expected = outcome(msg.decode_reference, data)
            assert outcome(msg.RpcMessage.decode, data) == expected
        # Cut inside the header it is the retryable class, never the fatal one.
        for n in range(len(wire) - (len(ARGS) if wire[7] == msg.CALL else 4)):
            assert outcome(msg.RpcMessage.decode, wire[:n])[1] is XdrDecodeError

    def test_every_padding_byte_set(self):
        call, reply = real_launch_call(), real_launch_reply()
        cred_pad = range(32 + 5, 32 + 8)
        verf_pad = range(40 + 8 + 10, 40 + 8 + 12)
        reply_pad = range(20 + 10, 20 + 12)
        for data in each_byte_set(call, [*cred_pad, *verf_pad]) + each_byte_set(reply, reply_pad):
            expected = outcome(msg.decode_reference, data)
            assert outcome(msg.RpcMessage.decode, data) == expected
            assert expected[1] is XdrDecodeError and "non-zero XDR padding" in expected[2]

    @pytest.mark.parametrize("offset, value, error", [
        (8, 3, "unsupported RPC version 3"),
        (4, 2, "invalid msg_type 2"),
        (4, -1 & 0xFFFFFFFF, "invalid msg_type -1"),
    ])
    def test_call_discriminants(self, offset, value, error):
        call = real_launch_call()
        data = call[:offset] + word(value) + call[offset + 4:]
        expected = outcome(msg.decode_reference, data)
        assert outcome(msg.RpcMessage.decode, data) == expected
        assert expected[1:3] == (msg.RpcProtocolError, error)

    @pytest.mark.parametrize("value", [2, 7, 2**31])
    def test_unknown_reply_stat(self, value):
        reply = real_launch_reply()
        data = reply[:8] + word(value) + reply[12:]
        expected = outcome(msg.decode_reference, data)
        assert outcome(msg.RpcMessage.decode, data) == expected
        assert expected[1] is msg.RpcProtocolError

    @pytest.mark.parametrize("length", [401, 404, 2**31, 2**32 - 1])
    def test_an_over_long_auth(self, length):
        call, reply = real_launch_call(), real_launch_reply()
        forged = [
            call[:28] + word(length) + bytes(408) + call[40:],  # cred
            call[:44] + word(length) + bytes(408),  # verf
            reply[:16] + word(length) + bytes(408),  # reply verf
        ]
        for data in forged:
            expected = outcome(msg.decode_reference, data)
            assert outcome(msg.RpcMessage.decode, data) == expected
            assert expected[1] is XdrDecodeError and "longer than declared maximum" in expected[2]

    def test_arguments_that_are_not_whole_words(self):
        for data in (real_launch_call() + b"\x00", real_launch_reply() + b"\x00\x00"):
            expected = outcome(msg.decode_reference, data)
            assert outcome(msg.RpcMessage.decode, data) == expected
            assert expected[1] is XdrDecodeError

    def test_trailing_bytes_after_a_void_body_are_ignored_as_ever(self):
        busy = bytes(msg.RpcMessage(1, msg.AcceptedReply(NULL_AUTH, msg.RPC_BUSY)).encode())
        for data in (busy + b"\x01", busy + bytes(8)):
            assert msg.RpcMessage.decode(data) == msg.decode_reference(data)

    @PROPERTY
    @given(st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        assert outcome(msg.RpcMessage.decode, data) == outcome(msg.decode_reference, data)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from([real_launch_call(), real_launch_reply()]), st.data())
    def test_one_byte_flipped_anywhere(self, wire, data):
        index = data.draw(st.integers(0, len(wire) - 1))
        bit = data.draw(st.integers(0, 7))
        flipped = wire[:index] + bytes([wire[index] ^ (1 << bit)]) + wire[index + 1:]
        assert outcome(msg.RpcMessage.decode, flipped) == outcome(msg.decode_reference, flipped)


# -- the plan-coverage table -----------------------------------------------------------

F, M, I = ALL_FIXED, MIXED, INTERPRETER_ONLY  # noqa: E741

#: procedure -> (arguments, result).  A new ``rpc_*`` that falls back to the
#: interpreter shows up here in review; the failure message prints the table.
PLAN_COVERAGE = {
    "rpc_cudaGetDeviceCount": (F, F),
    "rpc_cudaSetDevice": (F, F),
    "rpc_cudaGetDevice": (F, F),
    "rpc_cudaDeviceSynchronize": (F, F),
    "rpc_cudaDeviceReset": (F, F),
    "rpc_cudaGetDeviceProperties": (F, M),
    "rpc_cudaGetLastError": (F, F),
    "rpc_cudaPeekAtLastError": (F, F),
    "rpc_cudaMalloc": (F, F),
    "rpc_cudaFree": (F, F),
    "rpc_cudaMemcpyH2D": (M, F),
    "rpc_cudaMemcpyD2H": (F, M),
    "rpc_cudaMemcpyD2D": (F, F),
    "rpc_cudaMemset": (F, F),
    "rpc_cudaMemcpyH2DAsync": (M, F),
    "rpc_cudaMemcpyD2HAsync": (F, M),
    "rpc_cudaStreamCreate": (F, F),
    "rpc_cudaStreamDestroy": (F, F),
    "rpc_cudaStreamSynchronize": (F, F),
    "rpc_cudaEventCreate": (F, F),
    "rpc_cudaEventDestroy": (F, F),
    "rpc_cudaEventRecord": (F, F),
    "rpc_cudaEventSynchronize": (F, F),
    "rpc_cudaEventElapsedTime": (F, F),
    "rpc_cudaStreamWaitEvent": (F, F),
    "rpc_cuModuleLoadData": (I, F),
    "rpc_cuModuleUnload": (F, F),
    "rpc_cuModuleGetFunction": (M, F),
    "rpc_cuModuleGetGlobal": (M, F),
    "rpc_cuLaunchKernel": (M, F),
    "rpc_cublasCreate": (F, F),
    "rpc_cublasDestroy": (F, F),
    "rpc_cublasSgemm": (F, F),
    "rpc_cublasDgemm": (F, F),
    "rpc_cufftPlan1d": (F, F),
    "rpc_cufftDestroy": (F, F),
    "rpc_cufftExecC2C": (F, F),
    "rpc_cufftExecR2C": (F, F),
    "rpc_cusolverDnCreate": (F, F),
    "rpc_cusolverDnDestroy": (F, F),
    "rpc_cusolverDnDgetrfBufferSize": (F, F),
    "rpc_cusolverDnDgetrf": (F, F),
    "rpc_cusolverDnDgetrs": (F, F),
    "rpc_checkpoint": (F, M),
    "rpc_restore": (I, F),
    "rpc_ping": (F, F),
    "rpc_cancel": (F, F),
}


class TestPlanCoverage:
    def test_the_table(self):
        names = {ALL_FIXED: "F", MIXED: "M", INTERPRETER_ONLY: "I"}
        actual = {
            name: (sig.args_plan.shape, sig.result_plan.shape) for name, sig in SIGNATURES.items()
        }
        table = "\n".join(
            f'    "{name}": ({names[a]}, {names[r]}),' for name, (a, r) in actual.items()
        )
        assert len(actual) == 47
        assert actual == PLAN_COVERAGE, f"PLAN_COVERAGE is now:\n{{\n{table}\n}}"

    def test_every_kind_of_descriptor(self):
        shapes = {name: (s.args_plan.shape, s.result_plan.shape) for name, s in EVERY_SHAPE.items()}
        assert shapes == {
            "everything": (M, M), "unions": (I, I), "lists": (M, M),
            "bags": (M, M), "nothing": (F, I), "flags": (I, I),
        }

    def test_a_descriptor_subclass_is_left_to_itself(self):
        class Audited(xt.StructType):
            def encode(self, encoder, value):
                encoder.pack_uint(0xA0D1)
                super().encode(encoder, value)

        audited = Audited("point", [xt.StructField("x", xt.INT)])
        plan = compile_plan((audited, xt.INT))
        assert plan.shape == MIXED
        encoder = XdrEncoder()
        plan.encode(({"x": 1}, 2), encoder)
        assert bytes(encoder.buffer) == bytes.fromhex("0000a0d1 00000001 00000002")


# -- the seams the benchmark binds ---------------------------------------------------


class TestSeams:
    def test_methods_patched_on_the_class_see_every_call(self, monkeypatch):
        seen = []

        def spy(owner, name):
            original = getattr(owner, name)
            raw = owner.__dict__[name]
            function = raw.__func__ if isinstance(raw, classmethod) else raw

            def wrapper(*args, **kwargs):
                seen.append(name)
                return function(*args, **kwargs)

            monkeypatch.setattr(
                owner, name, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
            )
            return original

        for name in ("encode_args", "decode_args", "encode_result", "decode_result"):
            spy(ProcedureSignature, name)
        for name in ("encode", "decode"):
            spy(msg.RpcMessage, name)
        interface = cricket_interface()
        server = RpcServer()
        server.register_program(
            interface.prog_number, interface.vers_number,
            interface.make_server_dispatch({
                name: (lambda *a: 0) for name in interface.signatures
            } | {"rpc_cudaMalloc": lambda size: {"err": 0, "ptr": size + 1}}),
        )
        stub = interface.bind_client(LoopbackTransport(server.dispatch_record))
        assert stub.rpc_cudaMalloc(41) == {"err": 0, "ptr": 42}
        assert sorted(seen) == sorted([
            "encode", "encode_args", "decode", "decode_args",
            "encode", "encode_result", "decode", "decode_result",
        ])


# -- a header that does not parse drops the connection, not the thread ---------------


class Spied(RpcServer):
    def __init__(self):
        super().__init__()
        self.disconnected = threading.Event()

    def _on_disconnect(self, client_id, session):
        self.disconnected.set()


def forged_call(cred_length: int, cred_bytes: bytes) -> bytes:
    head = word(1) + word(msg.CALL) + word(2) + word(PROG) + word(1) + word(0)
    return head + word(0) + word(cred_length) + cred_bytes + word(0) + word(0)


PROG = 0x20000555
UNPARSEABLE = {
    "truncated header": word(1) + word(msg.CALL) + word(2),
    "cred length 401": forged_call(401, bytes(404)),
    "non-zero auth padding": forged_call(5, b"abcde\x00\x01\x00"),
    "rpcvers 3": word(1) + word(msg.CALL) + word(3) + bytes(28),
}


@pytest.fixture()
def excepthook_spy(monkeypatch):
    uncaught = []
    monkeypatch.setattr(threading, "excepthook", lambda args: uncaught.append(args))
    return uncaught


class TestUnparseableHeaderOnTheWire:
    @pytest.mark.parametrize("record", UNPARSEABLE.values(), ids=UNPARSEABLE.keys())
    def test_tcp_connection_is_dropped_and_cleaned_up(self, record, excepthook_spy):
        with pytest.raises((XdrError, msg.RpcProtocolError)):
            msg.RpcMessage.decode(record)
        server = Spied()
        server.register_program(PROG, 1, {})
        host, port = server.serve_tcp("127.0.0.1", 0)
        try:
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(encode_record(record))
                assert conn.recv(16) == b""  # closed, nothing sent
            assert server.disconnected.wait(5)
            # ... and the server still serves the next connection.
            client = RpcClient(TcpTransport(host, port), PROG, 1)
            assert client.call_raw(0, b"") == b""
            client.close()
        finally:
            server.shutdown()
        assert excepthook_spy == []
