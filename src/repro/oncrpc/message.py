"""ONC RPC message structures (RFC 5531 section 9).

The ``rpc_msg`` union and its bodies are modelled as immutable values --
named tuples with a frozen dataclass's equality
(:class:`~repro.oncrpc.auth.WireStruct`), cheap to build once per call --
with explicit ``encode``/``decode`` methods.  Procedure arguments and
results are carried as raw pre-encoded XDR so the message layer stays
independent of any particular program's interface definition.

A message is encoded into **one** record, header first: a body's
``args``/``results`` is either pre-encoded XDR (appended) or a *writer* -- a
callable handed the encoder once the header is in it, which is how the
generated stubs put a bulk payload into the record without copying it (the
record is then a :class:`~repro.xdr.encoder.GatherRecord`).  A decoded
message carries read-only views of the record it was parsed from.

:meth:`RpcMessage.encode` and :meth:`RpcMessage.decode` are compiled: the
header of a call and of an accepted reply is a handful of fixed words around
two ``opaque_auth`` bodies, packed and parsed by the module-level
``struct.Struct``s below.  The field-by-field walk over the body classes is
kept as :func:`encode_reference` / :func:`decode_reference`.  Whatever the
compiled path cannot finish -- a field of the wrong type or range, a short
record, non-zero padding, an over-long auth body, a rejected reply or any
shape it does not know -- goes to that walk with the same input, which
packs it or raises the typed error it always raised: the retry loop tells
:class:`~repro.xdr.errors.XdrError` (retried) from
:class:`~repro.oncrpc.errors.RpcProtocolError` (fatal), so which of the two a
damaged record raises is behaviour.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from typing import Callable, Union

from repro.oncrpc.auth import (
    AUTH_HEAD,
    AUTH_NONE,
    MAX_AUTH_BYTES,
    NULL_AUTH,
    OpaqueAuth,
    WireStruct,
)
from repro.oncrpc.errors import RpcProtocolError
from repro.xdr import XdrDecoder, XdrEncoder
from repro.xdr.encoder import Buffer, GatherRecord, flat_view, flatten
from repro.xdr.plan import Defer

RPC_VERSION = 2

# msg_type
CALL = 0
REPLY = 1

# reply_stat
MSG_ACCEPTED = 0
MSG_DENIED = 1

# accept_stat
SUCCESS = 0
PROG_UNAVAIL = 1
PROG_MISMATCH = 2
PROC_UNAVAIL = 3
GARBAGE_ARGS = 4
SYSTEM_ERR = 5

# Private-use accept_stat extensions for overload control.  RFC 5531 defines
# only 0..5; we claim 100+ (far outside the standard range) for the overload
# subsystem, mirroring how gRPC layers RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED
# / CANCELLED on top of its transport.  All three carry void bodies.
RPC_BUSY = 100  # shed before execution; safe (and expected) to retry
CALL_EXPIRED = 101  # propagated deadline passed before execution; not retried
CALL_CANCELLED = 102  # aborted via rpc_cancel; not retried
RPC_NOT_LEADER = 103  # fenced server refused a mutation; retry elsewhere

# reject_stat
RPC_MISMATCH = 0
AUTH_ERROR = 1

_ACCEPT_STAT_NAMES = {
    SUCCESS: "SUCCESS",
    PROG_UNAVAIL: "PROG_UNAVAIL",
    PROG_MISMATCH: "PROG_MISMATCH",
    PROC_UNAVAIL: "PROC_UNAVAIL",
    GARBAGE_ARGS: "GARBAGE_ARGS",
    SYSTEM_ERR: "SYSTEM_ERR",
    RPC_BUSY: "RPC_BUSY",
    CALL_EXPIRED: "CALL_EXPIRED",
    CALL_CANCELLED: "CALL_CANCELLED",
    RPC_NOT_LEADER: "RPC_NOT_LEADER",
}


#: a body's arguments/results: pre-encoded XDR bytes, or a writer that
#: packs them into the encoder it is handed (after the RPC header)
Payload = Union[Buffer, Callable[[XdrEncoder], object]]


def _pack_payload(encoder: XdrEncoder, payload: Payload) -> None:
    if callable(payload):
        payload(encoder)
    else:
        encoder.append_raw(payload)


def accept_stat_name(stat: int) -> str:
    """Human-readable name for an ``accept_stat`` value."""
    return _ACCEPT_STAT_NAMES.get(stat, f"accept_stat({stat})")


class CallBody(
    WireStruct,
    namedtuple("CallBody", "prog vers proc cred verf args", defaults=(NULL_AUTH, NULL_AUTH, b"")),
):
    """``call_body``: which remote procedure to invoke, with credentials.

    ``args`` is the procedure's arguments (a :data:`Payload`).
    """

    __slots__ = ()

    def encode(self, encoder: XdrEncoder) -> None:
        encoder.pack_uint(RPC_VERSION)
        encoder.pack_uint(self.prog)
        encoder.pack_uint(self.vers)
        encoder.pack_uint(self.proc)
        self.cred.encode(encoder)
        self.verf.encode(encoder)
        _pack_payload(encoder, self.args)

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "CallBody":
        rpcvers = decoder.unpack_uint()
        if rpcvers != RPC_VERSION:
            raise RpcProtocolError(f"unsupported RPC version {rpcvers}")
        prog = decoder.unpack_uint()
        vers = decoder.unpack_uint()
        proc = decoder.unpack_uint()
        cred = OpaqueAuth.decode(decoder)
        verf = OpaqueAuth.decode(decoder)
        args = decoder.unpack_fixed_opaque(decoder.remaining())
        return cls(prog, vers, proc, cred, verf, args)


class AcceptedReply(
    WireStruct,
    namedtuple(
        "AcceptedReply",
        "verf stat results mismatch_low mismatch_high",
        defaults=(NULL_AUTH, SUCCESS, b"", 0, 0),
    ),
):
    """``accepted_reply``: server processed the call (possibly with error).

    ``results`` (a :data:`Payload`) belongs to ``SUCCESS``, the mismatch
    range to ``PROG_MISMATCH``; every other stat carries a void body.
    """

    __slots__ = ()

    def encode(self, encoder: XdrEncoder) -> None:
        self.verf.encode(encoder)
        encoder.pack_enum(self.stat)
        if self.stat == SUCCESS:
            _pack_payload(encoder, self.results)
        elif self.stat == PROG_MISMATCH:
            encoder.pack_uint(self.mismatch_low)
            encoder.pack_uint(self.mismatch_high)
        # other stats carry void bodies

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "AcceptedReply":
        verf = OpaqueAuth.decode(decoder)
        stat = decoder.unpack_enum()
        if stat == SUCCESS:
            results = decoder.unpack_fixed_opaque(decoder.remaining())
            return cls(verf, stat, results)
        if stat == PROG_MISMATCH:
            low = decoder.unpack_uint()
            high = decoder.unpack_uint()
            return cls(verf, stat, b"", low, high)
        if stat in _ACCEPT_STAT_NAMES:
            return cls(verf, stat)
        raise RpcProtocolError(f"invalid accept_stat {stat}")


class RejectedReply(
    WireStruct,
    namedtuple(
        "RejectedReply",
        "stat auth_stat mismatch_low mismatch_high",
        defaults=(AUTH_ERROR, 0, RPC_VERSION, RPC_VERSION),
    ),
):
    """``rejected_reply``: RPC version mismatch or authentication failure."""

    __slots__ = ()

    def encode(self, encoder: XdrEncoder) -> None:
        encoder.pack_enum(self.stat)
        if self.stat == RPC_MISMATCH:
            encoder.pack_uint(self.mismatch_low)
            encoder.pack_uint(self.mismatch_high)
        elif self.stat == AUTH_ERROR:
            encoder.pack_enum(self.auth_stat)
        else:
            raise RpcProtocolError(f"invalid reject_stat {self.stat}")

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "RejectedReply":
        stat = decoder.unpack_enum()
        if stat == RPC_MISMATCH:
            low = decoder.unpack_uint()
            high = decoder.unpack_uint()
            return cls(stat, 0, low, high)
        if stat == AUTH_ERROR:
            return cls(stat, decoder.unpack_enum())
        raise RpcProtocolError(f"invalid reject_stat {stat}")


# -- the compiled header -----------------------------------------------------

_XID_TYPE = struct.Struct(">Ii")  # xid, msg_type
_CALL_HEAD = struct.Struct(">IiIIII")  # xid, CALL, rpcvers, prog, vers, proc
#: what follows xid and msg_type in a call, up to the credential's body:
#: rpcvers, prog, vers, proc, cred flavor, cred length
_CALL_REST = struct.Struct(">IIIIiI")
_REPLY_HEAD = struct.Struct(">Iii")  # xid, REPLY, reply_stat
_REPLY_REST = struct.Struct(">iiI")  # reply_stat, verf flavor, verf length
_STAT = struct.Struct(">i")


def _pack_header(buf: bytearray, xid: int, body: object) -> Payload:
    """Append the header of a call or an accepted reply to ``buf``.

    Returns the payload still to be packed behind it.  ``struct`` checks
    every range; the ``type`` tests keep out the ``bool`` it would accept;
    an ``opaque_auth`` that needs the walk has no ``wire`` (``None``), and
    appending that raises.
    """
    if type(xid) is not int:
        raise Defer
    if type(body) is CallBody:
        prog, vers, proc = body.prog, body.vers, body.proc
        if not (type(prog) is int and type(vers) is int and type(proc) is int):
            raise Defer
        buf += _CALL_HEAD.pack(xid, CALL, RPC_VERSION, prog, vers, proc)
        buf += body.cred.wire
        buf += body.verf.wire
        return body.args
    if type(body) is AcceptedReply:
        stat = body.stat
        if type(stat) is not int or stat == PROG_MISMATCH:
            raise Defer
        buf += _REPLY_HEAD.pack(xid, REPLY, MSG_ACCEPTED)
        buf += body.verf.wire
        buf += _STAT.pack(stat)
        return body.results if stat == SUCCESS else b""
    raise Defer


def _parse_auth(view: memoryview, pos: int, flavor: int, length: int) -> tuple[OpaqueAuth, int]:
    """The ``opaque_auth`` whose body starts at ``pos``, and where it ends."""
    if not length:
        return (NULL_AUTH if flavor == AUTH_NONE else OpaqueAuth(flavor, b"")), pos
    end = pos + length
    stop = end + (-length & 3)
    if length > MAX_AUTH_BYTES or stop > len(view) or (stop > end and any(view[end:stop])):
        raise Defer
    # Kept in contexts, cache keys and sessions that outlive the record:
    # detached from the record buffer, as ``OpaqueAuth.decode`` does.
    wire = bytes(view[pos - 8 : stop])
    return OpaqueAuth._from_wire(flavor, wire[8 : 8 + length], wire), stop


#: builds a message structure from all of its fields, skipping the Python
#: frame of its ``__new__`` (the parser fills every field)
_build = tuple.__new__


def _parse(data: Buffer) -> "RpcMessage":
    """A well-formed call or accepted reply; anything else defers."""
    view = flat_view(memoryview(data)).toreadonly()
    xid, mtype = _XID_TYPE.unpack_from(view)
    if mtype == CALL:
        rpcvers, prog, vers, proc, flavor, length = _CALL_REST.unpack_from(view, 8)
        if rpcvers != RPC_VERSION:
            raise Defer
        cred, pos = _parse_auth(view, 32, flavor, length)
        flavor, length = AUTH_HEAD.unpack_from(view, pos)
        verf, pos = _parse_auth(view, pos + 8, flavor, length)
        if (len(view) - pos) & 3:
            raise Defer
        body = _build(CallBody, (prog, vers, proc, cred, verf, view[pos:]))
        return _build(RpcMessage, (xid, body, MSG_ACCEPTED))
    if mtype != REPLY:
        raise Defer
    rstat, flavor, length = _REPLY_REST.unpack_from(view, 8)
    if rstat != MSG_ACCEPTED:
        raise Defer
    verf, pos = _parse_auth(view, 20, flavor, length)
    (stat,) = _STAT.unpack_from(view, pos)
    if stat == SUCCESS:
        pos += 4
        if (len(view) - pos) & 3:
            raise Defer
        body = _build(AcceptedReply, (verf, stat, view[pos:], 0, 0))
        return _build(RpcMessage, (xid, body, MSG_ACCEPTED))
    if stat == PROG_MISMATCH or stat not in _ACCEPT_STAT_NAMES:
        raise Defer
    return RpcMessage(xid, AcceptedReply(verf, stat), MSG_ACCEPTED)


# -- the reference walk ------------------------------------------------------


def encode_reference(message: "RpcMessage") -> bytearray | GatherRecord:
    """Encode ``message`` field by field: the oracle, and the error reporter."""
    enc = XdrEncoder()
    enc.pack_uint(message.xid)
    if isinstance(message.body, CallBody):
        enc.pack_enum(CALL)
        message.body.encode(enc)
    elif isinstance(message.body, AcceptedReply):
        enc.pack_enum(REPLY)
        enc.pack_enum(MSG_ACCEPTED)
        message.body.encode(enc)
    elif isinstance(message.body, RejectedReply):
        enc.pack_enum(REPLY)
        enc.pack_enum(MSG_DENIED)
        message.body.encode(enc)
    else:  # pragma: no cover - type error guard
        raise RpcProtocolError(f"unknown message body {type(message.body)!r}")
    return enc.buffer


def decode_reference(data: Buffer) -> "RpcMessage":
    """Parse ``data`` field by field: the oracle, and the error reporter."""
    dec = XdrDecoder(data)
    xid = dec.unpack_uint()
    mtype = dec.unpack_enum()
    if mtype == CALL:
        return RpcMessage(xid, CallBody.decode(dec))
    if mtype == REPLY:
        rstat = dec.unpack_enum()
        if rstat == MSG_ACCEPTED:
            return RpcMessage(xid, AcceptedReply.decode(dec), MSG_ACCEPTED)
        if rstat == MSG_DENIED:
            return RpcMessage(xid, RejectedReply.decode(dec), MSG_DENIED)
        raise RpcProtocolError(f"invalid reply_stat {rstat}")
    raise RpcProtocolError(f"invalid msg_type {mtype}")


class RpcMessage(
    WireStruct, namedtuple("RpcMessage", "xid body reply_stat", defaults=(MSG_ACCEPTED,))
):
    """A complete ``rpc_msg``: xid plus call or reply body.

    ``body`` is a :class:`CallBody`, :class:`AcceptedReply` or
    :class:`RejectedReply`; ``reply_stat`` is meaningful only for replies.
    """

    __slots__ = ()

    @property
    def is_call(self) -> bool:
        """True when this message is a CALL."""
        return isinstance(self.body, CallBody)

    def encode(self) -> bytearray | GatherRecord:
        """Serialize to the XDR wire form (without record marking).

        Returns the encoder's own record, which belongs to the caller: a
        fresh ``bytearray``, or a :class:`~repro.xdr.encoder.GatherRecord`
        when the body referenced a bulk opaque.
        """
        enc = XdrEncoder()
        try:
            payload = _pack_header(enc.buffer, self.xid, self.body)
        except Exception:
            pass
        else:
            _pack_payload(enc, payload)
            return enc.buffer
        return encode_reference(self)

    @classmethod
    def decode(cls, data: Buffer | GatherRecord) -> "RpcMessage":
        """Parse one record's payload into an :class:`RpcMessage`.

        ``args``/``results`` of the parsed body are read-only views of
        ``data``, which must stay unmodified while they are in use.  A
        gather record is flattened first (and so released).
        """
        if type(data) is GatherRecord:
            data = flatten(data)
        try:
            return _parse(data)
        except Exception:
            pass
        return decode_reference(data)
