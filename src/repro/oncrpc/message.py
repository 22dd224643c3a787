"""ONC RPC message structures (RFC 5531 section 9).

The ``rpc_msg`` union and its bodies are modelled as frozen dataclasses with
explicit ``encode``/``decode`` methods.  Procedure arguments and results are
carried as raw pre-encoded XDR so the message layer stays independent of any
particular program's interface definition.

A message is encoded into **one** buffer, header first: a body's
``args``/``results`` is either pre-encoded XDR (appended) or a *writer* -- a
callable handed the encoder once the header is in it, which is how the
generated stubs put a bulk payload into the record with a single copy.  A
decoded message carries read-only views of the record it was parsed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.oncrpc.auth import NULL_AUTH, OpaqueAuth
from repro.oncrpc.errors import RpcProtocolError
from repro.xdr import XdrDecoder, XdrEncoder
from repro.xdr.encoder import Buffer

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


@dataclass(frozen=True)
class CallBody:
    """``call_body``: which remote procedure to invoke, with credentials."""

    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH
    args: Payload = b""

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


@dataclass(frozen=True)
class AcceptedReply:
    """``accepted_reply``: server processed the call (possibly with error)."""

    verf: OpaqueAuth = NULL_AUTH
    stat: int = SUCCESS
    results: Payload = b""
    mismatch_low: int = 0
    mismatch_high: int = 0

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


@dataclass(frozen=True)
class RejectedReply:
    """``rejected_reply``: RPC version mismatch or authentication failure."""

    stat: int = AUTH_ERROR
    auth_stat: int = 0
    mismatch_low: int = RPC_VERSION
    mismatch_high: int = RPC_VERSION

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


@dataclass(frozen=True)
class RpcMessage:
    """A complete ``rpc_msg``: xid plus call or reply body."""

    xid: int
    body: CallBody | AcceptedReply | RejectedReply
    reply_stat: int = MSG_ACCEPTED  # meaningful only for replies

    @property
    def is_call(self) -> bool:
        """True when this message is a CALL."""
        return isinstance(self.body, CallBody)

    def encode(self) -> bytearray:
        """Serialize to the XDR wire form (without record marking).

        Returns the encoder's own buffer -- a fresh ``bytearray`` that
        belongs to the caller.
        """
        enc = XdrEncoder()
        enc.pack_uint(self.xid)
        if isinstance(self.body, CallBody):
            enc.pack_enum(CALL)
            self.body.encode(enc)
        elif isinstance(self.body, AcceptedReply):
            enc.pack_enum(REPLY)
            enc.pack_enum(MSG_ACCEPTED)
            self.body.encode(enc)
        elif isinstance(self.body, RejectedReply):
            enc.pack_enum(REPLY)
            enc.pack_enum(MSG_DENIED)
            self.body.encode(enc)
        else:  # pragma: no cover - type error guard
            raise RpcProtocolError(f"unknown message body {type(self.body)!r}")
        return enc.buffer

    @classmethod
    def decode(cls, data: Buffer) -> "RpcMessage":
        """Parse one record's payload into an :class:`RpcMessage`.

        ``args``/``results`` of the parsed body are read-only views of
        ``data``, which must stay unmodified while they are in use.
        """
        dec = XdrDecoder(data)
        xid = dec.unpack_uint()
        mtype = dec.unpack_enum()
        if mtype == CALL:
            return cls(xid, CallBody.decode(dec))
        if mtype == REPLY:
            rstat = dec.unpack_enum()
            if rstat == MSG_ACCEPTED:
                return cls(xid, AcceptedReply.decode(dec), MSG_ACCEPTED)
            if rstat == MSG_DENIED:
                return cls(xid, RejectedReply.decode(dec), MSG_DENIED)
            raise RpcProtocolError(f"invalid reply_stat {rstat}")
        raise RpcProtocolError(f"invalid msg_type {mtype}")
