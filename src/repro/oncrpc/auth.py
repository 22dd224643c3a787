"""ONC RPC authentication flavors (RFC 5531 section 8 / RFC 5531 appendix).

Cricket itself runs with ``AUTH_NONE``; ``AUTH_SYS`` (the classic UNIX
credential) is provided for completeness and for tests exercising the
credential path.  Opaque bodies are capped at 400 bytes as the RFC requires.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from operator import itemgetter

from repro.xdr import XdrDecoder, XdrEncoder
from repro.xdr.errors import XdrDecodeError, XdrEncodeError

MAX_AUTH_BYTES = 400

#: the two words before an ``opaque_auth`` body: flavor, body length
AUTH_HEAD = struct.Struct(">iI")

AUTH_NONE = 0
AUTH_SYS = 1
AUTH_SHORT = 2
#: Private flavor ("CRIC") carrying a client-generated session token.  The
#: server's at-most-once reply cache keys on this token instead of the TCP
#: peer address, so a client keeps its duplicate-request protection across
#: reconnects (a reconnect changes the ephemeral source port).
AUTH_CLIENT_TOKEN = 0x43524943
#: Private flavor ("CRID") carried in a call's *verifier* slot with per-call
#: overload metadata: the remaining deadline budget and a priority.  The
#: budget travels as a *relative* nanosecond count (gRPC-style) because
#: client and server may live in different clock domains (a real WallClock
#: client talking to a SimClock server); the server converts it to an
#: absolute expiry in its own domain on arrival.
AUTH_CALL_META = 0x43524944
#: Private flavor ("CRIE") carried in *reply* verifiers by fenced HA
#: servers: the server's current leadership epoch, whether it considers
#: itself the leader, and (when it knows) the endpoint name of the actual
#: leader.  The failover transport reads this to learn the newest epoch,
#: refuse rotation back to a stale primary, and follow redirects from a
#: demoted one.  Unfenced servers keep the historical ``NULL_AUTH`` verf.
AUTH_LEADER_EPOCH = 0x43524945

#: ``auth_stat`` values used in MSG_DENIED/AUTH_ERROR replies.
AUTH_OK = 0
AUTH_BADCRED = 1
AUTH_REJECTEDCRED = 2
AUTH_BADVERF = 3
AUTH_REJECTEDVERF = 4
AUTH_TOOWEAK = 5


class WireStruct:
    """Equality of a frozen dataclass for the structures an RPC builds per call.

    :class:`OpaqueAuth` and the message bodies of :mod:`repro.oncrpc.message`
    are tuples underneath (a ``namedtuple``, or a ``tuple`` subclass): building
    one costs a tuple, a fraction of a frozen dataclass's ``__init__``, and
    it is immutable and hashable as a tuple is.  Mixed in first, this makes
    one equal only to another of its own class, as a dataclass is -- never
    to a plain tuple or to another structure with the same fields.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def _wire_of(flavor: object, body: object) -> bytes | None:
    """Flavor, length, body and padding as they go on the wire, or ``None``
    when :meth:`OpaqueAuth.encode` would not simply pack them -- a flavor
    that is no plain ``int``, a body that is not ``bytes`` or is over-long --
    and must be asked to, for the bytes or the error."""
    if type(flavor) is not int or type(body) is not bytes or len(body) > MAX_AUTH_BYTES:
        return None
    try:
        return AUTH_HEAD.pack(flavor, len(body)) + body + bytes(-len(body) & 3)
    except struct.error:
        return None


class OpaqueAuth(WireStruct, tuple):
    """An ``opaque_auth``: flavor discriminant plus opaque body.

    It also carries ``wire``, the structure as it goes on the wire, built
    with it: a client sends the same credential with every call, and a
    decoded one is built from the bytes it was read from.
    """

    __slots__ = ()

    def __new__(cls, flavor: int = AUTH_NONE, body: bytes = b"") -> "OpaqueAuth":
        return tuple.__new__(cls, (flavor, body, _wire_of(flavor, body)))

    @classmethod
    def _from_wire(cls, flavor: int, body: bytes, wire: bytes) -> "OpaqueAuth":
        """The auth whose well-formed wire form (header, body, zero padding) is ``wire``."""
        return tuple.__new__(cls, (flavor, body, wire))

    flavor = property(itemgetter(0), doc="The flavor discriminant.")
    body = property(itemgetter(1), doc="The opaque body (at most 400 bytes on the wire).")
    wire = property(
        itemgetter(2),
        doc="Flavor, length, body and padding as they go on the wire, or ``None`` "
        "when :meth:`encode` must be asked (see :func:`_wire_of`).",
    )

    def __repr__(self) -> str:
        return f"OpaqueAuth(flavor={self.flavor!r}, body={self.body!r})"

    def __getnewargs__(self) -> tuple[object, object]:
        return self.flavor, self.body

    def encode(self, encoder: XdrEncoder) -> None:
        """Pack this auth structure."""
        if len(self.body) > MAX_AUTH_BYTES:
            raise XdrEncodeError(
                f"auth body exceeds {MAX_AUTH_BYTES} bytes ({len(self.body)})"
            )
        encoder.pack_enum(self.flavor)
        encoder.pack_opaque(self.body, MAX_AUTH_BYTES)

    @classmethod
    def decode(cls, decoder: XdrDecoder) -> "OpaqueAuth":
        """Unpack an auth structure."""
        flavor = decoder.unpack_enum()
        # At most 400 bytes, kept in contexts, cache keys and sessions that
        # outlive the record: detach it from the record buffer.
        body = bytes(decoder.unpack_opaque(MAX_AUTH_BYTES))
        return cls(flavor, body)


NULL_AUTH = OpaqueAuth(AUTH_NONE, b"")


def client_token_auth(token: bytes) -> OpaqueAuth:
    """Wrap a client-generated session token as an ``AUTH_CLIENT_TOKEN`` cred.

    The token is an opaque stable identity (e.g. ``uuid4().bytes``) chosen
    once per client; it must be non-empty and fit the RFC's 400-byte opaque
    cap.
    """
    token = bytes(token)
    if not token:
        raise XdrEncodeError("client token must be non-empty")
    if len(token) > MAX_AUTH_BYTES:
        raise XdrEncodeError(
            f"client token exceeds {MAX_AUTH_BYTES} bytes ({len(token)})"
        )
    return OpaqueAuth(AUTH_CLIENT_TOKEN, token)


def client_token_from(auth: OpaqueAuth) -> bytes | None:
    """Extract the session token from an ``AUTH_CLIENT_TOKEN`` credential.

    Returns ``None`` for every other flavor (including an empty-bodied
    token cred, which carries no usable identity).
    """
    if auth.flavor == AUTH_CLIENT_TOKEN and auth.body:
        return auth.body
    return None


@dataclass(frozen=True)
class CallMeta:
    """Per-call overload metadata decoded from an ``AUTH_CALL_META`` verifier."""

    remaining_ns: int | None = None  # budget left at send time; None = no deadline
    priority: int = 0  # higher = more important; shed lowest first


def call_meta_auth(remaining_ns: int | None, priority: int = 0) -> OpaqueAuth:
    """Encode deadline budget + priority as an ``AUTH_CALL_META`` verifier.

    ``remaining_ns`` is clamped at zero so a just-expired call still encodes
    cleanly (the server will refuse it as expired, which is the point).
    """
    enc = XdrEncoder()
    if remaining_ns is None:
        enc.pack_bool(False)
    else:
        enc.pack_bool(True)
        enc.pack_uhyper(max(0, int(remaining_ns)))
    enc.pack_int(int(priority))
    return OpaqueAuth(AUTH_CALL_META, enc.getvalue())


def call_meta_from(auth: OpaqueAuth) -> CallMeta | None:
    """Decode an ``AUTH_CALL_META`` verifier; ``None`` for other flavors.

    A malformed body (truncated, trailing bytes) is treated as absent rather
    than raised -- overload metadata is advisory, and a server must not
    refuse an otherwise-valid call because a middlebox mangled the verf.
    """
    if auth.flavor != AUTH_CALL_META:
        return None
    try:
        dec = XdrDecoder(auth.body)
        remaining = dec.unpack_uhyper() if dec.unpack_bool() else None
        priority = dec.unpack_int()
        dec.assert_done()
    except XdrDecodeError:
        return None
    return CallMeta(remaining, priority)


@dataclass(frozen=True)
class LeaderVerf:
    """Leadership state decoded from an ``AUTH_LEADER_EPOCH`` reply verifier."""

    epoch: int = 0  # highest epoch the replying server knows about
    leader: bool = False  # whether it currently holds the leadership lease
    hint: str = ""  # endpoint name of the actual leader, if known


@functools.lru_cache(maxsize=64)
def leader_epoch_auth(epoch: int, leader: bool, hint: str = "") -> OpaqueAuth:
    """Encode leadership state as an ``AUTH_LEADER_EPOCH`` reply verifier.

    Encoded once per distinct state: a fenced server stamps every reply,
    and its (epoch, leader, hint) changes only at a leadership transition.
    """
    enc = XdrEncoder()
    enc.pack_uhyper(max(0, int(epoch)))
    enc.pack_bool(bool(leader))
    enc.pack_string(hint, 64)
    return OpaqueAuth(AUTH_LEADER_EPOCH, enc.getvalue())


def leader_epoch_from(auth: OpaqueAuth) -> LeaderVerf | None:
    """Decode an ``AUTH_LEADER_EPOCH`` verifier; ``None`` for other flavors.

    Like :func:`call_meta_from`, a malformed body is treated as absent
    rather than raised: epoch metadata is advisory routing state, and a
    mangled verf must not turn a decodable reply into a client error.
    """
    if auth.flavor != AUTH_LEADER_EPOCH:
        return None
    return _leader_verf(bytes(auth.body))


@functools.lru_cache(maxsize=64)
def _leader_verf(body: bytes) -> LeaderVerf | None:
    """The :class:`LeaderVerf` a verifier body encodes, decoded once per body."""
    try:
        dec = XdrDecoder(body)
        epoch = dec.unpack_uhyper()
        leader = dec.unpack_bool()
        hint = dec.unpack_string(64)
        dec.assert_done()
    except XdrDecodeError:
        return None
    return LeaderVerf(epoch, leader, hint)


@dataclass(frozen=True)
class AuthSysParams:
    """The ``authsys_parms`` credential body (RFC 5531 appendix A)."""

    stamp: int = 0
    machinename: str = "localhost"
    uid: int = 0
    gid: int = 0
    gids: tuple[int, ...] = field(default_factory=tuple)

    MAX_MACHINENAME = 255
    MAX_GIDS = 16

    def to_opaque(self) -> OpaqueAuth:
        """Serialize into an ``AUTH_SYS`` flavored :class:`OpaqueAuth`."""
        if len(self.gids) > self.MAX_GIDS:
            raise XdrEncodeError(f"at most {self.MAX_GIDS} gids allowed")
        enc = XdrEncoder()
        enc.pack_uint(self.stamp & 0xFFFFFFFF)
        enc.pack_string(self.machinename, self.MAX_MACHINENAME)
        enc.pack_uint(self.uid)
        enc.pack_uint(self.gid)
        enc.pack_array_header(len(self.gids), self.MAX_GIDS)
        for gid in self.gids:
            enc.pack_uint(gid)
        return OpaqueAuth(AUTH_SYS, enc.getvalue())

    @classmethod
    def from_opaque(cls, auth: OpaqueAuth) -> "AuthSysParams":
        """Parse an ``AUTH_SYS`` credential body."""
        if auth.flavor != AUTH_SYS:
            raise XdrDecodeError(f"not an AUTH_SYS credential (flavor {auth.flavor})")
        dec = XdrDecoder(auth.body)
        stamp = dec.unpack_uint()
        machinename = dec.unpack_string(cls.MAX_MACHINENAME)
        uid = dec.unpack_uint()
        gid = dec.unpack_uint()
        count = dec.unpack_array_header(cls.MAX_GIDS)
        gids = tuple(dec.unpack_uint() for _ in range(count))
        dec.assert_done()
        return cls(stamp, machinename, uid, gid, gids)
