"""Client transports carrying record-marked RPC bytes.

Two transports are provided:

* :class:`TcpTransport` -- a real TCP connection, the same wire path
  RPC-Lib uses via the Rust standard library.
* :class:`LoopbackTransport` -- an in-process connection to a server's
  dispatcher.  It still frames each request and reassembles it through
  :class:`~repro.oncrpc.record.RecordReader`, so the byte-exact wire path
  is exercised, but without kernel sockets.  The simulation harness uses
  it to run the paper's 100 000-call workloads quickly and
  deterministically.

A record to send is one contiguous ``bytes`` or ``bytearray``, or a
:class:`~repro.xdr.encoder.GatherRecord` that references its bulk payload
where it lives; every transport puts the same bytes on the wire for both.
``send_record`` owns the record it is given until it returns (a
:class:`ChecksummedTransport` appends its trailer to a ``bytearray`` in
place); ``recv_record`` hands up a contiguous buffer that belongs to the
caller and is never reused.

Transports accept an optional :class:`TransportMeter`, the hook through
which the platform timing models (:mod:`repro.unikernel`) charge simulated
time for every byte crossing the virtual network.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from typing import Callable, Protocol

from repro.oncrpc.errors import RpcTimeoutError, RpcTransportError
from repro.oncrpc.record import (
    DEFAULT_FRAGMENT_SIZE,
    Buffer,
    RecordReader,
    append_crc,
    gather_fragments,
    sendmsg_all,
    verify_crc,
)
from repro.xdr.encoder import GatherRecord, flatten

# The reference framing.  The transports send ``gather_fragments`` lists;
# the name stays importable from here because ``bench/trace.py`` rebinds it
# in every module that imported it.
from repro.oncrpc.record import encode_record  # noqa: F401


class TransportMeter(Protocol):
    """Observer notified of traffic through a transport.

    Implementations typically accumulate simulated time; see
    :class:`repro.unikernel.platform.PlatformMeter`.
    """

    def on_send(self, nbytes: int) -> None:
        """Called once per outbound record with its framed size."""
        ...

    def on_recv(self, nbytes: int) -> None:
        """Called once per inbound record with its framed size."""
        ...


class NullMeter:
    """A meter that ignores all traffic (the default)."""

    def on_send(self, nbytes: int) -> None:  # noqa: D102 - protocol impl
        pass

    def on_recv(self, nbytes: int) -> None:  # noqa: D102 - protocol impl
        pass


class Transport(Protocol):
    """Minimal transport interface used by :class:`~repro.oncrpc.client.RpcClient`."""

    def send_record(self, record: Buffer | GatherRecord) -> None:
        """Send one complete RPC record."""
        ...

    def recv_record(self) -> bytes:
        """Block until one complete RPC record is received."""
        ...

    def close(self) -> None:
        """Release transport resources."""
        ...


def reconnect_if_supported(transport: Transport, *, force: bool = False) -> None:
    """``transport.reconnect(force=force)`` if it can reconnect; errors propagate."""
    reconnect = getattr(transport, "reconnect", None)
    if reconnect is not None:
        reconnect(force=force)


def _framed_size(record_len: int, fragment_size: int) -> int:
    """Bytes on the wire for a record: payload plus 4 bytes per fragment."""
    fragments = max(1, -(-record_len // fragment_size))
    return record_len + 4 * fragments


class TcpTransport:
    """A blocking TCP transport with record marking.

    ``connect_timeout`` bounds connection establishment and ``io_timeout``
    bounds each socket operation afterwards, so a dead or hung server
    surfaces as :class:`~repro.oncrpc.errors.RpcTimeoutError` instead of
    blocking forever.  The legacy ``timeout`` argument seeds both when the
    specific knobs are not given.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        fragment_size: int = DEFAULT_FRAGMENT_SIZE,
        timeout: float | None = 30.0,
        connect_timeout: float | None = None,
        io_timeout: float | None = None,
        meter: TransportMeter | None = None,
    ) -> None:
        self.fragment_size = fragment_size
        self.meter = meter or NullMeter()
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.io_timeout = timeout if io_timeout is None else io_timeout
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"connect to {host}:{port} timed out after {self.connect_timeout}s"
            ) from exc
        except OSError as exc:
            raise RpcTransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._sock.settimeout(self.io_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = RecordReader(recv_into=self._recv)
        self._closed = False

    def _recv(self, view: memoryview) -> int:
        """Block until the socket has put some bytes into ``view``."""
        try:
            return self._sock.recv_into(view)
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"recv timed out after {self.io_timeout}s"
            ) from exc
        except OSError as exc:
            raise RpcTransportError(f"recv failed: {exc}") from exc

    def send_record(self, record: Buffer | GatherRecord) -> None:
        if self._closed:
            raise RpcTransportError("transport is closed")
        try:
            sent = sendmsg_all(
                self._sock, gather_fragments(record, self.fragment_size)
            )
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"send timed out after {self.io_timeout}s"
            ) from exc
        except OSError as exc:
            raise RpcTransportError(f"send failed: {exc}") from exc
        self.meter.on_send(sent)

    def recv_record(self) -> bytearray:
        if self._closed:
            raise RpcTransportError("transport is closed")
        record = self._reader.read_record()
        if record is None:
            raise RpcTransportError("connection closed by peer")
        # What the peer put on the wire: it fragments at *its* size.
        self.meter.on_recv(self._reader.wire_bytes)
        return record

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class ChecksummedTransport:
    """Adds a CRC32 integrity trailer to every record through a transport.

    Sits at the *top* of the client's transport stack -- above any fault
    injector or real network -- so the checksum covers everything below
    it: a record corrupted anywhere in transit fails verification on
    receive and surfaces as a retryable
    :class:`~repro.oncrpc.errors.RpcIntegrityError`.  The peer must run
    with the matching setting (``RpcServer(crc_records=True)``), which
    verifies inbound requests and checksums outbound replies.

    ``stats`` may be a :class:`~repro.resilience.stats.ResilienceStats`
    (duck-typed to avoid a layering cycle); its ``crc_rejected`` counter
    is bumped on every rejected record.
    """

    def __init__(self, inner: Transport, *, stats=None) -> None:
        self.inner = inner
        self.stats = stats

    def send_record(self, record: Buffer | GatherRecord) -> None:
        """Send one record with its CRC32 trailer appended.

        A ``bytearray`` gets the trailer in place: the caller gave the
        record up when it called ``send_record``.  A gather record gets it
        as one more segment.
        """
        self.inner.send_record(append_crc(record))

    def recv_record(self) -> memoryview:
        """Receive one record, verifying and stripping its trailer.

        The result is a read-only view of the record the inner transport
        handed up (all of it but the trailer), not a copy.
        """
        record = self.inner.recv_record()
        try:
            return verify_crc(record)
        except RpcTransportError:
            if self.stats is not None:
                self.stats.crc_rejected += 1
            raise

    def reconnect(self, *, force: bool = False) -> None:
        """Delegate reconnection to the wrapped transport (if supported)."""
        reconnect_if_supported(self.inner, force=force)

    def close(self) -> None:
        """Close the wrapped transport."""
        self.inner.close()


class _GatherStream:
    """The loopback "socket": gather lists in, ``recv_into`` out."""

    def __init__(self) -> None:
        self._pending: deque[Buffer] = deque()

    def feed(self, buffers: list[Buffer]) -> None:
        self._pending.extend(buffers)

    def recv_into(self, view: memoryview) -> int:
        """Fill ``view`` from the queued buffers, as far as they reach (a
        socket hands over whatever has arrived, across sends)."""
        pending = self._pending
        filled, room = 0, len(view)
        while pending and filled < room:
            head = pending[0]
            count = min(room - filled, len(head))
            view[filled : filled + count] = head[:count]
            filled += count
            if count == len(head):
                pending.popleft()
            else:
                pending[0] = memoryview(head)[count:]
        return filled


class LoopbackTransport:
    """In-process transport connected to a server dispatch function.

    ``dispatch`` receives one record's payload (an encoded ``rpc_msg``) and
    returns the reply record payload, or ``None`` for one-way calls.  The
    request is framed and reassembled exactly as over TCP -- same gather
    list, same :class:`~repro.oncrpc.record.RecordReader` -- so the server
    works on its own copy of the record, as it would behind a socket.  The
    reply is queued flattened: a gather reply is copied out once (the copy
    a socket makes) and released, so what waits here owns its bytes and
    pins nothing; a plain reply is queued as the server encoded it.  It is
    charged to the meter at its framed size: this transport *is* the
    sender of both directions, so both fragment at ``fragment_size``.
    """

    def __init__(
        self,
        dispatch: Callable[[Buffer], Buffer | GatherRecord | None],
        *,
        fragment_size: int = DEFAULT_FRAGMENT_SIZE,
        meter: TransportMeter | None = None,
    ) -> None:
        self._dispatch = dispatch
        self.fragment_size = fragment_size
        self.meter = meter or NullMeter()
        self._pending: deque[Buffer] = deque()
        self._wire = _GatherStream()
        self._reader = RecordReader(recv_into=self._wire.recv_into)
        self._lock = threading.Lock()
        self._closed = False

    def send_record(self, record: Buffer | GatherRecord) -> None:
        if self._closed:
            raise RpcTransportError("transport is closed")
        with self._lock:
            self._wire.feed(gather_fragments(record, self.fragment_size))
            request = self._reader.read_record()
            wire_bytes = self._reader.wire_bytes
        assert request is not None
        self.meter.on_send(wire_bytes)
        reply = self._dispatch(request)
        if reply is not None:
            reply = flatten(reply)
            with self._lock:
                self._pending.append(reply)

    def recv_record(self) -> Buffer:
        if self._closed:
            raise RpcTransportError("transport is closed")
        with self._lock:
            if not self._pending:
                raise RpcTransportError("no reply pending on loopback transport")
            record = self._pending.popleft()
        self.meter.on_recv(_framed_size(len(record), self.fragment_size))
        return record

    def close(self) -> None:
        self._closed = True
        self._pending.clear()
