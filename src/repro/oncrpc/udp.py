"""UDP transport for ONC RPC (RFC 5531 §10, datagram mode).

Historically Sun RPC's default transport: one datagram per message, no
record marking, client-side retransmission on timeout.  Provided here for
protocol completeness -- and to make concrete *why Cricket cannot use it*:
a datagram caps the message size at ~64 KiB, so GPU-sized buffers simply
do not fit.  TCP with multi-fragment record marking (the capability
RPC-Lib added over the ``onc_rpc`` crate) is what makes Cricket's
RPC-argument memory transfers possible.  The test suite demonstrates both
sides: small calls work over UDP; large arguments raise
:class:`~repro.oncrpc.errors.RpcTransportError` before anything is sent.
"""

from __future__ import annotations

import socket
import threading

from repro.oncrpc.errors import RpcProtocolError, RpcTimeoutError, RpcTransportError
from repro.oncrpc.server import RpcServer
from repro.oncrpc.transport import NullMeter, TransportMeter
from repro.xdr.errors import XdrError

#: Practical maximum UDP payload (64 KiB minus IP/UDP headers).
MAX_UDP_PAYLOAD = 65507


class UdpTransport:
    """Datagram transport with timeout + retransmission.

    ``recv_record`` retransmits the last request on timeout, up to
    ``retries`` attempts -- the classic UDP RPC at-least-once behaviour
    (handlers should therefore be idempotent, which is one more reason
    Cricket uses TCP).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 1.0,
        retries: int = 3,
        max_payload: int = MAX_UDP_PAYLOAD,
        meter: TransportMeter | None = None,
    ) -> None:
        self._addr = (host, port)
        self.timeout_s = timeout_s
        self.retries = retries
        self.max_payload = max_payload
        self.meter = meter or NullMeter()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.settimeout(timeout_s)
        self._last_record: bytes | None = None
        self._closed = False
        #: total datagrams retransmitted (instrumentation)
        self.retransmissions = 0

    def send_record(self, record: bytes) -> None:
        if self._closed:
            raise RpcTransportError("transport is closed")
        if len(record) > self.max_payload:
            raise RpcTransportError(
                f"message of {len(record)} bytes exceeds the UDP datagram "
                f"limit ({self.max_payload}); use TCP with record marking "
                "for large arguments"
            )
        try:
            self._sock.sendto(record, self._addr)
        except OSError as exc:
            raise RpcTransportError(f"UDP send failed: {exc}") from exc
        self._last_record = record
        self.meter.on_send(len(record))

    def recv_record(self) -> bytes:
        if self._closed:
            raise RpcTransportError("transport is closed")
        attempts = 0
        while True:
            try:
                data, _addr = self._sock.recvfrom(self.max_payload)
                self.meter.on_recv(len(data))
                return data
            except socket.timeout:
                attempts += 1
                if attempts > self.retries or self._last_record is None:
                    raise RpcTimeoutError(
                        f"no UDP reply after {attempts} attempt(s)"
                    ) from None
                self.retransmissions += 1
                try:
                    self._sock.sendto(self._last_record, self._addr)
                except OSError as exc:
                    raise RpcTransportError(f"UDP resend failed: {exc}") from exc
            except OSError as exc:
                raise RpcTransportError(f"UDP recv failed: {exc}") from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()


class UdpServerMixin:
    """Adds a UDP listener to :class:`~repro.oncrpc.server.RpcServer`.

    Implemented as a helper rather than a subclass so any existing server
    instance can be extended: ``serve_udp(server)``.
    """


def serve_udp(
    server: RpcServer, host: str = "127.0.0.1", port: int = 0
) -> tuple[str, int]:
    """Serve ``server``'s programs over UDP datagrams; returns the address.

    Each request datagram is dispatched like one TCP record; the reply is
    sent back in a single datagram.  Replies larger than a datagram are
    dropped (the client will time out), matching real UDP RPC behaviour.
    The loop runs on a daemon thread until ``stop()`` on the returned
    socket -- in practice until interpreter exit or ``server.shutdown()``.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((host, port))
    sock.settimeout(0.2)
    bound = sock.getsockname()[:2]
    sessions: dict[tuple, dict] = {}

    def loop() -> None:
        while not server._shutdown.is_set():
            try:
                data, addr = sock.recvfrom(MAX_UDP_PAYLOAD)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                session = sessions.setdefault(addr, {})
                reply = server.dispatch_record(
                    data, client_id=f"udp:{addr[0]}:{addr[1]}", session=session
                )
            except (RpcProtocolError, XdrError):
                continue  # unparseable datagram: drop silently, as UDP does
            if reply is not None and len(reply) <= MAX_UDP_PAYLOAD:
                try:
                    sock.sendto(reply, addr)
                except OSError:
                    continue
        sock.close()

    thread = threading.Thread(target=loop, name="rpc-udp", daemon=True)
    thread.start()
    return bound
