"""Reconnecting transport with a circuit breaker.

A plain :class:`~repro.oncrpc.transport.TcpTransport` dies with its socket:
once the Cricket server restarts, every call fails forever.
:class:`ReconnectingTransport` holds a transport *factory* instead of a
socket, so a broken connection can be re-established -- under the control
of a :class:`CircuitBreaker` that stops a client from hammering a dead
server with connection attempts.

The breaker runs on the session's clock.  In experiments that is a
:class:`~repro.net.simclock.SimClock`: the open interval is virtual time,
which the retry loop's backoff naturally advances, keeping the whole
failure dance deterministic in tests.  Real-socket clients instead pass a
:class:`~repro.net.simclock.WallClock`, so the open window (like backoff
and deadlines) is enforced in real elapsed time.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable

from repro.net.simclock import SimClock, WallClock
from repro.oncrpc import message as msg
from repro.oncrpc.errors import RpcCircuitOpenError, RpcTransportError
from repro.oncrpc.transport import Transport
from repro.resilience.stats import ResilienceStats

#: xids for NULL probes, kept far from RpcClient's call xids
_PROBE_XIDS = itertools.count(0x7F000000)


def null_probe(prog: int, vers: int) -> Callable[[Transport], None]:
    """Build a NULLPROC liveness probe for :class:`ReconnectingTransport`.

    The returned callable sends procedure 0 of ``(prog, vers)`` on a
    freshly connected transport and waits for the matching reply.  NULL is
    the conventional ONC RPC ping: free of arguments and side effects, so
    probing with it -- rather than letting the first *real* (possibly
    non-idempotent) call be the half-open trial -- verifies the server is
    actually answering RPCs before the circuit breaker closes.
    """

    def probe(transport: Transport) -> None:
        xid = next(_PROBE_XIDS)
        call = msg.RpcMessage(xid, msg.CallBody(prog, vers, 0, args=b""))
        transport.send_record(call.encode())
        reply = msg.RpcMessage.decode(transport.recv_record())
        if reply.is_call or reply.xid != xid:
            raise RpcTransportError("NULL probe: mismatched reply")

    return probe


class CircuitBreaker:
    """Classic closed / open / half-open breaker over a virtual clock.

    ``FAILURE_THRESHOLD`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses until ``RESET_TIMEOUT_S`` of clock time
    has passed, after which one trial (half-open) is allowed.  A success
    closes the circuit and zeroes the failure count.
    """

    #: consecutive failures that open the circuit
    FAILURE_THRESHOLD = 5
    #: clock time the circuit stays open before a half-open trial
    RESET_TIMEOUT_S = 0.05

    def __init__(self, *, clock: SimClock | WallClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._consecutive_failures = 0
        self._open_until_ns: int | None = None
        #: lifetime count of transitions to the open state
        self.times_opened = 0
        #: round-trip time of the most recent successful probe, in ns
        self.last_probe_rtt_ns: int | None = None

    @property
    def state(self) -> str:
        """One of ``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._open_until_ns is None:
            return "closed"
        if self.clock.now_ns >= self._open_until_ns:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a connection attempt proceed right now?"""
        return self.state != "open"

    def record_failure(self) -> None:
        """Note a failed attempt; may open the circuit."""
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.FAILURE_THRESHOLD:
            self._open_until_ns = self.clock.now_ns + int(self.RESET_TIMEOUT_S * 1e9)
            self.times_opened += 1

    def record_success(self) -> None:
        """Note a success; closes the circuit."""
        self._consecutive_failures = 0
        self._open_until_ns = None

    def note_probe_rtt(self, rtt_ns: int) -> None:
        """Record the measured RTT of a successful probe.

        A breaker that closed on a 10-second probe success is not the
        same as a healthy one; the RTT lets callers (and the failover
        layer's health scoring) tell them apart.
        """
        self.last_probe_rtt_ns = rtt_ns


class ReconnectingTransport:
    """A transport that can be re-established after connection loss.

    Wraps a factory producing connected transports (typically
    ``lambda: TcpTransport(host, port, ...)``).  On any transport error the
    current connection is declared dead and closed; the retry loop in
    :class:`~repro.oncrpc.client.RpcClient` then calls :meth:`reconnect`
    before its next attempt.  The circuit breaker gates those attempts.
    The first connection is made when the transport is built.
    """

    def __init__(
        self,
        factory: Callable[[], Transport],
        *,
        clock: SimClock | WallClock | None = None,
        stats: ResilienceStats | None = None,
        probe: Callable[[Transport], None] | None = None,
    ) -> None:
        self._factory = factory
        self.breaker = CircuitBreaker(clock=clock)
        self.stats = stats if stats is not None else ResilienceStats()
        #: half-open trial run against a fresh connection before the
        #: breaker closes (see :func:`null_probe`); None accepts a bare
        #: TCP connect as proof of life
        self._probe = probe
        self._inner: Transport | None = self._factory()

    @property
    def connected(self) -> bool:
        """Whether a live connection is currently held."""
        return self._inner is not None

    def _require(self) -> Transport:
        if self._inner is None:
            raise RpcTransportError("not connected (reconnect required)")
        return self._inner

    def _drop(self) -> None:
        """Close and forget the live connection, if any."""
        if self._inner is not None:
            with contextlib.suppress(Exception):
                self._inner.close()
            self._inner = None

    def _mark_dead(self) -> None:
        self.breaker.record_failure()
        self._drop()

    def _probed(self, transport: Transport, probe) -> Transport:
        """``probe`` a fresh transport; it is closed if the probe fails.

        The one probe-after-connect step of reconnects, endpoint walks and
        hedged probe rounds; errors propagate unchanged.
        """
        if probe is not None:
            try:
                probe(transport)
            except Exception:
                with contextlib.suppress(Exception):
                    transport.close()
                raise
        return transport

    def send_record(self, record: bytes) -> None:
        """Send via the live connection; a failure kills the connection."""
        inner = self._require()
        try:
            inner.send_record(record)
        except RpcTransportError:
            self._mark_dead()
            raise

    def recv_record(self) -> bytes:
        """Receive via the live connection; a failure kills the connection."""
        inner = self._require()
        try:
            record = inner.recv_record()
        except RpcTransportError:
            self._mark_dead()
            raise
        self.breaker.record_success()
        return record

    def reconnect(self, *, force: bool = False) -> None:
        """Establish a fresh connection through the factory.

        ``force`` bypasses the circuit breaker and discards any live
        connection -- used by explicit operator-style recovery
        (:meth:`CricketClient.recover`) as opposed to the automatic retry
        loop.
        """
        if self._inner is not None:
            if not force:
                return  # still connected; nothing to do
            self._drop()
        if not force and not self.breaker.allow():
            raise RpcCircuitOpenError(
                "circuit breaker open: refusing to reconnect "
                f"(state {self.breaker.state!r})"
            )
        try:
            inner = self._probed(self._factory(), self._checked_probe)
        except RpcTransportError:
            self.breaker.record_failure()
            raise
        self._inner = inner
        self.breaker.record_success()
        self.stats.reconnects += 1

    def _checked_probe(self, transport: Transport) -> None:
        """The half-open trial of :meth:`reconnect` (if a probe is set)."""
        if self._probe is None:
            return
        started_ns = self.breaker.clock.now_ns
        try:
            self._probe(transport)
        except Exception as exc:
            # Connected but not answering RPCs: that is a failure for
            # breaker purposes, and the half-open trial stays cheap
            # instead of sacrificing a real (non-idempotent) call.
            raise RpcTransportError(f"reconnect probe failed: {exc}") from exc
        # A successful probe still carries information: its RTT.
        # Feed it to the breaker and stats so a breaker that closed
        # on a crawling probe is distinguishable from a healthy one.
        rtt_ns = self.breaker.clock.now_ns - started_ns
        self.breaker.note_probe_rtt(rtt_ns)
        self.stats.probe_rtt_last_ns = rtt_ns

    def close(self) -> None:
        """Close the live connection, if any."""
        if self._inner is not None:
            self._inner.close()
            self._inner = None
