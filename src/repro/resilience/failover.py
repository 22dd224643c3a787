"""Transparent client failover across a list of server endpoints.

The client half of high availability: a
:class:`FailoverTransport` holds an ordered endpoint list (primary first,
standbys after) and, whenever a reconnect is needed, walks the list from
the currently active endpoint until one accepts a connection *and* passes
the liveness probe.  Rotating to a different endpoint counts as a
failover in :class:`~repro.resilience.stats.ResilienceStats`.

Everything above this layer is unchanged: the RPC client's retry loop
sees the same ``reconnect()`` it already drives, the
``AUTH_CLIENT_TOKEN`` identity rides in every request, and the standby's
replicated reply cache answers retransmitted in-flight calls -- so a
primary crash mid-call (even *after* executing a non-idempotent
procedure) is absorbed without double execution.

:class:`LoopbackEndpoint` adapts an in-process server for deterministic
failover tests, including the dangerous crash window:
``kill_after_next_execute()`` executes (and replicates) the next call,
then crashes *before the reply leaves* -- the worst case for
at-most-once (``server.kill()`` is an immediate crash).
"""

from __future__ import annotations

import contextlib
from typing import Callable

from repro.net.simclock import SimClock, WallClock
from repro.oncrpc.errors import RpcTransportError
from repro.oncrpc.transport import (
    DEFAULT_FRAGMENT_SIZE,
    LoopbackTransport,
    TcpTransport,
    Transport,
    TransportMeter,
)
from repro.resilience.health import EjectionDecision, HealthTracker, OutlierEjector
from repro.resilience.reconnect import ReconnectingTransport
from repro.resilience.stats import ResilienceStats


class LoopbackEndpoint:
    """An in-process server as a connectable (and killable) endpoint."""

    def __init__(
        self,
        server,
        *,
        name: str = "server",
        fragment_size: int = DEFAULT_FRAGMENT_SIZE,
        meter: TransportMeter | None = None,
        on_connect: Callable[["LoopbackEndpoint"], None] | None = None,
        link=None,
        client_name: str = "client",
    ) -> None:
        self.server = server
        self.name = name
        self.fragment_size = fragment_size
        self.meter = meter
        #: called on every successful :meth:`connect` -- the promotion
        #: hook: the current standby of an HA pair promotes itself when a
        #: failing-over client arrives (:meth:`HaPair.on_connect`)
        self.on_connect = on_connect
        #: connectivity oracle with ``allowed(src, dst)`` (a
        #: :class:`~repro.resilience.faults.PartitionState`); ``None``
        #: means always reachable.  Requests are checked in the
        #: ``client_name -> name`` direction, replies in the reverse --
        #: an asymmetric cut can therefore execute a call and lose only
        #: the reply, the worst case for at-most-once.
        self.link = link
        self.client_name = client_name
        self._die_after_next_execute = False
        #: connections handed out (first connect vs failover is visible)
        self.connects = 0

    def kill_after_next_execute(self) -> None:
        """Crash *after* executing the next call but before replying.

        This is the at-most-once dangerous window: the call's effects (and
        its replication to the standby) have happened, the client only
        sees a dead connection and must retransmit -- to whoever answers.
        """
        self._die_after_next_execute = True

    def _request_reachable(self) -> bool:
        return self.link is None or self.link.allowed(self.client_name, self.name)

    def _reply_reachable(self) -> bool:
        return self.link is None or self.link.allowed(self.name, self.client_name)

    def connect(self) -> Transport:
        if self.server.killed:
            raise RpcTransportError(f"endpoint {self.name!r} is down")
        if not self._request_reachable():
            raise RpcTransportError(
                f"partition: {self.client_name!r} cannot reach {self.name!r}"
            )
        self.connects += 1
        if self.on_connect is not None:
            self.on_connect(self)
        session: dict = {}

        def dispatch(record: bytes) -> bytes | None:
            if not self._request_reachable():
                raise RpcTransportError(
                    f"partition: request from {self.client_name!r} lost "
                    f"before {self.name!r}"
                )
            if self._die_after_next_execute:
                self._die_after_next_execute = False
                self.server.dispatch_record(record, session=session)
                self.server.kill()
                raise RpcTransportError(
                    f"endpoint {self.name!r} crashed before replying"
                )
            reply = self.server.dispatch_record(record, session=session)
            if not self._reply_reachable():
                # The call *executed*; only the reply is lost.  The client
                # must retransmit and rely on at-most-once to deduplicate.
                raise RpcTransportError(
                    f"partition: reply from {self.name!r} lost before "
                    f"{self.client_name!r}"
                )
            return reply

        return LoopbackTransport(
            dispatch, fragment_size=self.fragment_size, meter=self.meter,
            land=self.server.land,
        )


class TcpEndpoint:
    """A real ``host:port`` endpoint for :class:`FailoverTransport`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: str | None = None,
        fragment_size: int = DEFAULT_FRAGMENT_SIZE,
        connect_timeout: float | None = 5.0,
        io_timeout: float | None = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name if name is not None else f"{host}:{port}"
        self.fragment_size = fragment_size
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout

    def connect(self) -> Transport:
        return TcpTransport(
            self.host,
            self.port,
            fragment_size=self.fragment_size,
            connect_timeout=self.connect_timeout,
            io_timeout=self.io_timeout,
        )


class FailoverTransport(ReconnectingTransport):
    """A reconnecting transport that rotates through server endpoints.

    On every (re)connect the endpoint list is walked starting from the
    active endpoint; the first one that connects and passes ``probe``
    wins (one that refused the last call as a non-leader skips the
    probe: it just answered).  The probe runs *per endpoint inside the walk* (unlike the base
    class's post-factory probe) so a reachable-but-dead server rotates to
    the next endpoint instead of failing the whole reconnect.

    The transport is additionally *epoch aware*: fenced HA servers stamp
    every reply verf with their leadership epoch (``AUTH_LEADER_EPOCH``),
    and an ``RPC_NOT_LEADER`` refusal marks the refusing endpoint stale.
    Stale endpoints are skipped on rotation -- a healed old primary does
    not get mutations routed back to it -- until they either prove they
    lead at the newest known epoch or every other endpoint is down.

    With an :class:`~repro.resilience.health.OutlierEjector` attached,
    the transport also detects *gray* failures: :meth:`probe_endpoints`
    races the liveness probe against every endpoint, records each RTT in
    a per-endpoint :class:`~repro.resilience.health.HealthTracker`, and
    ejects statistical latency outliers from rotation the same way stale
    leaders are skipped -- with the same availability fallback when
    nothing else is reachable.
    """

    def __init__(
        self,
        endpoints,
        *,
        clock: SimClock | WallClock | None = None,
        stats: ResilienceStats | None = None,
        probe: Callable[[Transport], None] | None = None,
        ejector: OutlierEjector | None = None,
    ) -> None:
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.endpoints = endpoints
        self._active = 0
        self._endpoint_probe = probe
        #: newest leadership epoch seen in any ``AUTH_LEADER_EPOCH`` verf
        self.known_epoch = 0
        #: endpoint index -> epoch at which it refused us as a non-leader;
        #: stale endpoints are skipped on rotation until they prove
        #: leadership again (or every other endpoint is unreachable)
        self._stale: dict[int, int] = {}
        #: endpoint name -> latency tracker, fed by :meth:`probe_endpoints`
        self.health: dict[str, HealthTracker] = {}
        #: statistical outlier ejection over :attr:`health`; None disables
        self.ejector = ejector
        #: endpoint index whose ``RPC_NOT_LEADER`` refused the last call: it
        #: answered one attempt ago, so the next walk reconnects to it
        #: without a probe
        self._refused: int | None = None
        super().__init__(self._connect_some_endpoint, clock=clock, stats=stats)

    @property
    def active_endpoint(self):
        """The endpoint the current (or next) connection targets."""
        return self.endpoints[self._active]

    def observe_leader(self, info) -> None:
        """Record leadership state carried in a reply verifier.

        Fed by :class:`~repro.oncrpc.client.RpcClient` for every reply
        whose verf decodes as ``AUTH_LEADER_EPOCH``.  The epoch is
        monotonic; an endpoint that proves it leads at the newest known
        epoch sheds any staleness mark it carried.
        """
        if info.epoch > self.known_epoch:
            self.known_epoch = info.epoch
        if info.leader and info.epoch >= self.known_epoch:
            self._stale.pop(self._active, None)

    def note_not_leader(self, info) -> None:
        """React to ``RPC_NOT_LEADER``: mark stale, drop, rotate.

        The refusing server answered, so it is alive -- the connection is
        closed *without* charging the circuit breaker.  Dropping it
        matters: the retry loop's ``reconnect()`` is a no-op while a
        connection is held, and rotation only happens inside reconnect.
        When the refusal names the actual leader, the next attempt goes
        straight there instead of walking the ring.
        """
        if info is not None and info.epoch > self.known_epoch:
            self.known_epoch = info.epoch
        self._stale[self._active] = self.known_epoch
        self._refused = self._active
        self.stats.leader_redirects += 1
        self._drop()
        hint = info.hint if info is not None else ""
        if hint:
            for idx, endpoint in enumerate(self.endpoints):
                if idx != self._active and getattr(endpoint, "name", "") == hint:
                    self._active = idx
                    return
        self._active = (self._active + 1) % len(self.endpoints)

    def _endpoint_key(self, idx: int) -> str:
        name = getattr(self.endpoints[idx], "name", None)
        return name if name else f"endpoint{idx}"

    def endpoint_health(self, idx: int) -> HealthTracker:
        """The latency tracker for endpoint ``idx`` (created on demand)."""
        key = self._endpoint_key(idx)
        tracker = self.health.get(key)
        if tracker is None:
            tracker = HealthTracker(key)
            self.health[key] = tracker
        return tracker

    def _is_ejected(self, idx: int) -> bool:
        return self.ejector is not None and self.ejector.is_ejected(
            self._endpoint_key(idx)
        )

    def probe_endpoints(self) -> EjectionDecision | None:
        """Race the liveness probe against every endpoint and score them.

        The hedged probe round: each endpoint gets a fresh connection and
        one probe, its round-trip charged to the shared clock and recorded
        in its tracker.  (Sequential probing over virtual time is the
        deterministic equivalent of racing: each RTT is measured from its
        own start.)  Endpoints that fail hard are simply skipped -- the
        breaker/rotation path already handles dead servers; this path
        exists for the alive-but-limping ones.  With an ejector attached,
        one evaluation round then ejects statistical outliers from
        rotation and re-admits any whose probation expired.
        """
        self.stats.hedged_probes += 1
        clock = self.breaker.clock
        for idx, endpoint in enumerate(self.endpoints):
            tracker = self.endpoint_health(idx)
            started_ns = clock.now_ns
            try:
                transport = self._probed(endpoint.connect(), self._endpoint_probe)
            except Exception:
                continue
            with contextlib.suppress(Exception):
                transport.close()
            tracker.record(clock.now_ns - started_ns)
        if self.ejector is None:
            return None
        decision = self.ejector.evaluate(self.health)
        self.stats.endpoints_ejected += len(decision.ejected)
        self.stats.endpoints_readmitted += len(decision.readmitted)
        if decision.ejected and self._is_ejected(self._active):
            # Connected to a limper: drop the connection so the retry
            # loop's next reconnect() walks past the ejected endpoint.
            self._drop()
        return decision

    def _connect_some_endpoint(self) -> Transport:
        """Connect to the first endpoint, from the active one on, that answers.

        Stale and ejected endpoints are skipped unless every other one is
        unreachable: availability wins then -- a limping server beats no
        server, and a formerly fenced one may have re-acquired leadership
        (if it is still fenced its RPC_NOT_LEADER answer re-marks it).
        An endpoint whose connect failed is not dialled again in the same
        walk, and the one that just refused a call as a non-leader is
        reconnected without a probe: it answered one attempt ago.
        """
        refused, self._refused = self._refused, None
        unfit = self._stale or (self.ejector is not None and self.ejector.ejected_names)
        count = len(self.endpoints)
        dead: set[int] = set()
        last_exc: Exception | None = None
        for skip_unfit in (True, False) if unfit else (False,):
            for step in range(count):
                idx = (self._active + step) % count
                if idx in dead or (
                    skip_unfit and (idx in self._stale or self._is_ejected(idx))
                ):
                    continue
                try:
                    transport = self.endpoints[idx].connect()
                except Exception as exc:
                    dead.add(idx)
                    last_exc = exc
                    continue
                if idx != refused:
                    try:
                        self._probed(transport, self._endpoint_probe)
                    except Exception as exc:
                        last_exc = exc
                        continue
                if idx != self._active:
                    self._active = idx
                    self.stats.failovers += 1
                return transport
        raise RpcTransportError(f"all {count} endpoint(s) unreachable") from last_exc
