"""Server-side session lifecycle and resource governance.

The Cricket server is long-lived and shared: every unikernel client parks
device memory, streams, events, modules and library handles in it.  PR 1
hardened the *client* side of that relationship (retry, reconnect,
at-most-once); this module hardens the *server* side, because a client
that crashes mid-run would otherwise leak its GPU state forever.

Three cooperating pieces:

* :class:`ResourceLedger` -- per-session record of every server-side
  resource a client created, precise enough to free all of it.
* :class:`Session` -- one client identity (the PR-1 ``AUTH_CLIENT_TOKEN``)
  with a renewable lease.  The state machine is
  ``active -> orphaned -> reclaimed``: an expired lease orphans the
  session; a returning client (``CricketClient.recover()`` / ``ping``)
  within the grace period *reattaches* and keeps its ledger; once grace
  lapses the ledger is released back to the device.
* :class:`SessionManager` -- the table plus the reaper, admission control
  (max concurrent sessions, refusal while draining) and the per-client
  device-memory quota enforced by ``rpc_cudaMalloc``.

Time comes from the server's clock (:class:`~repro.net.simclock.SimClock`
in experiments, :class:`~repro.net.simclock.WallClock` for real serving),
so lease arithmetic is deterministic in tests.  Leases are *opt-in*:
``lease_s=None`` (the default) keeps sessions immortal, preserving the
semantics every pre-existing workload was written against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.cricket.spec import LEDGER_KINDS
from repro.cuda import constants as C
from repro.resilience.stats import ServerStats

#: session states (the lease state machine)
ACTIVE = "active"
ORPHANED = "orphaned"
RECLAIMED = "reclaimed"  # terminal; reclaimed sessions leave the table

#: ``rpc_ping`` lease-remaining value when leases are disabled
LEASE_FOREVER = 0xFFFF_FFFF_FFFF_FFFF


class ResourceLedger:
    """Everything one session owns on the server, one table per kind.

    ``tables[kind]`` (kinds: :data:`~repro.cricket.spec.LEDGER_KINDS`)
    maps a handle or device pointer to the ordinal of the device it lives
    on -- resources are per-device, and a client may have called
    ``cudaSetDevice`` between creations.  Allocations map to
    ``(ordinal, requested size)`` instead, for quota accounting.
    """

    def __init__(self, state: dict[str, Any] | None = None) -> None:
        state = state or {}
        self.tables: dict[str, dict] = {
            kind: dict(state.get(kind, {})) for kind in LEDGER_KINDS
        }

    @property
    def allocations(self) -> dict[int, tuple[int, int]]:
        """Device pointer -> (device ordinal, requested size)."""
        return self.tables["allocations"]

    @property
    def allocated_bytes(self) -> int:
        """Sum of requested allocation sizes (the quota measure)."""
        return sum(size for _, size in self.allocations.values())

    @property
    def total_entries(self) -> int:
        """Number of resources of any kind in the ledger."""
        return sum(map(len, self.tables.values()))

    def entries_on(self, ordinal: int) -> list[tuple[str, int]]:
        """``(kind, key)`` of every entry on device ``ordinal``."""
        return [
            (kind, key)
            for kind, table in self.tables.items()
            for key, value in table.items()
            if (value[0] if isinstance(value, tuple) else value) == ordinal
        ]

    def drop_device(self, ordinal: int) -> None:
        """Forget every entry on ``ordinal`` (after ``cudaDeviceReset``)."""
        for kind, key in self.entries_on(ordinal):
            del self.tables[kind][key]

    def clear(self) -> None:
        """Forget every entry (the resources were released)."""
        for table in self.tables.values():
            table.clear()

    def as_state(self) -> dict[str, Any]:
        """Plain-dict form for the checkpoint blob; ``ResourceLedger(state)``
        rebuilds the ledger."""
        return {kind: dict(table) for kind, table in self.tables.items()}


@dataclass
class Session:
    """One client identity's lease and resource ownership."""

    identity: str
    state: str = ACTIVE
    ledger: ResourceLedger = field(default_factory=ResourceLedger)
    created_ns: int = 0
    renewed_ns: int = 0
    #: absolute expiry of the current lease (None = leases disabled)
    lease_expires_ns: int | None = None
    #: absolute end of the orphan grace period (set on expiry)
    grace_expires_ns: int | None = None

    def lease_remaining_ns(self, now_ns: int) -> int:
        """Nanoseconds of lease left (``LEASE_FOREVER`` when disabled)."""
        if self.lease_expires_ns is None:
            return LEASE_FOREVER
        return max(0, self.lease_expires_ns - now_ns)


class SessionManager:
    """Session table, lease reaper, admission control and quotas.

    Not internally locked: the Cricket implementation serializes every
    procedure (and therefore every call into this manager) behind its own
    dispatch lock, exactly like the resource executors it governs.
    """

    def __init__(
        self,
        *,
        lease_s: float | None = None,
        grace_s: float = 5.0,
        max_sessions: int | None = None,
        memory_quota_bytes: int | None = None,
        stats: ServerStats | None = None,
    ) -> None:
        if lease_s is not None and lease_s <= 0:
            raise ValueError("lease_s must be positive (or None to disable)")
        if grace_s < 0:
            raise ValueError("grace_s cannot be negative")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 (or None for unlimited)")
        if memory_quota_bytes is not None and memory_quota_bytes < 0:
            raise ValueError("memory_quota_bytes cannot be negative")
        self.lease_s = lease_s
        self.grace_s = grace_s
        self.max_sessions = max_sessions
        self.memory_quota_bytes = memory_quota_bytes
        self.stats = stats if stats is not None else ServerStats()
        #: refuse new sessions while a graceful drain is in progress
        self.draining = False
        #: freeze the lease state machine (set by a leadership fence): a
        #: fenced ex-primary must not reclaim sessions -- and free their
        #: device memory -- while its clients are busy migrating to the
        #: new leader.  Heartbeats still renew; only reaping stops.
        self.reaping_paused = False
        self._sessions: dict[str, Session] = {}

    # -- inspection --------------------------------------------------------

    def lookup(self, identity: str) -> Session | None:
        """The session for ``identity``, if one exists (any state)."""
        return self._sessions.get(identity)

    def sessions(self) -> tuple[Session, ...]:
        """All live sessions (active and orphaned)."""
        return tuple(self._sessions.values())

    @property
    def session_count(self) -> int:
        """Sessions currently in the table (active + orphaned)."""
        return len(self._sessions)

    # -- lease lifecycle ---------------------------------------------------

    def _lease_expiry(self, now_ns: int) -> int | None:
        if self.lease_s is None:
            return None
        return now_ns + int(self.lease_s * 1e9)

    def open(self, identity: str, now_ns: int) -> tuple[Session | None, int]:
        """Create-or-renew the session for ``identity``.

        Returns ``(session, 0)`` on success.  A brand-new identity passes
        admission control first; refusal returns ``(None, cuda_error)``
        with the error the calling procedure should surface.
        """
        session = self._sessions.get(identity)
        if session is not None:
            self.renew(identity, now_ns)
            return session, 0
        if self.draining:
            self.stats.admission_denied += 1
            return None, C.cudaErrorDevicesUnavailable
        if self.max_sessions is not None and len(self._sessions) >= self.max_sessions:
            self.stats.admission_denied += 1
            return None, C.cudaErrorDevicesUnavailable
        session = Session(
            identity=identity,
            created_ns=now_ns,
            renewed_ns=now_ns,
            lease_expires_ns=self._lease_expiry(now_ns),
        )
        self._sessions[identity] = session
        self.stats.sessions_opened += 1
        return session, 0

    def renew(self, identity: str, now_ns: int) -> Session | None:
        """Heartbeat: extend the lease; reattach an orphaned session.

        Any RPC from a known identity counts as a heartbeat -- a busy
        client never expires.  An orphaned session seen again within its
        grace period snaps back to *active* with its ledger intact (this
        is what makes ``CricketClient.recover()`` lossless).
        """
        session = self._sessions.get(identity)
        if session is None:
            return None
        if session.state == ORPHANED:
            session.state = ACTIVE
            session.grace_expires_ns = None
            self.stats.sessions_reattached += 1
        session.renewed_ns = now_ns
        session.lease_expires_ns = self._lease_expiry(now_ns)
        return session

    def mark_disconnected(self, identities: Iterable[str], now_ns: int) -> None:
        """Note that a transport carrying these identities dropped.

        With leases enabled this fast-tracks the sessions to *orphaned*
        (the disconnect is a stronger signal than a silent lease expiry);
        the grace period still applies, so a reconnecting client can
        reattach.  With leases disabled it is a no-op -- the historical
        behaviour of ``RpcServer._on_disconnect``.
        """
        if self.lease_s is None:
            return
        for identity in identities:
            session = self._sessions.get(identity)
            if session is not None and session.state == ACTIVE:
                self._orphan(session, now_ns)

    def _orphan(self, session: Session, now_ns: int) -> None:
        session.state = ORPHANED
        session.grace_expires_ns = now_ns + int(self.grace_s * 1e9)
        self.stats.sessions_expired += 1

    def reap(
        self, now_ns: int, release: Callable[[ResourceLedger], int] | None = None
    ) -> int:
        """Advance the lease state machine; returns bytes reclaimed.

        Active sessions whose lease expired become *orphaned* (grace
        countdown starts).  Orphaned sessions whose grace lapsed are
        *reclaimed*: ``release(ledger)`` frees every resource and reports
        how many device bytes came back.
        """
        if self.lease_s is None or self.reaping_paused:
            return 0
        reclaimed_bytes = 0
        for identity in list(self._sessions):
            session = self._sessions[identity]
            if (
                session.state == ACTIVE
                and session.lease_expires_ns is not None
                and now_ns >= session.lease_expires_ns
            ):
                self._orphan(session, now_ns)
            if (
                session.state == ORPHANED
                and session.grace_expires_ns is not None
                and now_ns >= session.grace_expires_ns
            ):
                freed = release(session.ledger) if release is not None else 0
                reclaimed_bytes += freed
                self.stats.bytes_reclaimed += freed
                self.stats.sessions_reclaimed += 1
                del self._sessions[identity]
        return reclaimed_bytes

    # -- admission / quota -------------------------------------------------

    def check_quota(self, session: Session | None, size: int) -> int:
        """Pre-flight a ``cudaMalloc`` against the per-client quota.

        Returns 0 (allowed) or ``cudaErrorMemoryAllocation`` -- the proper
        CUDA out-of-memory verdict -- when the session's total footprint
        would exceed the quota.
        """
        if session is None or self.memory_quota_bytes is None:
            return 0
        if session.ledger.allocated_bytes + max(int(size), 0) > self.memory_quota_bytes:
            self.stats.quota_denied += 1
            return C.cudaErrorMemoryAllocation
        return 0

    def evict(self, identity: str) -> Session | None:
        """Forcibly remove a session from the table (recovery backstop).

        Used by the recovery ladder's last rung: the culprit tenant's
        session is expelled so the device can be rebuilt for everyone
        else.  The caller is responsible for releasing the ledger first.
        Returns the evicted session, or None if the identity was unknown.
        """
        session = self._sessions.pop(identity, None)
        if session is not None:
            self.stats.sessions_reclaimed += 1
        return session

    # -- cross-session bookkeeping ----------------------------------------

    def forget(self, kind: str, key: int) -> None:
        """Remove ``key`` from every session's ``kind`` table.

        Used when a resource is explicitly destroyed through the API, so
        a later reclaim does not double-free it.  Scanning all sessions
        (rather than only the caller's) keeps the ledgers honest even if
        clients share handles out of band.
        """
        for session in self._sessions.values():
            session.ledger.tables[kind].pop(key, None)

    def drop_device(self, ordinal: int) -> None:
        """Purge every ledger's entries for one device (device reset)."""
        for session in self._sessions.values():
            session.ledger.drop_device(ordinal)

    # -- checkpoint integration --------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Serializable session table for the server checkpoint blob."""
        return {
            identity: {
                "state": session.state,
                "created_ns": session.created_ns,
                "ledger": session.ledger.as_state(),
            }
            for identity, session in self._sessions.items()
        }

    def restore_state(self, state: dict[str, Any], now_ns: int) -> None:
        """Rebuild the session table from a checkpoint.

        Every restored session comes back *active* with a fresh lease
        anchored at ``now_ns`` -- the checkpoint's absolute expiry times
        belong to the old server's timeline and would orphan everyone
        immediately.
        """
        self._sessions.clear()
        for identity, entry in state.items():
            self._sessions[identity] = Session(
                identity=identity,
                state=ACTIVE,
                ledger=ResourceLedger(entry.get("ledger")),
                created_ns=entry.get("created_ns", now_ns),
                renewed_ns=now_ns,
                lease_expires_ns=self._lease_expiry(now_ns),
            )
