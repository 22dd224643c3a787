"""Server-side session lifecycle and resource governance.

The Cricket server is long-lived and shared: every unikernel client parks
device memory, streams, events, modules and library handles in it.  PR 1
hardened the *client* side of that relationship (retry, reconnect,
at-most-once); this module hardens the *server* side, because a client
that crashes mid-run would otherwise leak its GPU state forever.

Three cooperating pieces:

* :class:`ResourceLedger` -- the server's one record of every server-side
  resource a client created, keyed ``(kind, device, handle)`` and naming
  its owner: precise enough to free all of one tenant's resources, on
  every device.
* :class:`Session` -- one client identity (the PR-1 ``AUTH_CLIENT_TOKEN``)
  with a renewable lease.  The state machine is
  ``active -> orphaned -> reclaimed``: an expired lease orphans the
  session; a returning client (``CricketClient.recover()`` / ``ping``)
  within the grace period *reattaches* and keeps its resources; once grace
  lapses everything the identity holds is released back to the devices.
* :class:`SessionManager` -- the table and the ledger, plus the reaper,
  admission control (max concurrent sessions, refusal while draining) and
  the per-client device-memory quota enforced by ``rpc_cudaMalloc``.

Time comes from the server's clock (:class:`~repro.net.simclock.SimClock`
in experiments, :class:`~repro.net.simclock.WallClock` for real serving),
so lease arithmetic is deterministic in tests.  Leases are *opt-in*:
``lease_s=None`` (the default) keeps sessions immortal, preserving the
semantics every pre-existing workload was written against.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """One entry per live server-side resource, keyed the way CUDA keys it:
    ``(kind, ordinal, key)`` -- the ledger kind
    (:data:`~repro.cricket.spec.LEDGER_KINDS`), the device and the handle or
    device pointer, since every device hands out the same first ones.  An
    entry names its owner identity and, for an allocation, the requested
    size (the quota measure).  Entries are indexed by device, then owner, in
    creation order, so no question the server asks walks the sessions.
    """

    def __init__(self) -> None:
        #: (kind, ordinal, key) -> owner identity
        self._owner: dict[tuple[str, int, int], str] = {}
        #: ordinal -> owner -> {(kind, key): requested size, 0 unless an
        #: allocation}, in creation order
        self._held: dict[int, dict[str, dict[tuple[str, int], int]]] = {}

    def record(self, owner: str, kind: str, ordinal: int, key: int, size: int) -> None:
        """Enter a created resource under ``owner`` (``size`` 0 unless an
        allocation)."""
        if self._owner.get((kind, ordinal, key), owner) != owner:
            self.forget(kind, ordinal, key)
        self._owner[kind, ordinal, key] = owner
        self._held.setdefault(ordinal, {}).setdefault(owner, {})[kind, key] = size

    def forget(self, kind: str, ordinal: int, key: int) -> None:
        """Remove the entry of a destroyed resource, whoever owned it."""
        owner = self._owner.pop((kind, ordinal, key), None)
        if owner is not None:
            held = self._held[ordinal]
            del held[owner][kind, key]
            if not held[owner]:
                del held[owner]

    def owner_of(self, kind: str, ordinal: int, key: int) -> str:
        """The identity that created the resource ("" if none did)."""
        return self._owner.get((kind, ordinal, key), "")

    def owners_on(self, ordinal: int) -> set[str]:
        """Identities holding any resource on device ``ordinal``."""
        return set(self._held.get(ordinal, ()))

    def held_by(self, owner: str) -> dict[tuple[str, int, int], int]:
        """``owner``'s entries: ``(kind, ordinal, key)`` -> requested size."""
        return {
            (kind, ordinal, key): size
            for ordinal, held in self._held.items()
            for (kind, key), size in held.get(owner, {}).items()
        }

    def bytes_held(self, owner: str) -> int:
        """Sum of ``owner``'s requested allocation sizes."""
        return sum(sum(held.get(owner, {}).values()) for held in self._held.values())

    def drop_device(self, ordinal: int) -> None:
        """Forget every entry on ``ordinal`` (after a device reset)."""
        for held in self._held.pop(ordinal, {}).values():
            for kind, key in held:
                del self._owner[kind, ordinal, key]

    def release(self, owner: str) -> dict[tuple[str, int, int], int]:
        """Forget and return all of ``owner``'s entries (as :meth:`held_by`)."""
        entries = self.held_by(owner)
        for kind, ordinal, key in entries:
            self.forget(kind, ordinal, key)
        return entries

    def state_of(self, owner: str, ordinal: int) -> dict[str, dict]:
        """``owner``'s entries on ``ordinal`` in the checkpoint's shape:
        ``{kind: {key: ordinal}}`` in creation order, an allocation's value
        ``(ordinal, size)``."""
        state: dict[str, dict] = {kind: {} for kind in LEDGER_KINDS}
        for (kind, key), size in self._held.get(ordinal, {}).get(owner, {}).items():
            state[kind][key] = (ordinal, size) if kind == "allocations" else ordinal
        return state

    def restore(self, owner: str, state: dict[str, dict]) -> None:
        """Enter the entries of a :meth:`state_of` under ``owner``."""
        for kind, table in state.items():
            for key, value in table.items():
                ordinal, size = value if kind == "allocations" else (value, 0)
                self.record(owner, kind, ordinal, key, size)


@dataclass
class Session:
    """One client identity's lease."""

    identity: str
    state: str = ACTIVE
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
    """Session table, resource ledger, lease reaper, admission control and
    quotas.

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
        #: every live resource any session created
        self.ledger = ResourceLedger()

    # -- inspection --------------------------------------------------------

    def lookup(self, identity: str) -> Session | None:
        """The session for ``identity``, if one exists (any state)."""
        return self._sessions.get(identity)

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

    def reap(self, now_ns: int, release: Callable[[str], int] | None = None) -> int:
        """Advance the lease state machine; returns bytes reclaimed.

        Active sessions whose lease expired become *orphaned* (grace
        countdown starts).  Orphaned sessions whose grace lapsed are
        *reclaimed*: ``release(identity)`` frees every resource the identity
        holds and reports how many device bytes came back.
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
                freed = release(identity) if release is not None else 0
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
        held = self.ledger.bytes_held(session.identity)
        if held + max(int(size), 0) > self.memory_quota_bytes:
            self.stats.quota_denied += 1
            return C.cudaErrorMemoryAllocation
        return 0

    def evict(self, identity: str) -> Session | None:
        """Forcibly remove a session from the table (recovery backstop).

        Used by the recovery ladder's last rung: the culprit tenant's
        session is expelled so the device can be rebuilt for everyone
        else.  The caller frees what the identity holds in the ledger.
        Returns the evicted session, or None if the identity was unknown.
        """
        session = self._sessions.pop(identity, None)
        if session is not None:
            self.stats.sessions_reclaimed += 1
        return session

    # -- checkpoint integration --------------------------------------------

    def snapshot_state(self, ordinal: int) -> dict[str, Any]:
        """Serializable session table for the server checkpoint blob, with
        each session's ledger entries on device ``ordinal`` (the device a
        checkpoint captures)."""
        return {
            identity: {
                "state": session.state,
                "created_ns": session.created_ns,
                "ledger": self.ledger.state_of(identity, ordinal),
            }
            for identity, session in self._sessions.items()
        }

    def restore_state(self, state: dict[str, Any], now_ns: int) -> None:
        """Rebuild the session table from a checkpoint.

        Every restored session comes back *active* with a fresh lease
        anchored at ``now_ns`` -- the checkpoint's absolute expiry times
        belong to the old server's timeline and would orphan everyone
        immediately.  The ledger is replaced by the checkpoint's.
        """
        self._sessions.clear()
        self.ledger = ResourceLedger()
        for identity, entry in state.items():
            self.ledger.restore(identity, entry.get("ledger", {}))
            self._sessions[identity] = Session(
                identity=identity,
                state=ACTIVE,
                created_ns=entry.get("created_ns", now_ns),
                renewed_ns=now_ns,
                lease_expires_ns=self._lease_expiry(now_ns),
            )
