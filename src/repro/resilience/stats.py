"""Counters for retries, reconnections and recoveries.

One :class:`ResilienceStats` instance is shared by a client's retry loop,
its (optional) fault-injecting transport and its reconnecting transport, so
a single object answers "what did resilience cost this workload?".  The
tracer (:mod:`repro.core.tracing`) renders these counters in its summary.

A counter is a dataclass field and nothing else: :meth:`as_dict` and
:meth:`reset` walk :func:`dataclasses.fields`, in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def _counters(stats: object, prefix: str = "") -> dict[str, int]:
    """Every ``int`` field of ``stats`` in declaration order, ``prefix``-ed."""
    return {
        prefix + f.name: getattr(stats, f.name) for f in fields(stats) if f.type == "int"
    }


def _zero(stats: object) -> None:
    for name in _counters(stats):
        setattr(stats, name, 0)


@dataclass
class ResilienceStats:
    """Mutable counter set describing one client's resilience activity."""

    retries: int = 0  #: retransmissions by the retry loop (excludes first attempts)
    timeouts: int = 0  #: failures classified as :class:`~repro.oncrpc.errors.RpcTimeoutError`
    reconnects: int = 0  #: successful transport reconnections
    recoveries: int = 0  #: full session recoveries (``CricketClient.recover``)
    stale_replies_discarded: int = 0  #: replies whose xid matched no outstanding call
    deadlines_exceeded: int = 0  #: calls abandoned because the virtual-time deadline budget ran out
    retries_exhausted: int = 0  #: calls that exhausted every retry attempt
    failovers: int = 0  #: endpoint failovers performed by ``FailoverTransport``
    crc_rejected: int = 0  #: records rejected client-side because their CRC32 trailer mismatched
    busy_rejections: int = 0  #: calls shed by the server with RPC_BUSY (each one triggers backoff)
    not_leader_rejections: int = 0  #: calls refused with RPC_NOT_LEADER by a fenced server
    leader_redirects: int = 0  #: endpoint rotations triggered by a not-leader refusal or redirect
    probe_rtt_last_ns: int = 0  #: round-trip time of the most recent reconnect probe (gauge, ns)
    hedged_probes: int = 0  #: hedged health-probe rounds raced across all endpoints
    endpoints_ejected: int = 0  #: endpoints ejected from rotation as statistical latency outliers
    endpoints_readmitted: int = 0  #: ejected endpoints re-admitted on probation after the hold
    #: faults injected by kind (filled by :class:`FaultInjectingTransport`)
    faults_injected: dict[str, int] = field(default_factory=dict)

    def note_fault(self, kind: str) -> None:
        """Record one injected fault of ``kind``."""
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        """Total faults injected across all kinds."""
        return sum(self.faults_injected.values())

    def as_dict(self) -> dict[str, int]:
        """Flat counter mapping (fault kinds prefixed ``fault.``)."""
        out = _counters(self)
        for kind, count in sorted(self.faults_injected.items()):
            out[f"fault.{kind}"] = count
        return out

    def reset(self) -> None:
        """Zero every counter (between experiment repetitions)."""
        _zero(self)
        self.faults_injected.clear()


@dataclass
class ServerStats:
    """Server-side counterpart of :class:`ResilienceStats`.

    One instance is shared by an :class:`~repro.oncrpc.server.RpcServer`
    (reply-cache behaviour) and its
    :class:`~repro.cricket.sessions.SessionManager` (session lifecycle and
    resource governance), so the simulation and the tracer see one
    coherent view of what the server did on behalf of all clients.
    Counters are prefixed ``server.`` in :meth:`as_dict` so they sit next
    to the client-side counters in a tracer summary without colliding.
    """

    reply_cache_hits: int = 0  #: retransmitted calls answered from the at-most-once reply cache
    reply_cache_evictions: int = 0  #: cache entries evicted by the entry-count or byte budget
    reply_cache_bytes: int = 0  #: bytes currently pinned by the reply cache (gauge, not a counter)
    sessions_opened: int = 0  #: sessions admitted (first call of a new client identity)
    sessions_expired: int = 0  #: leases that expired, moving the session to the orphaned state
    sessions_reclaimed: int = 0  #: orphaned sessions whose grace period lapsed; ledger freed
    sessions_reattached: int = 0  #: orphaned sessions reattached by a returning client within grace
    bytes_reclaimed: int = 0  #: device bytes returned to the allocator by orphan reclamation
    admission_denied: int = 0  #: new sessions refused (capacity reached or server draining)
    quota_denied: int = 0  #: allocations refused by the per-client device-memory quota
    drains_completed: int = 0  #: graceful drains that ran to completion
    replication_ops_shipped: int = 0  #: state-mutating records shipped to a standby (primary side)
    replication_ops_applied: int = 0  #: op-log records applied by a standby (standby side)
    replication_full_syncs: int = 0  #: full checkpoint syncs to a standby (first attach + resyncs)
    replication_lag: int = 0  #: primary_seq - applied_seq at the last ship (gauge; link-bounded)
    standby_promotions: int = 0  #: standbys promoted to primary after a failure
    device_failovers: int = 0  #: sessions migrated off a faulted GPU onto a healthy spare
    crc_rejected: int = 0  #: records rejected server-side because their CRC32 trailer mismatched
    overload_shed: int = 0  #: calls shed with RPC_BUSY by the server or per-client queue bound
    deadline_expired_in_queue: int = 0  #: calls refused/dropped: deadline expired before execution
    deadline_expired_in_execution: int = 0  #: deadline expired *while executing* (ran for nobody)
    cancelled_in_queue: int = 0  #: queued calls aborted by rpc_cancel before execution started
    cancelled_in_flight: int = 0  #: in-flight calls that saw their cancel token at a safe point
    queue_peak_depth: int = 0  #: high-water mark of the overload queue depth (gauge)
    paused_rejections: int = 0  #: calls shed with RPC_BUSY while serving was paused (stop-and-copy)
    checkpoint_generations_written: int = 0  #: checkpoint generations written (full + delta)
    checkpoint_deltas_written: int = 0  #: delta generations among those (the rest are fulls)
    checkpoint_bytes_written: int = 0  #: container bytes written across all generations
    checkpoint_fallbacks: int = 0  #: corrupt/torn generations skipped, falling back to an older one
    migration_rounds: int = 0  #: pre-copy rounds driven across all migrations
    migration_chunks_sent: int = 0  #: migration chunks shipped (first transmissions)
    migration_chunks_resent: int = 0  #: chunks re-shipped after a disconnect resume or CRC NAK
    migration_chunks_duplicate: int = 0  #: duplicate chunks the receiver dropped (idempotent)
    migration_resumes: int = 0  #: times a migration resumed from its cursor instead of restarting
    migration_pause_ns: int = 0  #: virtual nanoseconds spent paused in stop-and-copy windows
    migrations_completed: int = 0  #: migrations that reached cutover
    migrations_aborted: int = 0  #: migrations aborted with the source left serving
    sanitizer_oob_writes: int = 0  #: out-of-bounds writes detected (sticky context poison)
    sanitizer_oob_reads: int = 0  #: out-of-bounds reads detected (sticky context poison)
    sanitizer_use_after_free: int = 0  #: accesses to freed (quarantined) memory detected
    sanitizer_double_frees: int = 0  #: double frees caught by the quarantine
    sanitizer_redzone_hits: int = 0  #: redzone canaries found corrupted by wild device writes
    sanitizer_leaks_reported: int = 0  #: leaked allocations reported (with sites) at ledger release
    watchdog_hangs: int = 0  #: streams flagged hung by the kernel watchdog, handled by the ladder
    ladder_cooperative_cancels: int = 0  #: ladder rung 1: hung kernels cancelled cooperatively
    ladder_stream_aborts: int = 0  #: ladder rung 2: hard-hung streams aborted
    ladder_context_resets: int = 0  #: ladder rung 3: contexts reset (culprit-only device state)
    ladder_device_failovers: int = 0  #: ladder rung 4: devices failed over to protect co-tenants
    ladder_session_reclaims: int = 0  #: ladder rung 5: culprit sessions reclaimed to save a device
    fencing_leases_acquired: int = 0  #: leadership leases acquired from the witness (epoch bumps)
    fencing_leases_renewed: int = 0  #: leadership leases renewed before expiry (same epoch)
    fencing_leases_expired: int = 0  #: leases not renewed (witness unreachable or refused)
    fencing_self_fences: int = 0  #: times this server fenced itself off from mutations
    fencing_not_leader_sheds: int = 0  #: mutating calls refused with RPC_NOT_LEADER while fenced
    fencing_stale_epoch_rejections: int = 0  #: op-log ships rejected for carrying a stale epoch
    fencing_epoch: int = 0  #: current leadership epoch known to this server (gauge)
    brownout_entries: int = 0  #: times the server entered brownout (stage 0 -> degraded)
    brownout_exits: int = 0  #: times the server fully exited brownout (stage -> 0)
    brownout_sheds: int = 0  #: calls shed with RPC_BUSY specifically by brownout staging
    sweeps_suspended: int = 0  #: sanitizer sweeps skipped because the server was in brownout
    replication_demotions: int = 0  #: sync replication links demoted to async-lagged for limping
    ladder_preemptive_failovers: int = 0  #: ladder rung 0: degraded devices failed over early

    def as_dict(self) -> dict[str, int]:
        """Flat counter mapping, ``server.``-prefixed for tracer merging."""
        return _counters(self, "server.")

    def reset(self) -> None:
        """Zero every counter (between experiment repetitions)."""
        _zero(self)
