"""Counters for retries, reconnections and recoveries.

One :class:`ResilienceStats` instance is shared by a client's retry loop,
its (optional) fault-injecting transport and its reconnecting transport, so
a single object answers "what did resilience cost this workload?".  The
tracer (:mod:`repro.core.tracing`) renders these counters in its summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResilienceStats:
    """Mutable counter set describing one client's resilience activity."""

    #: retransmissions performed by the retry loop (excludes first attempts)
    retries: int = 0
    #: failures classified as timeouts (:class:`~repro.oncrpc.errors.RpcTimeoutError`)
    timeouts: int = 0
    #: successful transport reconnections
    reconnects: int = 0
    #: full session recoveries (:meth:`~repro.cricket.client.CricketClient.recover`)
    recoveries: int = 0
    #: replies discarded because their xid matched no outstanding call
    stale_replies_discarded: int = 0
    #: calls abandoned because the virtual-time deadline budget ran out
    deadlines_exceeded: int = 0
    #: calls that exhausted every retry attempt
    retries_exhausted: int = 0
    #: endpoint failovers performed by :class:`~repro.resilience.failover.FailoverTransport`
    failovers: int = 0
    #: records rejected client-side because their CRC32 trailer mismatched
    crc_rejected: int = 0
    #: calls shed by the server with RPC_BUSY (each one triggers backoff)
    busy_rejections: int = 0
    #: calls refused with RPC_NOT_LEADER by a fenced server
    not_leader_rejections: int = 0
    #: endpoint rotations triggered by a not-leader refusal or redirect
    leader_redirects: int = 0
    #: round-trip time of the most recent reconnect probe (gauge, ns)
    probe_rtt_last_ns: int = 0
    #: probe successes whose RTT exceeded the breaker's slow threshold
    slow_probes: int = 0
    #: hedged health-probe rounds raced across all endpoints
    hedged_probes: int = 0
    #: endpoints ejected from rotation as statistical latency outliers
    endpoints_ejected: int = 0
    #: ejected endpoints re-admitted on probation after the hold expired
    endpoints_readmitted: int = 0
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
        out = {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "reconnects": self.reconnects,
            "recoveries": self.recoveries,
            "stale_replies_discarded": self.stale_replies_discarded,
            "deadlines_exceeded": self.deadlines_exceeded,
            "retries_exhausted": self.retries_exhausted,
            "failovers": self.failovers,
            "crc_rejected": self.crc_rejected,
            "busy_rejections": self.busy_rejections,
            "not_leader_rejections": self.not_leader_rejections,
            "leader_redirects": self.leader_redirects,
            "probe_rtt_last_ns": self.probe_rtt_last_ns,
            "slow_probes": self.slow_probes,
            "hedged_probes": self.hedged_probes,
            "endpoints_ejected": self.endpoints_ejected,
            "endpoints_readmitted": self.endpoints_readmitted,
        }
        for kind, count in sorted(self.faults_injected.items()):
            out[f"fault.{kind}"] = count
        return out

    def reset(self) -> None:
        """Zero every counter (between experiment repetitions)."""
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0
        self.recoveries = 0
        self.stale_replies_discarded = 0
        self.deadlines_exceeded = 0
        self.retries_exhausted = 0
        self.failovers = 0
        self.crc_rejected = 0
        self.busy_rejections = 0
        self.not_leader_rejections = 0
        self.leader_redirects = 0
        self.probe_rtt_last_ns = 0
        self.slow_probes = 0
        self.hedged_probes = 0
        self.endpoints_ejected = 0
        self.endpoints_readmitted = 0
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

    #: retransmitted calls answered from the at-most-once reply cache
    reply_cache_hits: int = 0
    #: cache entries evicted by the entry-count or byte budget
    reply_cache_evictions: int = 0
    #: bytes currently pinned by the reply cache (gauge, not a counter)
    reply_cache_bytes: int = 0
    #: sessions admitted (first call of a new client identity)
    sessions_opened: int = 0
    #: leases that expired, moving the session to the orphaned state
    sessions_expired: int = 0
    #: orphaned sessions whose grace period lapsed; ledger freed
    sessions_reclaimed: int = 0
    #: orphaned sessions reattached by a returning client within grace
    sessions_reattached: int = 0
    #: device bytes returned to the allocator by orphan reclamation
    bytes_reclaimed: int = 0
    #: new sessions refused (capacity reached or server draining)
    admission_denied: int = 0
    #: allocations refused by the per-client device-memory quota
    quota_denied: int = 0
    #: graceful drains that ran to completion
    drains_completed: int = 0
    #: state-mutating RPC records shipped to a standby (primary side)
    replication_ops_shipped: int = 0
    #: op-log records applied by a standby (standby side)
    replication_ops_applied: int = 0
    #: full checkpoint syncs sent to a standby (initial attach + resyncs)
    replication_full_syncs: int = 0
    #: primary_seq - applied_seq at the last ship (gauge; bounded by the link)
    replication_lag: int = 0
    #: standbys promoted to primary after a failure
    standby_promotions: int = 0
    #: sessions migrated off a faulted GPU onto a healthy spare
    device_failovers: int = 0
    #: records rejected server-side because their CRC32 trailer mismatched
    crc_rejected: int = 0
    #: calls shed with RPC_BUSY by queue bound, policy or concurrency limit
    overload_shed: int = 0
    #: calls shed specifically by a per-client token-bucket refusal
    rate_limited: int = 0
    #: calls refused/dropped because their deadline expired before execution
    deadline_expired_in_queue: int = 0
    #: calls whose deadline expired *while executing* (ran for nobody)
    deadline_expired_in_execution: int = 0
    #: queued calls aborted by rpc_cancel before execution started
    cancelled_in_queue: int = 0
    #: in-flight calls that observed their cancel token at a safe point
    cancelled_in_flight: int = 0
    #: high-water mark of the overload queue depth (gauge)
    queue_peak_depth: int = 0
    #: data-channel stripes that hit the slow-reader throttle window
    slow_readers_throttled: int = 0
    #: data-channel peers disconnected for persistently not draining
    slow_readers_disconnected: int = 0
    #: data-channel writes refused because staging memory was exhausted
    data_backpressure_rejected: int = 0
    #: calls shed with RPC_BUSY while serving was paused (stop-and-copy)
    paused_rejections: int = 0
    #: checkpoint generations written (full + delta)
    checkpoint_generations_written: int = 0
    #: delta generations among those (the rest are fulls)
    checkpoint_deltas_written: int = 0
    #: container bytes written across all generations
    checkpoint_bytes_written: int = 0
    #: corrupt/torn generations skipped while falling back to an older one
    checkpoint_fallbacks: int = 0
    #: pre-copy rounds driven across all migrations
    migration_rounds: int = 0
    #: migration chunks shipped (first transmissions)
    migration_chunks_sent: int = 0
    #: migration chunks re-shipped after a disconnect resume or CRC NAK
    migration_chunks_resent: int = 0
    #: duplicate chunks the receiver de-duplicated (idempotent redelivery)
    migration_chunks_duplicate: int = 0
    #: times a migration resumed from its cursor instead of restarting
    migration_resumes: int = 0
    #: virtual nanoseconds spent paused in stop-and-copy windows
    migration_pause_ns: int = 0
    #: migrations that reached cutover
    migrations_completed: int = 0
    #: migrations aborted with the source left serving
    migrations_aborted: int = 0
    #: sanitizer: out-of-bounds writes detected (sticky context poison)
    sanitizer_oob_writes: int = 0
    #: sanitizer: out-of-bounds reads detected (sticky context poison)
    sanitizer_oob_reads: int = 0
    #: sanitizer: accesses to freed (quarantined) memory detected
    sanitizer_use_after_free: int = 0
    #: sanitizer: double frees caught by the quarantine
    sanitizer_double_frees: int = 0
    #: sanitizer: redzone canaries found corrupted by wild device writes
    sanitizer_redzone_hits: int = 0
    #: leaked allocations reported (with sites) during ledger release
    sanitizer_leaks_reported: int = 0
    #: streams flagged hung by the kernel watchdog and handled by the ladder
    watchdog_hangs: int = 0
    #: ladder rung 1: hung kernels cancelled cooperatively
    ladder_cooperative_cancels: int = 0
    #: ladder rung 2: hard-hung streams aborted
    ladder_stream_aborts: int = 0
    #: ladder rung 3: contexts reset (culprit-only device state)
    ladder_context_resets: int = 0
    #: ladder rung 4: devices failed over to a spare to protect co-tenants
    ladder_device_failovers: int = 0
    #: ladder rung 5: culprit sessions reclaimed to salvage the device
    ladder_session_reclaims: int = 0
    #: leadership leases acquired from the witness (epoch bumps)
    fencing_leases_acquired: int = 0
    #: leadership leases renewed before expiry (same epoch)
    fencing_leases_renewed: int = 0
    #: leases that expired without renewal (witness unreachable or refused)
    fencing_leases_expired: int = 0
    #: times this server fenced itself off from mutations
    fencing_self_fences: int = 0
    #: mutating calls refused with RPC_NOT_LEADER while fenced
    fencing_not_leader_sheds: int = 0
    #: op-log ships rejected because they carried a stale epoch
    fencing_stale_epoch_rejections: int = 0
    #: current leadership epoch known to this server (gauge)
    fencing_epoch: int = 0
    #: times the server entered brownout (stage 0 -> degraded)
    brownout_entries: int = 0
    #: times the server fully exited brownout (stage -> 0)
    brownout_exits: int = 0
    #: calls shed with RPC_BUSY specifically by brownout staging
    brownout_sheds: int = 0
    #: sanitizer sweeps skipped because the server was in brownout
    sweeps_suspended: int = 0
    #: sync replication links demoted to async-lagged for limping
    replication_demotions: int = 0
    #: ladder rung 0: degraded devices preemptively failed over to a spare
    ladder_preemptive_failovers: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat counter mapping, ``server.``-prefixed for tracer merging."""
        return {
            "server.reply_cache_hits": self.reply_cache_hits,
            "server.reply_cache_evictions": self.reply_cache_evictions,
            "server.reply_cache_bytes": self.reply_cache_bytes,
            "server.sessions_opened": self.sessions_opened,
            "server.sessions_expired": self.sessions_expired,
            "server.sessions_reclaimed": self.sessions_reclaimed,
            "server.sessions_reattached": self.sessions_reattached,
            "server.bytes_reclaimed": self.bytes_reclaimed,
            "server.admission_denied": self.admission_denied,
            "server.quota_denied": self.quota_denied,
            "server.drains_completed": self.drains_completed,
            "server.replication_ops_shipped": self.replication_ops_shipped,
            "server.replication_ops_applied": self.replication_ops_applied,
            "server.replication_full_syncs": self.replication_full_syncs,
            "server.replication_lag": self.replication_lag,
            "server.standby_promotions": self.standby_promotions,
            "server.device_failovers": self.device_failovers,
            "server.crc_rejected": self.crc_rejected,
            "server.overload_shed": self.overload_shed,
            "server.rate_limited": self.rate_limited,
            "server.deadline_expired_in_queue": self.deadline_expired_in_queue,
            "server.deadline_expired_in_execution": self.deadline_expired_in_execution,
            "server.cancelled_in_queue": self.cancelled_in_queue,
            "server.cancelled_in_flight": self.cancelled_in_flight,
            "server.queue_peak_depth": self.queue_peak_depth,
            "server.slow_readers_throttled": self.slow_readers_throttled,
            "server.slow_readers_disconnected": self.slow_readers_disconnected,
            "server.data_backpressure_rejected": self.data_backpressure_rejected,
            "server.paused_rejections": self.paused_rejections,
            "server.checkpoint_generations_written": self.checkpoint_generations_written,
            "server.checkpoint_deltas_written": self.checkpoint_deltas_written,
            "server.checkpoint_bytes_written": self.checkpoint_bytes_written,
            "server.checkpoint_fallbacks": self.checkpoint_fallbacks,
            "server.migration_rounds": self.migration_rounds,
            "server.migration_chunks_sent": self.migration_chunks_sent,
            "server.migration_chunks_resent": self.migration_chunks_resent,
            "server.migration_chunks_duplicate": self.migration_chunks_duplicate,
            "server.migration_resumes": self.migration_resumes,
            "server.migration_pause_ns": self.migration_pause_ns,
            "server.migrations_completed": self.migrations_completed,
            "server.migrations_aborted": self.migrations_aborted,
            "server.sanitizer_oob_writes": self.sanitizer_oob_writes,
            "server.sanitizer_oob_reads": self.sanitizer_oob_reads,
            "server.sanitizer_use_after_free": self.sanitizer_use_after_free,
            "server.sanitizer_double_frees": self.sanitizer_double_frees,
            "server.sanitizer_redzone_hits": self.sanitizer_redzone_hits,
            "server.sanitizer_leaks_reported": self.sanitizer_leaks_reported,
            "server.watchdog_hangs": self.watchdog_hangs,
            "server.ladder_cooperative_cancels": self.ladder_cooperative_cancels,
            "server.ladder_stream_aborts": self.ladder_stream_aborts,
            "server.ladder_context_resets": self.ladder_context_resets,
            "server.ladder_device_failovers": self.ladder_device_failovers,
            "server.ladder_session_reclaims": self.ladder_session_reclaims,
            "server.fencing_leases_acquired": self.fencing_leases_acquired,
            "server.fencing_leases_renewed": self.fencing_leases_renewed,
            "server.fencing_leases_expired": self.fencing_leases_expired,
            "server.fencing_self_fences": self.fencing_self_fences,
            "server.fencing_not_leader_sheds": self.fencing_not_leader_sheds,
            "server.fencing_stale_epoch_rejections": (
                self.fencing_stale_epoch_rejections
            ),
            "server.fencing_epoch": self.fencing_epoch,
            "server.brownout_entries": self.brownout_entries,
            "server.brownout_exits": self.brownout_exits,
            "server.brownout_sheds": self.brownout_sheds,
            "server.sweeps_suspended": self.sweeps_suspended,
            "server.replication_demotions": self.replication_demotions,
            "server.ladder_preemptive_failovers": self.ladder_preemptive_failovers,
        }

    def reset(self) -> None:
        """Zero every counter (between experiment repetitions)."""
        self.reply_cache_hits = 0
        self.reply_cache_evictions = 0
        self.reply_cache_bytes = 0
        self.sessions_opened = 0
        self.sessions_expired = 0
        self.sessions_reclaimed = 0
        self.sessions_reattached = 0
        self.bytes_reclaimed = 0
        self.admission_denied = 0
        self.quota_denied = 0
        self.drains_completed = 0
        self.replication_ops_shipped = 0
        self.replication_ops_applied = 0
        self.replication_full_syncs = 0
        self.replication_lag = 0
        self.standby_promotions = 0
        self.device_failovers = 0
        self.crc_rejected = 0
        self.overload_shed = 0
        self.rate_limited = 0
        self.deadline_expired_in_queue = 0
        self.deadline_expired_in_execution = 0
        self.cancelled_in_queue = 0
        self.cancelled_in_flight = 0
        self.queue_peak_depth = 0
        self.slow_readers_throttled = 0
        self.slow_readers_disconnected = 0
        self.data_backpressure_rejected = 0
        self.paused_rejections = 0
        self.checkpoint_generations_written = 0
        self.checkpoint_deltas_written = 0
        self.checkpoint_bytes_written = 0
        self.checkpoint_fallbacks = 0
        self.migration_rounds = 0
        self.migration_chunks_sent = 0
        self.migration_chunks_resent = 0
        self.migration_chunks_duplicate = 0
        self.migration_resumes = 0
        self.migration_pause_ns = 0
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.sanitizer_oob_writes = 0
        self.sanitizer_oob_reads = 0
        self.sanitizer_use_after_free = 0
        self.sanitizer_double_frees = 0
        self.sanitizer_redzone_hits = 0
        self.sanitizer_leaks_reported = 0
        self.watchdog_hangs = 0
        self.ladder_cooperative_cancels = 0
        self.ladder_stream_aborts = 0
        self.ladder_context_resets = 0
        self.ladder_device_failovers = 0
        self.ladder_session_reclaims = 0
        self.fencing_leases_acquired = 0
        self.fencing_leases_renewed = 0
        self.fencing_leases_expired = 0
        self.fencing_self_fences = 0
        self.fencing_not_leader_sheds = 0
        self.fencing_stale_epoch_rejections = 0
        self.fencing_epoch = 0
        self.brownout_entries = 0
        self.brownout_exits = 0
        self.brownout_sheds = 0
        self.sweeps_suspended = 0
        self.replication_demotions = 0
        self.ladder_preemptive_failovers = 0
