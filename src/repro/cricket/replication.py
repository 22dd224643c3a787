"""Hot-standby replication: primary -> standby state shipping.

High availability for the Cricket server role.  A primary keeps a warm
standby in lock-step by two mechanisms:

1. **Initial full sync** -- the standby is seeded with a full checkpoint
   (:func:`~repro.cricket.checkpoint.capture_server_state`), including the
   at-most-once reply cache.

2. **Incremental op-log** -- every *state-mutating* RPC that executes on
   the primary is shipped as its original verified request record and
   **replayed** through the standby's normal dispatch path.  Because
   handle and pointer allocation is deterministic (``itertools.count``
   counters, first-fit allocator), replay reproduces the exact handles and
   device pointers the primary handed out -- and, as a free consequence,
   populates the standby's reply cache under the *original client
   identity and xid*.  A client that fails over and retransmits an
   in-flight non-idempotent call is therefore answered from the standby's
   cache instead of re-executing it: at-most-once survives failover.

Read-only procedures (``cudaGetDeviceProperties``, D2H memcpy,
``cudaPeekAtLastError``, synchronize/elapsed-time queries, ...) are not
shipped: they do not change server state, and re-executing them after a
failover is harmless.  ``cudaGetLastError`` *is* shipped -- it reads and
clears the sticky error, so it mutates.  Which is which is the procedure
table's ``mutating`` fact (:data:`~repro.cricket.spec.PROCEDURES`).

Sequence numbers and lag: each shipped op gets a monotonically increasing
``primary_seq``; the standby acknowledges ``applied_seq`` after replay.
``max_lag`` bounds ``primary_seq - applied_seq``: it starts at 0, a
synchronous link (each mutating call is applied on the standby before
the primary replies -- the op is shipped from inside the dispatch path);
a demoted link (see :meth:`ReplicationLink._maybe_demote`) raises it to
``demoted_max_lag``, batching ops and flushing whenever the bound is
exceeded (or on :func:`promote`).

Known limitation (shared with the checkpoint format): the initial full
sync covers the *current* device and carries no cuFFT plan table, so a
standby attached mid-workload misses state outside that coverage.
Attaching the standby before serving clients -- the normal HA deployment
-- makes the op-log authoritative for everything, including cuFFT.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from typing import TYPE_CHECKING

from repro.oncrpc import message as msg
from repro.oncrpc.record import append_crc
from repro.cricket.spec import MUTATING_PROCS
from repro.cricket.witness import StaleEpochError
from repro.resilience.health import HealthTracker, LatencySLO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer


def _fence_epoch(server) -> int:
    """A server's current leadership epoch (0 when unfenced)."""
    fencing = getattr(server, "fencing", None)
    return getattr(fencing, "epoch", 0) if fencing is not None else 0


class ReplicationLink:
    """Ships state-mutating ops from a primary to a hot standby.

    Attaching installs the primary's ``on_executed`` observer (full sync
    first).  Detaching (or :func:`promote`) removes it.  The link itself
    is the "network": in-process by construction, but the unit shipped --
    the original request record bytes -- is exactly what a wire protocol
    would carry.
    """

    REPLICATION_CLIENT_ID = "replication-link"

    def __init__(
        self,
        primary: "CricketServer",
        standby: "CricketServer",
        *,
        reachability=None,
        ship_slo: "LatencySLO | None" = None,
        demoted_max_lag: int = 64,
    ) -> None:
        if primary.on_executed is not None:
            raise RuntimeError("primary already has a replication observer")
        # Epoch guard: a standby that has seen a *newer* epoch than this
        # primary outranks it -- attaching would replicate from a stale
        # leader.  A demoted primary rejoins as the standby of a fresh
        # link instead (its __init__ full-syncs, adopting the new epoch).
        if _fence_epoch(standby) > _fence_epoch(primary):
            from repro.cricket.witness import StaleEpochError

            raise StaleEpochError(
                f"standby at epoch {_fence_epoch(standby)} outranks "
                f"primary at epoch {_fence_epoch(primary)}; full sync "
                "under the current epoch required"
            )
        self.primary = primary
        self.standby = standby
        #: bound on ``lag``; 0 (synchronous) until the link is demoted
        self.max_lag = 0
        #: per-batch ship round-trip charged to the *primary's* clock (the
        #: synchronous link blocks the dispatching call for this long);
        #: the ``limp_standby`` nemesis event raises it mid-run
        self.ship_delay_s = 0.0
        #: round-trip latency tracker, one sample per shipped batch
        self.ship_health = HealthTracker("replication-ship")
        #: SLO on the ship round-trip; breach demotes the link to async
        self.ship_slo = ship_slo
        #: lag bound adopted on demotion -- one round trip then amortises
        #: the limp across this many mutations instead of stalling each one
        self.demoted_max_lag = max(1, demoted_max_lag)
        #: True once the gray-failure demotion fired (one-way; a repaired
        #: standby rejoins sync via a fresh link / full_sync)
        self.demoted = False
        #: partition gate: ``reachability() -> bool`` for the
        #: primary->standby direction (None = always reachable).  Checked
        #: by the leadership fence *before* executing a mutation; an op
        #: already executed ships unconditionally (it was "in flight"
        #: when the cut landed).
        self.reachability = reachability
        #: sequence number of the last op executed (and shipped) on the primary
        self.primary_seq = 0
        #: sequence number of the last op replayed on the standby
        self.applied_seq = 0
        self._pending: deque[tuple[int, int, bytes]] = deque()
        self._prog = primary.interface.prog_number
        self._lock = threading.RLock()
        # per-link dispatch session on the standby (one logical connection)
        self._standby_session: dict = {}
        self.attached = False
        self.promoted = False
        self.full_sync()
        primary.on_executed = self._on_executed
        self.attached = True

    def reachable(self) -> bool:
        """Can the primary currently reach the standby?"""
        return self.reachability is None or self.reachability()

    # -- state shipping ---------------------------------------------------

    def full_sync(self) -> None:
        """Seed (or re-seed) the standby with a full primary checkpoint.

        Ships the captured state dict directly (every value, the device
        image included, is already an independent copy) -- the container
        a wire link would pay adds nothing in-process.
        """
        from repro.cricket.checkpoint import (
            capture_server_state,
            restore_server_state,
        )

        with self._lock:
            restore_server_state(self.standby, capture_server_state(self.primary))
            self._pending.clear()
            self.applied_seq = self.primary_seq
            self.primary.server_stats.replication_full_syncs += 1
            self._update_lag()

    def _on_executed(self, record: bytes, call: msg.CallBody, reply: bytes) -> None:
        # Called from inside the primary's dispatch path, under its
        # op-log lock: ship order == execution order.
        if call.prog != self._prog or call.proc not in MUTATING_PROCS:
            return
        with self._lock:
            self.primary_seq += 1
            self._pending.append((self.primary_seq, _fence_epoch(self.primary), record))
            self.primary.server_stats.replication_ops_shipped += 1
            if self.primary_seq - self.applied_seq > self.max_lag:
                try:
                    self._apply_pending()
                except StaleEpochError:
                    # The standby outranks us: a newer leader exists.  The
                    # op already executed locally, so the client's reply
                    # (stamped with the now-stale epoch) goes out -- but
                    # this server fences itself and the *next* mutation is
                    # shed.  The failover transport marks it stale on the
                    # spot, so clients migrate instead of retrying here.
                    fencing = getattr(self.primary, "fencing", None)
                    if fencing is not None:
                        fencing.observe_epoch(_fence_epoch(self.standby))
            self._update_lag()
            self._maybe_demote()

    def _maybe_demote(self) -> None:
        """Demote a limping sync link to async-lagged (gray-failure path).

        A standby that still acknowledges every op -- but slowly -- never
        trips a liveness check, yet a synchronous link makes every primary
        mutation pay the standby's limp.  When the per-batch ship RTT
        breaches ``ship_slo``, the link drops to ``demoted_max_lag``:
        availability (the primary's latency) is bought with bounded
        staleness (ops a failover could lose), which is exactly the sync
        -> async trade, made deliberately and visibly (counted in
        ``replication_demotions``).
        """
        if self.demoted or self.ship_slo is None:
            return
        if not self.ship_slo.breached(self.ship_health):
            return
        self.max_lag = self.demoted_max_lag
        self.demoted = True
        self.primary.server_stats.replication_demotions += 1

    def _apply_pending(self) -> None:
        if not self._pending:
            return
        started_ns = self.primary.clock.now_ns
        if self.ship_delay_s:
            # One round trip ships the whole batch: sync links (batch of
            # one) pay this per mutation; a demoted link amortises it.
            self.primary.clock.advance_s(self.ship_delay_s)
        while self._pending:
            seq, epoch, record = self._pending[0]
            standby_epoch = _fence_epoch(self.standby)
            if standby_epoch > epoch:
                # A ship stamped with a superseded epoch: the standby was
                # promoted (or adopted a newer epoch) since this op
                # executed.  Refuse it and sever the link -- the demoted
                # primary must full-sync under the current epoch before
                # it can replicate anything again.
                self.standby.server_stats.fencing_stale_epoch_rejections += 1
                self.detach()
                raise StaleEpochError(
                    f"standby at epoch {standby_epoch} refuses op "
                    f"{seq} shipped under epoch {epoch}"
                )
            self._pending.popleft()
            # on_executed observes the *verified* (CRC-stripped) record;
            # a checksumming standby expects the trailer back on.
            # (On a view, so the trailer goes on a copy: ``record`` is the
            # primary's request buffer, which is never modified.)
            wire = (
                append_crc(memoryview(record)) if self.standby.crc_records else record
            )
            self.standby.dispatch_record(
                wire,
                client_id=self.REPLICATION_CLIENT_ID,
                session=self._standby_session,
                replica_apply=True,
            )
            self.applied_seq = seq
            self.primary.server_stats.replication_ops_applied += 1
        self.ship_health.record(self.primary.clock.now_ns - started_ns)

    def _update_lag(self) -> None:
        self.primary.server_stats.replication_lag = self.lag

    @property
    def lag(self) -> int:
        """Ops executed on the primary but not yet applied on the standby."""
        return self.primary_seq - self.applied_seq

    def flush(self) -> None:
        """Apply every pending op to the standby (lag drops to zero)."""
        with self._lock:
            self._apply_pending()
            self._update_lag()

    def detach(self) -> None:
        """Stop observing the primary (pending ops stay queued)."""
        if self.attached:
            self.primary.on_executed = None
            self.attached = False

    def attach(self) -> None:
        """Re-attach a detached link: full sync, then resume shipping.

        The operator's post-heal move.  A link detached while the standby
        was unreachable (the witness-blessed go-solo path) has an
        arbitrary gap in its op-log, so re-attachment re-seeds the
        standby from the current primary state before shipping resumes.
        A promoted link stays severed -- the demoted ex-primary must be
        rebuilt as a standby of the new leader, not the other way round.
        """
        with self._lock:
            if self.attached:
                return
            if self.promoted:
                raise ValueError("cannot re-attach a promoted link")
            self.full_sync()
            self.primary.on_executed = self._on_executed
            self.attached = True


def promote(link: ReplicationLink) -> "CricketServer":
    """Promote the standby: flush the op-log, detach, return the standby.

    Idempotent -- a second promotion (two clients racing to the standby)
    is a no-op.  After promotion the standby is a fully independent
    primary holding every acknowledged *and* pending op, with the reply
    cache the replay built, so retransmitted in-flight calls from failing-
    over clients hit at-most-once instead of re-executing.
    """
    with link._lock:
        if link.promoted:
            return link.standby
        link.flush()
        link.detach()
        link.promoted = True
        link.standby.server_stats.standby_promotions += 1
    return link.standby


def promote_with_witness(link: ReplicationLink, fence) -> "CricketServer":
    """Witness-gated promotion hook: acquire the next epoch, then promote.

    Unlike :func:`promote`, promotion is *conditional*: the standby first
    has to win the leadership lease from the witness.  While the old
    primary's lease is live (or the witness is unreachable from the
    standby), acquisition fails and the standby stays a follower -- it
    keeps shedding mutations with ``RPC_NOT_LEADER``, and the failing-
    over client's backoff burns virtual time until the stale lease
    lapses.  That wait *is* the split-brain protection: promotion can
    only happen under an epoch the old primary provably no longer holds.
    """
    from repro.cricket.witness import LeadershipRefused, WitnessUnreachableError

    if fence.is_leader:
        return link.standby  # already promoted (idempotent, like promote)
    try:
        fence.lead()
    except (LeadershipRefused, WitnessUnreachableError):
        return link.standby  # stays a follower; mutations shed
    return promote(link)


def make_ha_pair(
    primary: "CricketServer",
    standby: "CricketServer",
    *,
    unfenced: bool = False,
) -> tuple[ReplicationLink, list]:
    """Wire a primary/standby pair for transparent client failover.

    Returns ``(link, endpoints)`` where ``endpoints`` feeds
    :meth:`CricketClient.failover`: primary first, then the standby with
    a connect hook that promotes it the moment a failing-over client
    arrives.

    By default the pair is **fenced**: a :class:`~repro.cricket.witness.
    Witness` on the primary's clock, with its default lease, grants the
    primary epoch 1, and the standby's connect hook promotes
    through :func:`promote_with_witness` -- a partitioned-but-alive
    primary can therefore never end up serving mutations concurrently
    with a promoted standby.  The witness and both fences ride on the
    returned link as ``link.witness`` / ``link.primary_fence`` /
    ``link.standby_fence``.

    ``unfenced=True`` is the legacy escape hatch: no witness, no epochs,
    and the PR-4 promote-on-connect behavior (any client connecting to
    the standby promotes it unconditionally).  Only crash-stop failover
    is safe under it; partitions split-brain, which is exactly what the
    default now prevents.
    """
    from repro.resilience.failover import LoopbackEndpoint

    if unfenced:
        link = ReplicationLink(primary, standby)
        endpoints = [
            LoopbackEndpoint(primary, name="primary"),
            LoopbackEndpoint(
                standby, name="standby", on_connect=lambda _ep: promote(link)
            ),
        ]
        return link, endpoints

    from repro.cricket.witness import LeadershipFence, Witness

    witness = Witness(primary.clock)
    primary_fence = LeadershipFence(
        primary, witness, name="primary", peer_hint="standby"
    )
    standby_fence = LeadershipFence(
        standby, witness, name="standby", peer_hint="primary"
    )
    primary_fence.lead()  # epoch 1
    link = ReplicationLink(primary, standby)
    primary_fence.link = link
    link.witness = witness
    link.primary_fence = primary_fence
    link.standby_fence = standby_fence
    endpoints = [
        LoopbackEndpoint(primary, name="primary"),
        LoopbackEndpoint(
            standby,
            name="standby",
            on_connect=lambda _ep: promote_with_witness(link, standby_fence),
        ),
    ]
    return link, endpoints


# -- state fingerprint (for replication equivalence checks) ---------------


def state_fingerprint(server: "CricketServer") -> str:
    """Digest of a server's *logical* state, excluding virtual time.

    Two servers with equal fingerprints hand out the same answers to any
    future state-observing call: same live allocations (addresses, sizes
    and contents), same module/function/handle tables, same counters, same
    session ledgers.  Virtual-time quantities (clock, stream tails, event
    timestamps, lease expiries) are deliberately excluded -- a standby's
    clock legitimately differs from its primary's, and time never feeds
    back into handle or pointer allocation.

    Coverage matches the checkpoint format: the *current* device plus the
    per-device handle tables the checkpoint carries (cuFFT plans excluded).
    """
    device = server.device
    allocations = sorted(
        (a.addr, a.size, hashlib.sha256(a.data.tobytes()).hexdigest())
        for a in device.allocator.live_allocations()
    )
    driver = server.driver
    modules = []
    for module in sorted(driver.loaded_modules(), key=lambda m: m.handle):
        modules.append(
            (
                module.handle,
                module.image.arch,
                sorted((fh, meta.name) for fh, meta in module.functions.items()),
                sorted(module.globals.items()),
            )
        )
    sessions = getattr(server, "sessions", None)
    ledgers = []
    if sessions is not None:
        for identity, session in sorted(sessions._sessions.items()):
            state = session.ledger.as_state()
            if any(state.values()):
                canonical = sorted(
                    (table, sorted(entries.items()))
                    for table, entries in state.items()
                )
                ledgers.append((identity, canonical))
    state = (
        ("spec", device.spec.name),
        ("capacity", device.allocator.capacity),
        ("allocations", allocations),
        ("modules", modules),
        ("next_module", driver._next_module.__reduce__()[1][0]),
        ("next_function", driver._next_function.__reduce__()[1][0]),
        ("blas", sorted(server.blas._handles)),
        ("solver", sorted(server.solver._handles)),
        ("streams", sorted(s.handle for s in device.streams.streams())),
        ("events", sorted(device.streams._events)),
        ("ledgers", ledgers),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()
