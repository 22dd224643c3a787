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

from repro.cricket.checkpoint import capture_server_state, restore_server_state
from repro.oncrpc import message as msg
from repro.oncrpc.record import append_crc
from repro.cricket.spec import MUTATING_PROCS
from repro.cricket.witness import (
    LeadershipFence,
    LeadershipRefused,
    StaleEpochError,
    Witness,
    WitnessUnreachableError,
)
from repro.resilience.health import HealthTracker, LatencySLO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer


def _fence_epoch(server) -> int:
    """A server's current leadership epoch (0 when unfenced)."""
    return getattr(server.fencing, "epoch", 0)


class ReplicationLink:
    """Ships state-mutating ops from a primary to a hot standby.

    Building it full-syncs the standby and installs the primary's
    ``on_executed`` observer; detaching (or :func:`promote`) removes it for
    good -- a heal builds a fresh link (:meth:`HaPair.relink`).  The link itself
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
        # primary outranks it -- linking would replicate from a stale
        # leader.  A demoted primary rejoins as the standby of a fresh
        # link instead (its __init__ full-syncs, adopting the new epoch).
        if _fence_epoch(standby) > _fence_epoch(primary):
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


def promote(link: ReplicationLink) -> "CricketServer":
    """Promote the standby: flush the op-log, detach, return the standby.

    Idempotent (two clients may race to the standby).  The promoted node
    holds every acknowledged *and* pending op, with the reply cache the
    replay built, so retransmitted in-flight calls hit at-most-once.
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
    """Witness-gated promotion: acquire the next epoch, then promote.

    While the old primary's lease is live (or the witness is unreachable)
    the standby stays a follower that sheds with ``RPC_NOT_LEADER``, and
    the failing-over client's backoff burns virtual time until the lease
    lapses: promotion only happens under an epoch the old primary
    provably no longer holds.
    """
    if fence.is_leader:
        return link.standby  # already promoted (idempotent, like promote)
    try:
        fence.lead()
    except (LeadershipRefused, WitnessUnreachableError):
        return link.standby  # stays a follower; mutations shed
    return promote(link)


class HaPair:
    """A fenced pair of servers, built once and addressed by role.

    The two named nodes (the first leads, at epoch 1), the witness between
    them, a :class:`LeadershipFence` each and the current
    :class:`ReplicationLink`, from the leader to the other node.  No node
    is special: every endpoint's connect hook is :meth:`on_connect`, and
    every heal runs :meth:`relink`.  Only the standby of the current link,
    which that link full-synced and ships to, may promote: a node leads
    only once it has caught up (Raft's up-to-date rule).
    """

    def __init__(self, servers: dict, witness: Witness, *, reachability=None, **link_options):
        self.servers = dict(servers)
        self.witness = witness
        #: ``reachability(src, dst)``: the link gate of that direction (None:
        #: always reachable)
        self.reachability = reachability or (lambda source, target: None)
        self._link_options = link_options
        first, second = self.servers
        self.fences = {
            name: LeadershipFence(server, witness, name=name, peer_hint=peer)
            for (name, server), peer in zip(self.servers.items(), (second, first))
        }
        self.fences[first].lead()  # epoch 1
        self._link(first, second)

    def _link(self, source: str, target: str) -> None:
        """Ship ``source -> target``: the new link full-syncs ``target``,
        which adopts the leader's epoch."""
        gate = self.reachability(source, target)
        self.link = ReplicationLink(
            self.servers[source], self.servers[target], reachability=gate, **self._link_options
        )
        self.fences[source].link, self.fences[target].link = self.link, None
        #: names of the current link's primary and standby
        self.ends = (source, target)

    def _roles(self) -> tuple[str, str]:
        """The current link's leading and following node."""
        return self.ends[::-1] if self.link.promoted else self.ends

    def leader(self) -> str:
        """The live node accepting mutations ("" when none is).

        A deposed leader believes it leads until its next call: the newer
        epoch wins, then the current link's leading node.
        """
        head = self._roles()[0]
        live = [n for n, f in self.fences.items() if f.is_leader and not self.servers[n].killed]
        return max(live, key=lambda name: (self.fences[name].epoch, name == head), default="")

    def on_connect(self, endpoint) -> None:
        """Promote the current link's standby when a client connects to it."""
        if endpoint.server is self.link.standby:
            promote_with_witness(self.link, self.fences[self.ends[1]])

    def relink(self) -> None:
        """After a heal, make the leader's peer its standby again.

        A link that no longer ships -- detached by a leader that went
        solo, or promoted -- is replaced by a fresh one from the leader.
        Nothing happens while a node is dead, the leader is fenced or the
        peer is unreachable.
        """
        source, target = self._roles()
        gate = self.reachability(source, target)
        if not (
            self.link.attached
            or any(self.servers[name].killed for name in self.ends)
            or not self.fences[source].is_leader
            or (gate is not None and not gate())
        ):
            self._link(source, target)


def make_ha_pair(
    primary: "CricketServer",
    standby: "CricketServer",
    *,
    unfenced: bool = False,
) -> tuple[ReplicationLink, list]:
    """Wire a primary/standby pair for transparent client failover.

    Returns ``(link, endpoints)``: ``endpoints`` (primary first) feeds
    :meth:`CricketClient.failover`.  By default the pair is a fenced
    :class:`HaPair` under a :class:`~repro.cricket.witness.Witness` on the
    primary's clock, with its default lease; the witness and both fences
    ride on the link as ``link.witness`` / ``link.primary_fence`` /
    ``link.standby_fence``.

    ``unfenced=True`` is the legacy escape hatch: no witness, no epochs,
    and any client connecting to the standby promotes it unconditionally.
    Only crash-stop failover is safe under it; partitions split-brain.
    """
    from repro.resilience.failover import LoopbackEndpoint

    if unfenced:
        link = ReplicationLink(primary, standby)

        def hook(endpoint) -> None:  # any client reaching the standby promotes it
            if endpoint.server is standby:
                promote(link)
    else:
        pair = HaPair({"primary": primary, "standby": standby}, Witness(primary.clock))
        link, hook = pair.link, pair.on_connect
        link.witness = pair.witness
        link.primary_fence, link.standby_fence = pair.fences.values()
    endpoints = [
        LoopbackEndpoint(server, name=name, on_connect=hook)
        for name, server in (("primary", primary), ("standby", standby))
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

    A view of the checkpoint capture (without device contents, so a
    sanitized device's canaries are not checked), plus one digest per live
    allocation: the coverage is the checkpoint's -- the *current* device
    plus its handle tables, cuFFT plans excluded.
    """
    state = capture_server_state(server, include_device_data=False)
    device = state["device_meta"]
    allocations = sorted(
        (a.addr, a.size, hashlib.sha256(a.data.tobytes()).hexdigest())
        for a in server.device.allocator.live_allocations()
    )
    modules = sorted(
        (m["handle"], m["arch"], sorted(m["functions"].items()), sorted(m["globals"].items()))
        for m in state["modules"]
    )
    ledgers = [
        (identity, sorted((kind, sorted(held.items())) for kind, held in entry["ledger"].items()))
        for identity, entry in sorted(state["sessions"].items())
        if any(entry["ledger"].values())
    ]
    view = (
        ("spec", device["spec_name"]),
        ("capacity", device["capacity"]),
        ("allocations", allocations),
        ("modules", modules),
        ("next_module", state["next_module"]),
        ("next_function", state["next_function"]),
        ("blas", state["blas_handles"]),
        ("solver", state["solver_handles"]),
        ("streams", sorted(state["streams"])),
        ("events", sorted(state["events"])),
        ("ledgers", ledgers),
    )
    return hashlib.sha256(repr(view).encode()).hexdigest()
