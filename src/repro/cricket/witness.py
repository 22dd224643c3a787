"""Witness-arbitrated leadership: epoch-fenced leases for HA pairs.

Split-brain is the failure mode PR-4's promote-on-connect hook left open:
a network partition (rather than a crash) leaves the primary alive and
serving while a failing-over client promotes the standby -- two servers
accepting mutations, diverging state, and acknowledged writes on the
losing side silently lost.  This module closes the hole with the classic
lease-plus-epoch construction:

* A :class:`Witness` is a third, deterministic arbiter.  It grants
  time-bounded **leadership leases** tagged with a monotonically
  increasing **epoch**.  At most one unexpired lease exists at any
  moment, so at most one server can believe it leads -- and a new grant
  always carries a higher epoch than every lease that came before it.

* A :class:`LeadershipFence` is the server-side state machine.  It
  installs itself as ``RpcServer.fencing`` and is consulted before every
  non-exempt call: a non-leader (or a leader whose lease expired and
  whose renewal failed) sheds *mutating* procedures with
  ``RPC_NOT_LEADER`` while reads drain.  Every reply verf carries the
  server's epoch, leadership claim and a redirect hint
  (``AUTH_LEADER_EPOCH``), so failover clients learn the newest epoch
  from normal traffic and refuse to rotate back to a fenced ex-primary.

Time is virtual throughout (:class:`~repro.net.simclock.SimClock`):
lease expiry is driven by the same clock the retry loop's backoff
advances, so every partition scenario -- including the window where a
lease lapses *while* the witness is unreachable -- is deterministic and
replayable from a seed.

Safety argument, in two invariants the ``partition_*`` nemesis profiles check directly:

1. **At most one server accepts mutations per epoch.**  A mutation is
   only executed while ``is_leader`` under an epoch the witness granted;
   the witness never grants the same epoch to two holders, and a demoted
   holder can never "rejoin" its old epoch (acquire always bumps).

2. **No acknowledged write is lost.**  A leader whose replication link
   is unreachable does not acknowledge mutations on its own authority:
   it either gets the witness's blessing to detach the (dead) standby
   and continue solo -- in which case the standby cannot later promote,
   because the witness keeps refusing it while the leader renews -- or
   it sheds the call with ``RPC_BUSY``, unexecuted and unacknowledged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cricket.spec import MUTATING_PROCS
from repro.oncrpc import message as msg
from repro.oncrpc.auth import OpaqueAuth, leader_epoch_auth


class WitnessUnreachableError(Exception):
    """The witness cannot be reached (partitioned); leadership is unknown."""


class LeadershipRefused(Exception):
    """The witness refused to grant or renew a lease.

    Carries the witness's view so the refused server can adopt the newer
    epoch (and redirect its clients toward the actual leader).
    """

    def __init__(self, message: str, *, epoch: int = 0, holder: str = "") -> None:
        super().__init__(message)
        #: epoch of the lease the witness is honoring instead
        self.epoch = epoch
        #: name of the holder of that lease
        self.holder = holder


class StaleEpochError(Exception):
    """An op-log ship (or attach) carried an epoch older than the receiver's.

    Raised by :class:`~repro.cricket.replication.ReplicationLink` when a
    demoted primary tries to keep shipping, or to re-attach, without a
    fresh full sync under the current epoch.
    """


@dataclass(frozen=True)
class LeadershipLease:
    """A time-bounded grant of leadership at a specific epoch."""

    holder: str
    epoch: int
    granted_ns: int  # witness-clock grant time
    duration_s: float

    @property
    def expires_ns(self) -> int:
        return self.granted_ns + int(self.duration_s * 1e9)


class Witness:
    """Deterministic leadership arbiter granting epoch-tagged leases.

    The witness is intentionally tiny -- a single lease slot and an epoch
    counter -- because that is all split-brain protection needs: it never
    sees application state, only *who may lead until when*.  ``acquire``
    by a challenger is refused while the incumbent's lease is unexpired;
    once it lapses, the challenger is granted the next epoch.  The
    incumbent may renew even *after* expiry as long as its epoch is still
    current (nobody else was granted in the gap), so a quiet period does
    not force a spurious re-election.

    ``link_filter`` is the partition hook: a callable deciding whether a
    named node can currently reach the witness.  An unreachable caller
    gets :class:`WitnessUnreachableError` -- indistinguishable, as in a
    real partition, from the witness being down.
    """

    def __init__(self, clock, *, lease_s: float = 0.25, name: str = "witness") -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.clock = clock
        self.lease_s = lease_s
        self.name = name
        #: highest epoch ever granted (0 = nobody has ever led)
        self.epoch = 0
        self.lease: LeadershipLease | None = None
        #: partition gate: ``link_filter(node_name) -> bool`` (None = all
        #: nodes can always reach the witness)
        self.link_filter: Callable[[str], bool] | None = None
        self.grants = 0
        self.renewals = 0
        self.refusals = 0

    def _check_reachable(self, holder: str) -> None:
        if self.link_filter is not None and not self.link_filter(holder):
            raise WitnessUnreachableError(
                f"partition: {holder!r} cannot reach witness {self.name!r}"
            )

    def leader(self) -> str | None:
        """Holder of the current unexpired lease, or ``None``."""
        lease = self.lease
        if lease is None or self.clock.now_ns >= lease.expires_ns:
            return None
        return lease.holder

    def acquire(self, holder: str) -> LeadershipLease:
        """Request leadership; grants the next epoch or refuses.

        The incumbent re-acquiring keeps its epoch (it is a renewal); a
        challenger is refused while the incumbent's lease is unexpired
        and granted ``epoch + 1`` afterwards.
        """
        self._check_reachable(holder)
        now = self.clock.now_ns
        lease = self.lease
        if lease is not None and lease.holder == holder:
            self.lease = LeadershipLease(holder, lease.epoch, now, self.lease_s)
            self.renewals += 1
            return self.lease
        if lease is not None and now < lease.expires_ns:
            self.refusals += 1
            raise LeadershipRefused(
                f"{lease.holder!r} holds epoch {lease.epoch} until its lease expires",
                epoch=lease.epoch,
                holder=lease.holder,
            )
        self.epoch += 1
        self.lease = LeadershipLease(holder, self.epoch, now, self.lease_s)
        self.grants += 1
        return self.lease

    def renew(self, holder: str, epoch: int) -> LeadershipLease:
        """Extend an existing lease; refuses if the epoch was superseded.

        Renewal after expiry is allowed as long as the epoch is unchanged:
        no conflicting leader can have existed in the gap, so extending is
        safe -- and it spares a quiet leader a re-election.
        """
        self._check_reachable(holder)
        lease = self.lease
        if lease is None or lease.holder != holder or lease.epoch != epoch:
            self.refusals += 1
            raise LeadershipRefused(
                f"epoch {epoch} of {holder!r} superseded "
                f"(witness is at epoch {self.epoch})",
                epoch=lease.epoch if lease is not None else self.epoch,
                holder=lease.holder if lease is not None else "",
            )
        self.lease = LeadershipLease(holder, epoch, self.clock.now_ns, self.lease_s)
        self.renewals += 1
        return self.lease


class LeadershipFence:
    """Server-side leadership state machine (installs as ``server.fencing``).

    State transitions::

        follower --lead()/witness grant--> leader(epoch N)
        leader --renew refused (superseded)--> fenced
        leader --lease expired + witness unreachable--> fenced (self-fence)
        leader --observe_epoch(M > N)--> fenced
        fenced --lead()/witness grant--> leader(epoch M > N)

    While fenced, mutating procedures are shed with ``RPC_NOT_LEADER``
    (reads drain, retransmits of already-executed calls still replay from
    the at-most-once reply cache), session reaping is paused so client
    resources survive the migration window, and every reply verf
    advertises the newest known epoch plus a redirect hint.  Which
    procedures mutate is the procedure table's
    (:data:`~repro.cricket.spec.MUTATING_PROCS`).
    """

    def __init__(
        self,
        server,
        witness: Witness,
        *,
        name: str,
        peer_hint: str = "",
    ) -> None:
        self.server = server
        self.witness = witness
        self.name = name
        #: endpoint name of the peer believed to lead (redirect hint in
        #: replies while this server is fenced)
        self.peer_hint = peer_hint
        #: newest epoch this server knows about (its own while leading)
        self.epoch = 0
        self.is_leader = False
        #: lease expiry in *this server's* clock domain
        self.lease_expires_ns = 0
        #: every epoch under which this server actually executed a
        #: mutation -- the ``split-epoch`` invariant asserts these sets are disjoint
        #: across servers (at most one mutation-accepting server per epoch)
        self.epochs_served: set[int] = set()
        #: replication link to the standby while leading (set by
        #: ``make_ha_pair``); its reachability gates solo acknowledgment
        self.link = None
        self.fenced_reason = ""
        server.fencing = self

    # -- bookkeeping -------------------------------------------------------

    def _count(self, field: str, delta: int = 1) -> None:
        stats = getattr(self.server, "server_stats", None)
        if stats is not None:
            setattr(stats, field, getattr(stats, field) + delta)

    def _set_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        stats = getattr(self.server, "server_stats", None)
        if stats is not None:
            stats.fencing_epoch = epoch

    def _pause_reaping(self, paused: bool) -> None:
        sessions = getattr(self.server, "sessions", None)
        if sessions is not None:
            sessions.reaping_paused = paused

    # -- transitions -------------------------------------------------------

    def lead(self) -> None:
        """Acquire (or re-acquire) leadership from the witness.

        Raises :class:`LeadershipRefused` while another lease is live and
        :class:`WitnessUnreachableError` across a partition -- in both
        cases the server stays a follower.
        """
        lease = self.witness.acquire(self.name)
        fresh = lease.epoch != self.epoch or not self.is_leader
        self._set_epoch(lease.epoch)
        self.is_leader = True
        self.fenced_reason = ""
        self.lease_expires_ns = self.server.clock.now_ns + int(
            lease.duration_s * 1e9
        )
        if fresh:
            self._count("fencing_leases_acquired")
        self._pause_reaping(False)

    def fence(self, reason: str) -> None:
        """Stop accepting mutations (lease lost, superseded, or demoted)."""
        if self.is_leader:
            self.is_leader = False
            self._count("fencing_self_fences")
        self.fenced_reason = reason
        self._pause_reaping(True)
        link = self.link
        if link is not None and getattr(link, "attached", False):
            # A fenced ex-primary must not keep shipping its (stale) ops.
            link.detach()

    def observe_epoch(self, epoch: int, hint: str = "") -> None:
        """Adopt a higher epoch seen elsewhere (ship, checkpoint, restore).

        A leader observing a higher epoch has provably been superseded
        and fences immediately.
        """
        if epoch > self.epoch:
            self._set_epoch(epoch)
            if hint:
                self.peer_hint = hint
            if self.is_leader:
                self.fence(f"superseded by epoch {epoch}")

    def _try_renew(self, now_ns: int) -> bool:
        """Renew the lease at the witness; fences on refusal.

        Returns ``True`` when the lease was extended, ``False`` when the
        witness was unreachable (caller decides what that means) or the
        epoch was superseded (already fenced on return).
        """
        try:
            lease = self.witness.renew(self.name, self.epoch)
        except WitnessUnreachableError:
            return False
        except LeadershipRefused as exc:
            self._count("fencing_leases_expired")
            if exc.epoch > self.epoch:
                self._set_epoch(exc.epoch)
            if exc.holder:
                self.peer_hint = exc.holder
            self.fence("lease superseded at the witness")
            return False
        self.lease_expires_ns = now_ns + int(lease.duration_s * 1e9)
        self._count("fencing_leases_renewed")
        return True

    # -- the fence itself --------------------------------------------------

    def shed_stat(self, proc: int, now_ns: int) -> int | None:
        """Decide a non-exempt call's fate *before* execution.

        Returns ``None`` to let the call through, or the accept-stat to
        shed it with (``RPC_NOT_LEADER`` for mutations on a non-leader,
        ``RPC_BUSY`` for mutations that cannot safely be acknowledged).
        Called from :meth:`RpcServer.dispatch_record` after the reply-
        cache lookup -- retransmits of executed calls always replay.
        """
        if self.is_leader and now_ns >= self.lease_expires_ns:
            if not self._try_renew(now_ns) and self.is_leader:
                # Witness unreachable with an expired lease: the witness
                # may already have granted our epoch away.  Self-fence.
                self._count("fencing_leases_expired")
                self.fence("lease expired and witness unreachable")
        if proc not in MUTATING_PROCS:
            return None  # reads drain on a fenced server
        if not self.is_leader:
            self._count("fencing_not_leader_sheds")
            return msg.RPC_NOT_LEADER
        link = self.link
        if (
            link is not None
            and getattr(link, "attached", False)
            and not link.reachable()
        ):
            # The standby is unreachable.  Acknowledging a mutation that
            # cannot replicate risks losing an acked write, so either get
            # the witness's blessing to go solo (while we keep renewing,
            # the detached standby can never be granted leadership) or
            # refuse the call unexecuted.
            if self._try_renew(now_ns):
                link.detach()
            elif self.is_leader:
                return msg.RPC_BUSY  # witness unreachable too: do not ack
            else:
                self._count("fencing_not_leader_sheds")
                return msg.RPC_NOT_LEADER
        self.epochs_served.add(self.epoch)
        return None

    def reply_verf(self) -> OpaqueAuth:
        """The ``AUTH_LEADER_EPOCH`` verifier stamped on every reply."""
        hint = self.name if self.is_leader else self.peer_hint
        return leader_epoch_auth(self.epoch, self.is_leader, hint)
