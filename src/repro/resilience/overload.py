"""Overload control: bounded queues, fair shedding, cancellation.

A healthy Cricket server facing more traffic than it can execute must
*degrade gracefully*: refuse cheap and early, never queue unboundedly, never
burn GPU time on work whose caller has already given up, and never let one
hot tenant starve the rest.  This module is the server-side machinery for
that, split into two layers so both the deterministic virtual-time harness
and the threaded TCP server can share one implementation:

:class:`OverloadQueue`
    A *pure data structure* (no threads, no clocks of its own) that decides
    admission: bounded per-server/per-client depth (a full queue refuses
    the newest arrival), weighted fair queueing over client identities,
    and deadline-aware dequeue.  Deterministic given a deterministic
    caller, which is what lets the simulator's ``overload_storm`` nemesis
    event replay schedules bit-for-bit.

:class:`OverloadController`
    A small :class:`threading.Condition` wrapper around the queue providing
    blocking admission for the threaded server: bounded concurrency slots,
    FIFO-fair wakeups in queue (WFQ) order, and cancellation of waiters.
    The fast path (idle server) admits without ever touching the condition
    variable, so single-threaded loopback dispatch cannot deadlock.

Shedding surfaces as :data:`~repro.oncrpc.message.RPC_BUSY` (retryable),
expired deadlines as :data:`~repro.oncrpc.message.CALL_EXPIRED` (fatal) and
cancellation as :data:`~repro.oncrpc.message.CALL_CANCELLED` (fatal); see
:mod:`repro.oncrpc.errors` for the client-side mapping.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.resilience.stats import ServerStats


class CallCancelledError(Exception):
    """Raised inside a handler when its call's cancel token fires.

    Handlers observe cancellation *cooperatively*: they check
    :meth:`CancelToken.requested` (or call :meth:`CancelToken.raise_if_requested`)
    at safe points -- after undoing side effects -- and the server maps this
    exception to a ``CALL_CANCELLED`` reply.
    """


class CancelToken:
    """A one-way latch signalling that a call should abort at a safe point.

    Set once and polled, never waited on: a boolean (a store is atomic
    under the GIL), because every call builds one.
    """

    __slots__ = ("_requested",)

    def __init__(self) -> None:
        self._requested = False

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._requested = True

    @property
    def requested(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._requested

    def raise_if_requested(self) -> None:
        """Raise :class:`CallCancelledError` if cancellation was requested."""
        if self._requested:
            raise CallCancelledError("call cancelled at safe point")


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs for :class:`OverloadQueue` / :class:`OverloadController`.

    The defaults are deliberately permissive: enabling overload control with
    a default config must not change the behaviour of a lightly loaded
    server.
    """

    #: calls executing concurrently before new arrivals start queueing
    max_concurrency: int = 1
    #: total queued (not yet executing) calls across all clients
    max_queue_depth: int = 64
    #: queued calls per client identity (0 disables the per-client bound)
    max_queue_depth_per_client: int = 0
    #: WFQ weight per identity; identities absent here weigh 1.0
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")

    def weight_of(self, identity: str) -> float:
        """Fair-queueing weight for ``identity``."""
        weight = self.weights.get(identity, 1.0)
        return weight if weight > 0 else 1.0


@dataclass
class Ticket:
    """One queued (or executing) call as tracked by :class:`OverloadQueue`."""

    identity: str
    xid: int
    #: absolute expiry in the server clock domain; None = no deadline
    expires_at_ns: int | None = None
    #: shared with the executing handler via ``CallContext.cancel``
    cancel: CancelToken = field(default_factory=CancelToken)
    #: WFQ virtual finish time, assigned at admission
    vft: float = 0.0
    #: monotonically increasing admission sequence (arrival order tiebreak)
    seq: int = 0

    def expired(self, now_ns: int) -> bool:
        """True when the propagated deadline has already passed."""
        return self.expires_at_ns is not None and now_ns >= self.expires_at_ns


@dataclass(frozen=True)
class Refusal:
    """Why :meth:`OverloadQueue.offer` turned a call away."""

    #: "busy" (shed -> RPC_BUSY) or "expired" (-> CALL_EXPIRED)
    kind: str
    detail: str


class OverloadQueue:
    """Deterministic admission queue: bounds, shedding, WFQ, deadlines.

    Not thread-safe by itself -- :class:`OverloadController` provides the
    locking for threaded servers, and the ``overload_storm`` nemesis event drives it from a
    single virtual-time loop.
    """

    def __init__(self, config: OverloadConfig, stats: ServerStats | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else ServerStats()
        self._queue: list[Ticket] = []
        self._seq = itertools.count()
        #: per-identity last virtual finish time (WFQ state)
        self._last_vft: dict[str, float] = {}
        #: global virtual clock = vft of the most recently dequeued ticket
        self._vclock = 0.0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    def depth_of(self, identity: str) -> int:
        """Number of queued tickets for one client identity."""
        return sum(1 for t in self._queue if t.identity == identity)

    def tickets(self) -> Iterable[Ticket]:
        """Snapshot of queued tickets (dequeue order not implied)."""
        return tuple(self._queue)

    # -- admission ---------------------------------------------------------

    def offer(
        self,
        identity: str,
        xid: int,
        now_ns: int,
        *,
        expires_at_ns: int | None = None,
    ) -> Ticket | Refusal:
        """Admit a call into the queue, or explain why not.

        Expired work is refused first (executing it helps nobody), then
        the per-client bound, then the server bound, which refuses the
        newest arrival: the call being offered.
        """
        cfg = self.config
        if expires_at_ns is not None and now_ns >= expires_at_ns:
            self.stats.deadline_expired_in_queue += 1
            return Refusal("expired", "deadline passed before admission")

        if (
            cfg.max_queue_depth_per_client > 0
            and self.depth_of(identity) >= cfg.max_queue_depth_per_client
        ):
            self.stats.overload_shed += 1
            return Refusal("busy", f"per-client queue bound for {identity}")

        # Ticket first: a call the full queue refuses still advances its
        # tenant's fair-share clock.
        ticket = self._make_ticket(identity, xid, expires_at_ns)
        if len(self._queue) >= cfg.max_queue_depth:
            self.stats.overload_shed += 1
            return Refusal("busy", "server queue full")
        self._queue.append(ticket)
        self.stats.queue_peak_depth = max(self.stats.queue_peak_depth, len(self._queue))
        return ticket

    def _make_ticket(self, identity: str, xid: int, expires_at_ns: int | None) -> Ticket:
        weight = self.config.weight_of(identity)
        start = max(self._last_vft.get(identity, 0.0), self._vclock)
        vft = start + 1.0 / weight
        self._last_vft[identity] = vft
        return Ticket(
            identity=identity,
            xid=xid,
            expires_at_ns=expires_at_ns,
            vft=vft,
            seq=next(self._seq),
        )

    # -- dequeue -----------------------------------------------------------

    def pop_next(self, now_ns: int) -> tuple[Ticket | None, list[Ticket]]:
        """Dequeue the next runnable ticket in WFQ order.

        Returns ``(ticket, dropped)`` where ``dropped`` holds tickets whose
        deadline expired or whose cancel token fired while they queued --
        the caller owes each of them a CALL_EXPIRED / CALL_CANCELLED reply.
        """
        dropped: list[Ticket] = []
        while self._queue:
            best = min(self._queue, key=lambda t: (t.vft, t.seq))
            self._queue.remove(best)
            if best.cancel.requested:
                self.stats.cancelled_in_queue += 1
                dropped.append(best)
                continue
            if best.expired(now_ns):
                self.stats.deadline_expired_in_queue += 1
                dropped.append(best)
                continue
            self._vclock = max(self._vclock, best.vft)
            return best, dropped
        return None, dropped

    def cancel(self, identity: str, xid: int) -> bool:
        """Fire the cancel token of a queued ticket; True if one matched.

        The ticket stays queued until :meth:`pop_next` skips it, keeping
        cancellation O(1) and the queue structure simple.
        """
        for ticket in self._queue:
            if ticket.identity == identity and ticket.xid == xid:
                ticket.cancel.cancel()
                return True
        return False


class OverloadController:
    """Thread-safe blocking admission built on :class:`OverloadQueue`.

    The threaded server calls :meth:`acquire` before executing each call and
    :meth:`release` after.  When fewer than ``max_concurrency`` calls are
    executing and nothing is queued, admission is immediate; otherwise the
    call queues (subject to shedding) and its thread blocks until the queue
    hands it a turn, its deadline passes, or it is cancelled.
    """

    #: acquire() outcomes
    ADMITTED = "admitted"
    BUSY = "busy"
    EXPIRED = "expired"
    CANCELLED = "cancelled"

    def __init__(
        self,
        config: OverloadConfig,
        *,
        now_ns: Callable[[], int],
        stats: ServerStats | None = None,
    ) -> None:
        self.queue = OverloadQueue(config, stats)
        self._now_ns = now_ns
        self._cond = threading.Condition()
        self._active = 0
        #: tickets admitted by pop_next whose waiter has not yet woken
        self._granted: dict[int, Ticket] = {}
        #: tickets dropped (expired/cancelled) awaiting their waiter
        self._dropped: dict[int, str] = {}

    @property
    def stats(self) -> ServerStats:
        """The stats sink shared with the owning server."""
        return self.queue.stats

    @property
    def active(self) -> int:
        """Calls currently executing under a concurrency slot."""
        with self._cond:
            return self._active

    def acquire(
        self,
        identity: str,
        xid: int,
        *,
        expires_at_ns: int | None = None,
        cancel: CancelToken | None = None,
    ) -> tuple[str, CancelToken | None]:
        """Admit the calling thread, blocking if the server is saturated.

        Returns ``(outcome, token)`` where outcome is one of
        :data:`ADMITTED` / :data:`BUSY` / :data:`EXPIRED` /
        :data:`CANCELLED` and token is the call's cancel token (shared with
        the queue so ``rpc_cancel`` reaches waiting and executing calls
        alike).
        """
        with self._cond:
            now = self._now_ns()
            if expires_at_ns is not None and now >= expires_at_ns:
                self.stats.deadline_expired_in_queue += 1
                return self.EXPIRED, None
            # Fast path: free slot and nobody queued ahead of us.
            if self._active < self.queue.config.max_concurrency and not len(self.queue):
                outcome = self.queue.offer(identity, xid, now, expires_at_ns=expires_at_ns)
                if isinstance(outcome, Refusal):
                    return self._refusal_outcome(outcome), None
                if cancel is not None and cancel.requested:
                    outcome.cancel.cancel()
                ticket, dropped = self.queue.pop_next(now)
                self._note_dropped(dropped)
                if ticket is None:
                    return self._drop_outcome(outcome), None
                self._active += 1
                return self.ADMITTED, ticket.cancel
            outcome = self.queue.offer(identity, xid, now, expires_at_ns=expires_at_ns)
            if isinstance(outcome, Refusal):
                return self._refusal_outcome(outcome), None
            ticket = outcome
            if cancel is not None and cancel.requested:
                ticket.cancel.cancel()
            while True:
                granted = self._granted.pop(ticket.seq, None)
                if granted is not None:
                    return self.ADMITTED, granted.cancel
                reason = self._dropped.pop(ticket.seq, None)
                if reason is not None:
                    return reason, None
                # An rpc_cancel fires our token while we wait; pop_next will
                # classify us on the next pump, but when no pump is coming
                # (no active calls) classify here.
                if self._active == 0:
                    self._pump_locked()
                    continue
                deadline_wait = None
                if ticket.expires_at_ns is not None:
                    deadline_wait = max(
                        0.0, (ticket.expires_at_ns - self._now_ns()) / 1e9
                    )
                    # Never sleep past the deadline; 50ms cap keeps waiters
                    # responsive to cancel under WallClock.
                self._cond.wait(
                    timeout=min(0.05, deadline_wait) if deadline_wait is not None else 0.05
                )
                if ticket.expires_at_ns is not None or ticket.cancel.requested:
                    self._pump_locked()

    def release(self) -> None:
        """Return a concurrency slot and wake the next queued call."""
        with self._cond:
            self._active = max(0, self._active - 1)
            self._pump_locked()

    def cancel(self, identity: str, xid: int) -> bool:
        """Cancel a queued call by (identity, xid); True if one matched."""
        with self._cond:
            hit = self.queue.cancel(identity, xid)
            if hit:
                self._pump_locked()
            return hit

    def _pump_locked(self) -> None:
        """Grant slots to queued tickets in WFQ order (cond held)."""
        moved = False
        while self._active < self.queue.config.max_concurrency:
            ticket, dropped = self.queue.pop_next(self._now_ns())
            self._note_dropped(dropped)
            moved = moved or bool(dropped)
            if ticket is None:
                break
            self._active += 1
            self._granted[ticket.seq] = ticket
            moved = True
        else:
            # Slots full: still sweep expired/cancelled waiters so they
            # stop blocking. pop_next would admit, so only classify drops.
            swept = [
                t
                for t in self.queue.tickets()
                if t.cancel.requested or t.expired(self._now_ns())
            ]
            for t in swept:
                self.queue._queue.remove(t)
                if t.cancel.requested:
                    self.stats.cancelled_in_queue += 1
                    self._dropped[t.seq] = self.CANCELLED
                else:
                    self.stats.deadline_expired_in_queue += 1
                    self._dropped[t.seq] = self.EXPIRED
                moved = True
        if moved:
            self._cond.notify_all()

    def _note_dropped(self, dropped: list[Ticket]) -> None:
        for t in dropped:
            if t.cancel.requested:
                self._dropped[t.seq] = self.CANCELLED
            else:
                self._dropped[t.seq] = self.EXPIRED

    def _refusal_outcome(self, refusal: Refusal) -> str:
        return self.EXPIRED if refusal.kind == "expired" else self.BUSY

    def _drop_outcome(self, ticket: Ticket) -> str:
        reason = self._dropped.pop(ticket.seq, None)
        if reason is not None:
            return reason
        return self.CANCELLED if ticket.cancel.requested else self.EXPIRED
