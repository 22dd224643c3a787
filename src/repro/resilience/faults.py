"""Deterministic fault injection for any RPC transport.

:class:`FaultInjectingTransport` wraps a :class:`~repro.oncrpc.transport.Transport`
and perturbs traffic according to a :class:`FaultPlan`.  All randomness
comes from one ``random.Random`` seeded by the plan, and decisions are
drawn in a fixed order per operation, so a given (plan, workload) pair
always injects the same fault sequence -- failures are replayable, which
is what makes resilience *testable*.  A wrapper whose fault window is
shut builds no stream: it counts the draws each operation would make,
and the first decision that can fire replays them (see
:attr:`FaultInjectingTransport.active`).

Fault taxonomy (the names used in counters and docs):

``drop_request``
    The outbound record is silently discarded; the server never sees the
    call.  On a loopback transport the next ``recv_record`` then fails
    immediately ("no reply pending"); on TCP it times out.
``drop_reply``
    The call executes but its reply is discarded on receive -- the case
    that makes retried non-idempotent calls dangerous without the server's
    at-most-once cache.
``delay``
    The record is delivered but charged ``delay_s`` of virtual time.
``truncate``
    The reply record is chopped, modelling payload corruption; the client
    sees an undecodable message.
``corrupt``
    One byte of the record is flipped in place (request or reply).  The
    record still *parses* as the right length, which is exactly the fault
    record marking alone cannot detect -- pair with
    :class:`~repro.oncrpc.transport.ChecksummedTransport` and a server's
    ``crc_records`` to turn silent corruption into a clean retransmit.
``duplicate``
    The reply is delivered twice; the second copy arrives as a stale
    record in front of a later call's reply.
``disconnect``
    The connection breaks: this operation raises and the transport stays
    broken until :meth:`FaultInjectingTransport.reconnect` or until its
    fault window closes (``active = False``).
``disconnect_after_bytes``
    One scripted disconnect once a cumulative byte count has crossed the
    wire -- the "server died mid-upload" scenario.
"""

from __future__ import annotations

import errno
import random
import weakref
from dataclasses import dataclass, replace

from repro.net.simclock import SimClock
from repro.oncrpc.transport import Transport, reconnect_if_supported
from repro.oncrpc.errors import RpcTransportError
from repro.resilience.stats import ResilienceStats
from repro.xdr.encoder import Buffer, GatherRecord, flatten


def _replay(rng: random.Random, draws: int) -> None:
    """Advance ``rng`` past ``draws`` uniform draws a shut window counted."""
    for _ in range(draws):
        rng.random()


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and scripted triggers for injected faults.

    Rates are per-operation probabilities in ``[0, 1]``.  The ``*_first``
    fields deterministically fault the first N matching operations
    regardless of the rates -- convenient for exact-schedule tests.
    """

    #: probability an outbound record is silently dropped
    drop_request_rate: float = 0.0
    #: probability an inbound reply is discarded after the server executed
    drop_reply_rate: float = 0.0
    #: probability a reply record is truncated (corruption)
    truncate_rate: float = 0.0
    #: probability a record has one byte flipped (applies to both directions)
    corrupt_rate: float = 0.0
    #: probability a reply is delivered twice
    duplicate_rate: float = 0.0
    #: probability an operation is delayed by ``delay_s``
    delay_rate: float = 0.0
    #: virtual seconds charged per injected delay
    delay_s: float = 0.002
    #: probability a send hits a connection reset (transport breaks)
    disconnect_rate: float = 0.0
    #: break the connection once this many bytes have been sent (None = never)
    disconnect_after_bytes: int | None = None
    #: deterministically drop the first N requests
    drop_request_first: int = 0
    #: deterministically drop the first N replies
    drop_reply_first: int = 0
    #: deterministically corrupt the first N requests
    corrupt_request_first: int = 0
    #: deterministically corrupt the first N replies
    corrupt_reply_first: int = 0
    #: seed for the fault decision stream
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "drop_request_rate", "drop_reply_rate", "truncate_rate",
            "duplicate_rate", "delay_rate", "disconnect_rate", "corrupt_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.disconnect_after_bytes is not None and self.disconnect_after_bytes < 0:
            raise ValueError(
                "disconnect_after_bytes must be >= 0, "
                f"got {self.disconnect_after_bytes}"
            )
        for name in (
            "drop_request_first", "drop_reply_first",
            "corrupt_request_first", "corrupt_reply_first",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def wrap(self, inner: Transport, **kwargs) -> "FaultInjectingTransport":
        """``inner`` wrapped in the transport this plan drives."""
        return FaultInjectingTransport(inner, self, **kwargs)


class FaultInjectingTransport:
    """Wraps any transport, injecting faults per a :class:`FaultPlan`.

    The wrapper is itself a valid :class:`~repro.oncrpc.transport.Transport`,
    so it slots between a client and its real transport with no other code
    changes.  Injected faults surface as the same exceptions real faults
    would, which is the point: the retry/recovery machinery cannot tell
    the difference.
    """

    #: main-stream draws per send or receive (plus one corrupt draw)
    DRAWS_PER_OP = 3

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        *,
        clock: SimClock | None = None,
        stats: ResilienceStats | None = None,
        active: bool = True,
        seed: int | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.stats = stats if stats is not None else ResilienceStats()
        self._active = active
        #: seed of this connection's decision streams (``plan.seed`` unless
        #: a :class:`FaultyEndpoint` hands out connection ``n``)
        self.seed = plan.seed if seed is None else seed
        # Both streams are built by _catch_up, on the first decision that
        # can fire.  Corruption decisions come from their own stream:
        # adding the corrupt fault must not shift the draws (and therefore
        # the fault schedules) of plans written before it existed.
        self._rng: random.Random | None = None
        self._corrupt_rng: random.Random | None = None
        #: operations made while the window was shut, whose draws the
        #: streams still owe
        self._shut_ops = 0
        self._broken = False
        self._bytes_sent = 0
        self._byte_trip_armed = plan.disconnect_after_bytes is not None
        self._requests_seen = 0
        self._replies_seen = 0
        #: replies queued for re-delivery by the duplicate fault
        self._stash: list[bytes] = []

    @property
    def active(self) -> bool:
        """Whether faults fire (the fault window is open).

        When False the wrapper passes records through untouched and only
        counts the draws each operation would make (:data:`DRAWS_PER_OP`
        main, one corrupt); the first operation of an open window builds
        the streams if need be and replays the counted draws first, so
        (like :class:`SlowTransport`) a nemesis can open and close a fault
        window mid-run without shifting the decision stream of later
        operations, and a connection whose window never opens never
        builds a ``random.Random``.  Closing the window also heals an
        injected disconnect, so the next retry gets through without a
        reconnect round trip.
        """
        return self._active

    @active.setter
    def active(self, active: bool) -> None:
        self._active = active
        if not active:
            self._broken = False

    # -- helpers -----------------------------------------------------------

    def _catch_up(self) -> None:
        """Build the decision streams if need be and replay every draw a
        shut window counted, so the next draw is the one an eagerly built
        stream would give."""
        if self._rng is None:
            self._rng = random.Random(self.seed)
            self._corrupt_rng = random.Random(self.seed ^ 0xC0FFEE)
        if self._shut_ops:
            _replay(self._rng, self.DRAWS_PER_OP * self._shut_ops)
            _replay(self._corrupt_rng, self._shut_ops)
            self._shut_ops = 0

    def _hit(self, rate: float) -> bool:
        """Draw one decision from the main stream (caught up first)."""
        return self._rng.random() < rate

    def _corrupt_hit(self) -> bool:
        """Draw one corruption decision from the dedicated stream."""
        return self._corrupt_rng.random() < self.plan.corrupt_rate

    def _flip_byte(self, record: Buffer | GatherRecord) -> Buffer:
        """Flip one byte of ``record`` (position from the corrupt stream).

        The result is a new buffer; a gather record is flattened first,
        which draws the same position (it has the same length).
        """
        self._catch_up()
        if not len(record):
            return record
        record = flatten(record)
        idx = self._corrupt_rng.randrange(len(record))
        return record[:idx] + bytes([record[idx] ^ 0x5A]) + record[idx + 1 :]

    def _fault(self, kind: str) -> None:
        self.stats.note_fault(kind)

    def _charge_delay(self) -> None:
        self._fault("delay")
        if self.clock is not None:
            self.clock.advance_s(self.plan.delay_s)

    def _check_broken(self) -> None:
        if self._broken:
            raise RpcTransportError("transport broken by injected disconnect")

    # -- Transport interface -----------------------------------------------

    def send_record(self, record: Buffer | GatherRecord) -> None:
        """Send one record, possibly delaying, dropping or disconnecting.

        All rate decisions are drawn up front, in a fixed order, before any
        fault fires: an earlier fault (or a scripted ``*_first`` trigger)
        must not change how many draws this operation consumes, or the RNG
        stream -- and with it every later fault decision -- would shift.
        """
        self._check_broken()
        plan = self.plan
        self._requests_seen += 1
        if not self._active:
            self._shut_ops += 1
        else:
            self._catch_up()
            delay_hit = self._hit(plan.delay_rate)
            disconnect_hit = self._hit(plan.disconnect_rate)
            drop_hit = self._hit(plan.drop_request_rate)
            corrupt_hit = self._corrupt_hit()
            if delay_hit:
                self._charge_delay()
            if disconnect_hit:
                self._fault("disconnect")
                self._broken = True
                raise RpcTransportError("injected disconnect during send")
            if self._byte_trip_armed and (
                self._bytes_sent + len(record) > plan.disconnect_after_bytes
            ):
                self._byte_trip_armed = False
                self._fault("disconnect_after_bytes")
                self._broken = True
                raise RpcTransportError(
                    f"injected disconnect after {self._bytes_sent} bytes sent"
                )
            if self._requests_seen <= plan.drop_request_first or drop_hit:
                self._fault("drop_request")
                return  # the wire ate it; the server never sees this call
            if self._requests_seen <= plan.corrupt_request_first or corrupt_hit:
                self._fault("corrupt")
                record = self._flip_byte(record)
        self._bytes_sent += len(record)
        self.inner.send_record(record)

    def recv_record(self) -> bytes:
        """Receive one record, possibly duplicated, truncated or dropped.

        As in :meth:`send_record`, every rate is drawn before any fault is
        applied, so drop/truncate outcomes (including scripted
        ``drop_reply_first`` triggers) never shift the decision stream.
        A record that is cut, changed or stashed is flattened first: a
        landed one is a view of its transport's arena.
        """
        self._check_broken()
        plan = self.plan
        if self._stash:
            return self._stash.pop(0)
        record = self.inner.recv_record()
        self._replies_seen += 1
        if not self._active:
            self._shut_ops += 1
        else:
            self._catch_up()
            drop_hit = self._hit(plan.drop_reply_rate)
            truncate_hit = self._hit(plan.truncate_rate)
            duplicate_hit = self._hit(plan.duplicate_rate)
            corrupt_hit = self._corrupt_hit()
            if self._replies_seen <= plan.drop_reply_first or drop_hit:
                self._fault("drop_reply")
                # The reply is gone; behave like a loss the caller can retry.
                raise RpcTransportError("injected reply loss")
            if truncate_hit and len(record) > 4:
                self._fault("truncate")
                return flatten(record)[: len(record) // 2]
            if self._replies_seen <= plan.corrupt_reply_first or corrupt_hit:
                self._fault("corrupt")
                record = self._flip_byte(record)
            if duplicate_hit:
                self._fault("duplicate")
                record = flatten(record)
                self._stash.append(record)
        return record

    def reconnect(self, *, force: bool = False) -> None:
        """Heal an injected disconnect (delegates if the inner can too)."""
        reconnect_if_supported(self.inner, force=force)
        self._broken = False
        self._stash.clear()

    def close(self) -> None:
        """Close the wrapped transport."""
        self.inner.close()


# -- limplock (gray-failure) faults ------------------------------------------


@dataclass(frozen=True)
class SlowFaultPlan:
    """A latency distribution for a limping-but-alive component.

    Unlike :class:`FaultPlan`, nothing here drops, corrupts or breaks
    anything: every operation *succeeds*, just slowly.  That is the gray
    failure the binary fault model cannot express -- the component passes
    every liveness probe while destroying tail latency.

    ``base_delay_s``
        Charged on every operation (both directions).
    ``jitter_s``
        Uniform extra delay in ``[0, jitter_s)`` drawn per operation from
        the seeded stream.
    ``spike_rate`` / ``spike_s``
        With probability ``spike_rate`` an operation additionally stalls
        for ``spike_s`` -- the occasional multi-hundred-ms hiccup that
        dominates p99 long before it moves p50.
    ``throughput_Bps``
        Models a degraded link: each operation is additionally charged
        ``len(record) / throughput_Bps`` seconds.  None = unmetered.
    """

    base_delay_s: float = 0.0
    jitter_s: float = 0.0
    spike_rate: float = 0.0
    spike_s: float = 0.0
    throughput_Bps: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base_delay_s", "jitter_s", "spike_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.spike_rate <= 1.0:
            raise ValueError(f"spike_rate must be in [0, 1], got {self.spike_rate}")
        if self.throughput_Bps is not None and self.throughput_Bps <= 0:
            raise ValueError(
                f"throughput_Bps must be positive, got {self.throughput_Bps}"
            )

    #: uniform draws :meth:`delay_s` makes per operation
    DRAWS_PER_OP = 2

    def delay_s(self, rng: random.Random, nbytes: int) -> float:
        """Draw this operation's total delay (fixed draw order)."""
        delay = self.base_delay_s
        jitter_draw = rng.random()
        spike_draw = rng.random()
        if self.jitter_s > 0.0:
            delay += jitter_draw * self.jitter_s
        if self.spike_rate > 0.0 and spike_draw < self.spike_rate:
            delay += self.spike_s
        if self.throughput_Bps is not None and nbytes > 0:
            delay += nbytes / self.throughput_Bps
        return delay

    def wrap(self, inner: Transport, **kwargs) -> "SlowTransport":
        """``inner`` wrapped in the transport this plan drives."""
        return SlowTransport(inner, self, **kwargs)


class SlowTransport:
    """Wraps any transport, charging a :class:`SlowFaultPlan`'s latency.

    Like :class:`FaultInjectingTransport` this is itself a valid
    transport; unlike it, every record is delivered intact.  ``active``
    can be flipped at runtime so a nemesis can turn a healthy
    endpoint into a limping one mid-run without reconnecting.  As there,
    an inactive operation only counts its draws and the first active one
    builds the stream and replays them.
    """

    def __init__(
        self,
        inner: Transport,
        plan: SlowFaultPlan,
        *,
        clock: SimClock | None = None,
        stats: ResilienceStats | None = None,
        active: bool = True,
        seed: int | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.stats = stats if stats is not None else ResilienceStats()
        self.active = active
        #: seed of this connection's delay stream (see FaultInjectingTransport)
        self.seed = plan.seed if seed is None else seed
        self._rng: random.Random | None = None
        #: inactive operations whose draws the stream still owes
        self._shut_ops = 0
        #: total virtual seconds of limplock charged so far
        self.charged_s = 0.0

    def _charge(self, nbytes: int) -> None:
        # Count the draws an inactive operation skips and replay them
        # before the next active one, so toggling ``active`` mid-run does
        # not shift the delay schedule of later operations.
        if not self.active:
            self._shut_ops += 1
            return
        if self._rng is None:
            self._rng = random.Random(self.seed)
        if self._shut_ops:
            _replay(self._rng, self.plan.DRAWS_PER_OP * self._shut_ops)
            self._shut_ops = 0
        delay = self.plan.delay_s(self._rng, nbytes)
        if delay <= 0.0:
            return
        self.stats.note_fault("slow")
        self.charged_s += delay
        if self.clock is not None:
            self.clock.advance_s(delay)

    def send_record(self, record: bytes) -> None:
        self._charge(len(record))
        self.inner.send_record(record)

    def recv_record(self) -> bytes:
        record = self.inner.recv_record()
        self._charge(len(record))
        return record

    def reconnect(self, *, force: bool = False) -> None:
        reconnect_if_supported(self.inner, force=force)

    def close(self) -> None:
        self.inner.close()


class FaultyEndpoint:
    """Wraps a failover endpoint so every connection it hands out is faulty.

    ``plan`` builds the transport each connection is wrapped in: a
    :class:`FaultPlan` a :class:`FaultInjectingTransport` (drops, duplicate
    replies, disconnects), a :class:`SlowFaultPlan` a :class:`SlowTransport`
    (limplock).  The plan is validated once, when it is built; connection
    ``n`` gets the same plan and draws from its own stream, seeded
    ``plan.seed + n``.  One :meth:`set_active` switch opens or heals the
    fault window on the endpoint and every transport it has handed out that
    is still in use -- how the simulation nemesis turns faults on and off
    over virtual time.  A connection made and used while the window is
    shut only counts its draws, so it builds no RNG stream unless the
    window opens on it.  The endpoint holds its transports weakly: a
    connection its client dropped is freed with its streams and receive
    arena, so a retry storm's thousands of connections do not outlive it.
    Everything else (``name``, ``kill``, partition links, ...) is delegated
    to the wrapped endpoint.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan | SlowFaultPlan,
        *,
        clock: SimClock | None = None,
        stats: ResilienceStats | None = None,
        active: bool = True,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.stats = stats
        self.active = active
        self._transports: weakref.WeakSet[FaultInjectingTransport | SlowTransport] = (
            weakref.WeakSet()
        )
        self._next_seed = plan.seed

    def connect(self) -> FaultInjectingTransport | SlowTransport:
        transport = self.inner.connect()
        faulty = self.plan.wrap(
            transport,
            clock=self.clock,
            stats=self.stats,
            active=self.active,
            seed=self._next_seed,
        )
        self._next_seed += 1
        self._transports.add(faulty)
        return faulty

    def set_active(self, active: bool) -> None:
        """Open (True) or heal (False) the fault window on every live pipe."""
        self.active = active
        for transport in self._transports:
            transport.active = active

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


# -- storage faults ----------------------------------------------------------


class StorageCrashError(OSError):
    """The simulated machine died mid-storage-operation.

    Raised by :class:`FaultyStorage` for torn writes and
    crash-before-rename: the caller's process is modeled as gone, so the
    interesting question is what the *next* process finds on disk.
    """


@dataclass(frozen=True)
class StorageFaultPlan:
    """Probabilities and scripted triggers for storage faults.

    Mirrors :class:`FaultPlan` for the durability layer.  Rates are
    per-operation probabilities; the ``*_next`` fields deterministically
    fault the next N matching operations regardless of the rates.

    ``torn_write``
        An atomic write crashes with only a seeded prefix of the data at
        the target path -- the disk state a crash leaves on a filesystem
        (or code path) without atomic replace.  This is exactly what
        generation fallback, and the migration receiver's recovery of a
        torn journal record, must survive.
    ``crash_before_rename``
        The temp file was written and fsynced but the crash lands before
        ``os.replace``: the target keeps its *old* content.  No data is
        torn; the write is simply lost.
    ``bit_flip``
        One bit of the payload flips silently (write or read side, its
        own RNG stream) -- the fault CRC sections exist to catch.
    ``partial_read``
        A read returns a prefix, modeling a short read of a file being
        written or a truncated sector.
    ``enospc``
        The write fails cleanly with ``ENOSPC``; nothing changes on disk.
    ``slow_fsync``
        The write *succeeds* but stalls for ``slow_fsync_s`` of virtual
        time first -- a limping disk (firmware GC pause, dying sector
        remaps).  The data is fine; the latency is the fault.  Requires
        the wrapper to be given a clock.
    """

    torn_write_rate: float = 0.0
    crash_before_rename_rate: float = 0.0
    bit_flip_rate: float = 0.0
    partial_read_rate: float = 0.0
    enospc_rate: float = 0.0
    slow_fsync_rate: float = 0.0
    #: virtual seconds each slow fsync stalls the writer
    slow_fsync_s: float = 0.05
    #: deterministically tear the next N atomic writes
    torn_write_next: int = 0
    #: deterministically crash-before-rename the next N atomic writes
    crash_before_rename_next: int = 0
    #: deterministically bit-flip the next N writes
    bit_flip_next: int = 0
    #: deterministically shorten the next N reads
    partial_read_next: int = 0
    #: deterministically ENOSPC the next N writes
    enospc_next: int = 0
    #: deterministically slow-fsync the next N writes
    slow_fsync_next: int = 0
    #: seed for the storage fault decision stream
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "torn_write_rate", "crash_before_rename_rate", "bit_flip_rate",
            "partial_read_rate", "enospc_rate", "slow_fsync_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.slow_fsync_s < 0:
            raise ValueError(f"slow_fsync_s must be >= 0, got {self.slow_fsync_s}")
        for name in (
            "torn_write_next", "crash_before_rename_next", "bit_flip_next",
            "partial_read_next", "enospc_next", "slow_fsync_next",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


class FaultyStorage:
    """Wraps a :class:`~repro.cricket.ckptstore.FileStorage`-shaped object.

    Presents the same interface, so the checkpoint store and the migration
    receiver's journal get storage faults without code changes.
    Scripted ``*_next`` counters are mutable state here (the plan stays
    frozen): each consumes one trigger per matching operation.
    """

    def __init__(
        self,
        inner,
        plan: StorageFaultPlan,
        *,
        stats: ResilienceStats | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.stats = stats if stats is not None else ResilienceStats()
        self.clock = clock
        self._rng = random.Random(plan.seed)
        self._flip_rng = random.Random(plan.seed ^ 0xD15C)
        # Slow-fsync decisions come from their own stream: adding the
        # limplock fault must not shift the draws of plans written
        # before it existed (same rule as the corrupt stream above).
        self._slow_rng = random.Random(plan.seed ^ 0x51055105)
        self._torn_left = plan.torn_write_next
        self._crash_left = plan.crash_before_rename_next
        self._flip_left = plan.bit_flip_next
        self._short_left = plan.partial_read_next
        self._enospc_left = plan.enospc_next
        self._slow_left = plan.slow_fsync_next

    def arm_torn(self, count: int = 1) -> None:
        """Tear the next ``count`` writes (on top of any already armed)."""
        self._torn_left += count

    def arm_slow_fsync(self, count: int, delay_s: float) -> None:
        """Stall ``count`` more writes for ``delay_s`` virtual seconds each.

        ``count=0`` disarms whatever was still pending (the disk was
        replaced).
        """
        self.plan = replace(self.plan, slow_fsync_s=delay_s)
        self._slow_left = self._slow_left + count if count else 0

    def _hit(self, rate: float) -> bool:
        return self._rng.random() < rate

    def _fault(self, kind: str) -> None:
        self.stats.note_fault(kind)

    def _flip_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        idx = self._flip_rng.randrange(len(data))
        bit = 1 << self._flip_rng.randrange(8)
        return data[:idx] + bytes([data[idx] ^ bit]) + data[idx + 1 :]

    def _slow_hit(self) -> bool:
        """Draw one slow-fsync decision from the dedicated stream."""
        return self._slow_rng.random() < self.plan.slow_fsync_rate

    def _charge_slow_fsync(self, slow_hit: bool) -> None:
        """Stall the writer if this write drew the limplock fault."""
        if self._slow_left > 0 or slow_hit:
            self._slow_left = max(0, self._slow_left - 1)
            self._fault("slow_fsync")
            if self.clock is not None:
                self.clock.advance_s(self.plan.slow_fsync_s)

    # -- storage interface ---------------------------------------------------

    def write_atomic(self, name: str, data: bytes) -> None:
        """Atomic write, possibly torn / lost / flipped / refused."""
        plan = self.plan
        torn_hit = self._hit(plan.torn_write_rate)
        crash_hit = self._hit(plan.crash_before_rename_rate)
        enospc_hit = self._hit(plan.enospc_rate)
        flip_hit = self._hit(plan.bit_flip_rate)
        slow_hit = self._slow_hit()
        if self._enospc_left > 0 or enospc_hit:
            self._enospc_left = max(0, self._enospc_left - 1)
            self._fault("enospc")
            raise OSError(errno.ENOSPC, f"no space left writing {name}")
        if self._torn_left > 0 or torn_hit:
            self._torn_left = max(0, self._torn_left - 1)
            self._fault("torn_write")
            cut = self._rng.randrange(1, max(2, len(data)))
            # The tear lands at the target path: post-crash disk state.
            self.inner.write_atomic(name, data[:cut])
            raise StorageCrashError(f"simulated crash mid-write of {name}")
        if self._crash_left > 0 or crash_hit:
            self._crash_left = max(0, self._crash_left - 1)
            self._fault("crash_before_rename")
            raise StorageCrashError(
                f"simulated crash before rename of {name} (old content kept)"
            )
        if self._flip_left > 0 or flip_hit:
            self._flip_left = max(0, self._flip_left - 1)
            self._fault("bit_flip")
            data = self._flip_bit(data)
        self._charge_slow_fsync(slow_hit)
        self.inner.write_atomic(name, data)

    def read(self, name: str) -> bytes:
        """Read, possibly shortened or bit-flipped."""
        plan = self.plan
        short_hit = self._hit(plan.partial_read_rate)
        flip_hit = self._hit(plan.bit_flip_rate)
        data = self.inner.read(name)
        if (self._short_left > 0 or short_hit) and len(data) > 1:
            self._short_left = max(0, self._short_left - 1)
            self._fault("partial_read")
            return data[: self._rng.randrange(1, len(data))]
        if self._flip_left > 0 or flip_hit:
            self._flip_left = max(0, self._flip_left - 1)
            self._fault("bit_flip")
            data = self._flip_bit(data)
        return data

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def remove(self, name: str) -> None:
        self.inner.remove(name)

    def listdir(self) -> list[str]:
        return self.inner.listdir()


# -- network partitions ------------------------------------------------------


@dataclass(frozen=True)
class PartitionWindow:
    """One timed connectivity cut among named nodes.

    During ``[start_s, end_s)`` of virtual time, nodes in different
    ``groups`` cannot exchange messages; nodes not named in any group
    form an implicit "rest" group that stays fully connected internally.
    ``oneway`` adds asymmetric cuts on top: each ``(src, dst)`` pair
    blocks that direction only -- the shape that executes a call but
    loses its reply, the worst case for at-most-once.
    """

    start_s: float
    end_s: float
    #: tuple of node-name groups; traffic *between* groups is blocked
    groups: tuple[tuple[str, ...], ...] = ()
    #: additional one-directional cuts, each ``(src, dst)``
    oneway: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s cannot be negative")
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")
        named = [name for group in self.groups for name in group]
        if len(named) != len(set(named)):
            raise ValueError("a node may appear in at most one group")

    def active(self, now_s: float) -> bool:
        return self.start_s <= now_s < self.end_s

    def blocks(self, src: str, dst: str) -> bool:
        """Is ``src -> dst`` traffic cut while this window is active?"""
        if (src, dst) in self.oneway:
            return True
        src_group = dst_group = None
        for index, group in enumerate(self.groups):
            if src in group:
                src_group = index
            if dst in group:
                dst_group = index
        # Unlisted nodes belong to the implicit rest group (index None ==
        # None compares equal, so two unlisted nodes stay connected).
        return src_group != dst_group


@dataclass(frozen=True)
class PartitionPlan:
    """A schedule of :class:`PartitionWindow` cuts over virtual time.

    Purely scheduled -- no randomness.  Nemesis schedules that want random
    partitions draw the window parameters from their own seeded RNG *up
    front* and hand the finished plan here, keeping the connectivity
    oracle itself trivially deterministic and replayable.
    """

    windows: tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))


class PartitionState:
    """Connectivity oracle: may ``src`` reach ``dst`` right now?

    Binds a :class:`PartitionPlan` to a clock.  Every networked seam in
    the HA topology consults one shared instance -- client/server
    endpoints (:class:`~repro.resilience.failover.LoopbackEndpoint`'s
    ``link``), the replication link's ``reachability``, and the witness's
    ``link_filter`` -- so a single plan cuts all of them consistently.
    """

    def __init__(self, plan: PartitionPlan, clock: SimClock) -> None:
        self.plan = plan
        self.clock = clock
        #: blocked (src, dst) lookups, for harness/debug visibility
        self.blocked = 0

    def allowed(self, src: str, dst: str) -> bool:
        now_s = self.clock.now_ns / 1e9
        for window in self.plan.windows:
            if window.active(now_s) and window.blocks(src, dst):
                self.blocked += 1
                return False
        return True

    def link_filter(self, witness_name: str = "witness"):
        """A ``Witness.link_filter`` viewing the witness as one node.

        Witness calls are round trips, so a node can talk to the witness
        only when *both* directions are currently allowed.
        """

        def reachable(holder: str) -> bool:
            return self.allowed(holder, witness_name) and self.allowed(
                witness_name, holder
            )

        return reachable

    def reachability(self, src: str, dst: str):
        """A zero-arg gate for ``ReplicationLink(reachability=...)``."""

        def reachable() -> bool:
            return self.allowed(src, dst)

        return reachable
