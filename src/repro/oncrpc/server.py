"""ONC RPC server (the Cricket-server role's RPC engine).

:class:`RpcServer` dispatches CALL messages to registered programs.  It can
serve real TCP connections (one thread per connection, like the rpcgen C
skeleton Cricket uses) or be driven in-process through
:meth:`RpcServer.dispatch_record`, which is what
:class:`~repro.oncrpc.transport.LoopbackTransport` calls.

Handlers receive ``(proc_args, context: CallContext)`` -- the arguments as a
read-only view of the request record -- and return the encoded result bytes
or a *writer* that packs them into the reply's encoder (see
:data:`repro.oncrpc.message.Payload`).  A writer may reference a bulk
result where it lives -- a pinned span of device memory -- and the reply is
then a :class:`~repro.xdr.encoder.GatherRecord` that is sent from there and
released once sent; whatever the server keeps beyond the send (the reply
cache, the op-log observer's reply) is flattened into bytes it owns first.
The readers feeding a server ask :meth:`RpcServer.land` where a bulk
argument goes, so a request may arrive as a
:class:`~repro.xdr.encoder.LandedRecord`, its payload already in a buffer
the handler can adopt; it takes the same path as any record.
RPC-level failures (unknown program/version/procedure, undecodable
arguments, handler crash) are mapped onto the proper ``accept_stat`` replies
rather than tearing down the connection.

At-most-once semantics: the server keeps an LRU cache of recent replies
keyed by (client identity, xid).  A retransmitted call -- same client,
same xid -- is answered from the cache without re-executing its handler,
which is what makes client-side retry of non-idempotent procedures
(``cuMemAlloc``, ``cuLaunchKernel``) safe.  The client identity is the
session token carried in an ``AUTH_CLIENT_TOKEN`` credential when the
caller supplies one (``RpcClient`` does so by default), falling back to
the transport address otherwise.  The token is what keeps the guarantee
across reconnects: a TCP client that re-establishes its connection gets a
new ephemeral source port, so an address-keyed cache would miss and
re-execute the retransmission.

The cache is bounded both by entry count and by total cached bytes, and
replies larger than ``reply_cache_entry_bytes`` are not cached at all --
the bulk-data procedures that produce them (D2H memcpy, checkpoint) are
reads, so re-execution on retry is harmless, while caching them would pin
GiB of payload.
"""

from __future__ import annotations

import operator
import socket
import threading
import time
from collections import OrderedDict
from typing import Callable, Mapping

from repro.net.simclock import SimClock, WallClock
from repro.oncrpc import message as msg
from repro.oncrpc.auth import NULL_AUTH, OpaqueAuth, call_meta_from, client_token_from
from repro.oncrpc.errors import RpcIntegrityError, RpcProtocolError, RpcTransportError
from repro.oncrpc.record import (
    DEFAULT_FRAGMENT_SIZE,
    Buffer,
    RecordReader,
    append_crc,
    gather_fragments,
    sendmsg_all,
    verify_crc,
)

# The reference framing; connections send ``gather_fragments`` lists.  The
# name stays importable from here because ``bench/trace.py`` rebinds it in
# every module that imported it.
from repro.oncrpc.record import encode_record  # noqa: F401
from repro.resilience.overload import (
    CallCancelledError,
    CancelToken,
    OverloadConfig,
    OverloadController,
)
from repro.resilience.stats import ServerStats
from repro.xdr.encoder import GatherRecord, LandedRecord, flatten
from repro.xdr.errors import XdrError


class CallContext:
    """Per-call context passed to procedure handlers.

    One is built for every call, so it is a plain ``__slots__`` object.
    """

    __slots__ = (
        "prog", "vers", "proc", "cred", "client_id", "session", "identity",
        "deadline_ns", "priority", "cancel", "xid", "replica_apply", "admitted",
    )

    def __init__(
        self,
        prog: int,
        vers: int,
        proc: int,
        cred: OpaqueAuth,
        client_id: str = "loopback",
        session: dict | None = None,
        identity: str = "",
        deadline_ns: int | None = None,
        priority: int = 0,
        cancel: CancelToken | None = None,
        xid: int = 0,
        replica_apply: bool = False,
        admitted: bool = False,
    ) -> None:
        self.prog = prog
        self.vers = vers
        self.proc = proc
        self.cred = cred
        #: opaque identifier of the client connection (address or loopback tag)
        self.client_id = client_id
        #: scratch space shared by all calls on one connection
        self.session = {} if session is None else session
        #: at-most-once client identity (session token, or ``client_id`` fallback)
        self.identity = identity
        #: absolute expiry in the server clock domain (from AUTH_CALL_META)
        self.deadline_ns = deadline_ns
        #: call priority from AUTH_CALL_META (higher = more important)
        self.priority = priority
        #: cooperative cancellation latch; handlers check it at safe points
        self.cancel = CancelToken() if cancel is None else cancel
        #: transaction id of the call (with ``identity``, its at-most-once key)
        self.xid = xid
        #: the record arrived over a replication channel from the leader
        self.replica_apply = replica_apply
        #: the call holds an overload concurrency slot until it has run
        self.admitted = admitted


Handler = Callable[[memoryview, CallContext], msg.Payload]

#: Where one procedure's bulk opaque may land: handed the buffered start of
#: a call's arguments, it answers ``None`` or ``(offset, buffer)`` -- the
#: arguments' bytes from ``offset`` on, ``len(buffer)`` of them, are the
#: opaque's, to be received into ``buffer`` (see
#: :data:`repro.oncrpc.record.LandingProvider`).
Lander = Callable[[memoryview], "tuple[int, Buffer] | None"]

#: what the overload queue's refusals look like on the wire
_QUEUE_REFUSAL_STAT = {
    OverloadController.BUSY: msg.RPC_BUSY,
    OverloadController.EXPIRED: msg.CALL_EXPIRED,
    OverloadController.CANCELLED: msg.CALL_CANCELLED,
}


def _plane(slot: str) -> property:
    """An optional admission plane of :class:`RpcServer`: installing one
    rebuilds the chain, so no call has to ask whether the plane is there.
    """

    def install(server: "RpcServer", plane: object | None) -> None:
        setattr(server, slot, plane)
        server._build_admission()

    return property(operator.attrgetter(slot), install)


class GarbageArgumentsError(Exception):
    """Raised by handlers to signal undecodable arguments (GARBAGE_ARGS)."""


class RpcServer:
    """Multi-program, multi-version ONC RPC server."""

    #: Largest request record a server accepts; protects against
    #: memory-exhaustion claims in fragment headers while comfortably
    #: fitting Cricket's 512 MiB-class memcpy payloads.
    DEFAULT_MAX_RECORD = 1 << 30

    #: entries kept in the at-most-once duplicate-request reply cache
    DEFAULT_REPLY_CACHE = 512

    #: total bytes of encoded replies the cache may pin
    DEFAULT_REPLY_CACHE_BYTES = 64 << 20

    #: replies larger than this are never cached (bulk-data reads)
    DEFAULT_REPLY_CACHE_ENTRY_BYTES = 1 << 20

    def __init__(
        self,
        *,
        fragment_size: int = DEFAULT_FRAGMENT_SIZE,
        max_record_size: int = DEFAULT_MAX_RECORD,
        reply_cache_size: int = DEFAULT_REPLY_CACHE,
        reply_cache_bytes: int = DEFAULT_REPLY_CACHE_BYTES,
        reply_cache_entry_bytes: int = DEFAULT_REPLY_CACHE_ENTRY_BYTES,
        crc_records: bool = False,
        clock: SimClock | WallClock | None = None,
        overload: OverloadConfig | None = None,
    ) -> None:
        self._programs: dict[tuple[int, int], dict[int, Handler]] = {}
        #: landers by (prog, vers, proc), consulted by :meth:`land`
        self.landers: dict[tuple[int, int, int], Lander] = {}
        self.fragment_size = fragment_size
        self.max_record_size = max_record_size
        #: server clock domain: propagated deadlines (relative budgets in
        #: AUTH_CALL_META verifiers) are converted to absolute expiries here
        self.clock = clock if clock is not None else SimClock()
        #: verify a CRC32 trailer on inbound records and checksum replies
        #: (pairs with the client's ChecksummedTransport)
        self.crc_records = crc_records
        self._tcp_thread: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._shutdown = threading.Event()
        #: count of successfully dispatched calls (all programs)
        self.calls_served = 0
        self.reply_cache_size = reply_cache_size
        self.reply_cache_bytes = reply_cache_bytes
        self.reply_cache_entry_bytes = reply_cache_entry_bytes
        self._reply_cache: OrderedDict[tuple[str, int], Buffer] = OrderedDict()
        self._reply_cache_total = 0
        self._stats_lock = threading.Lock()
        #: server-side counters (reply cache + session lifecycle), shared
        #: with the session manager in :class:`~repro.cricket.server.CricketServer`
        self.server_stats = ServerStats()
        # live per-connection sockets/threads, so shutdown() can close them
        # instead of leaving rpc-conn-* threads blocked in recv() forever
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._conn_threads: list[threading.Thread] = []
        # in-flight handler executions (drain mode waits for these) and
        # their cancel tokens, keyed (identity, xid); one lock for both,
        # taken bare on the call path and through the condition by a drain
        self._inflight = 0
        self._inflight_calls: dict[tuple[str, int], CancelToken] = {}
        self._inflight_lock = threading.Lock()
        self._inflight_cv = threading.Condition(self._inflight_lock)
        self._draining = False
        #: observer called after each freshly executed call (not for reply-
        #: cache hits) with ``(record, call, reply)`` -- ``record`` is the
        #: verified request bytes, ``call`` the decoded CallBody (its
        #: ``args`` a view of ``record``), ``reply`` the encoded
        #: (un-checksummed) reply, always contiguous bytes the server owns:
        #: a gather reply is flattened before the observer sees it, so it
        #: never holds a view of device memory.  All three may be retained:
        #: neither buffer is reused or modified afterwards.  The replication
        #: link uses this to ship the op-log.
        self.on_executed: Callable[[Buffer, msg.CallBody, Buffer], None] | None = None
        #: composable observers called once per *handler execution* (reply-
        #: cache hits and refusals never fire) with ``(identity, xid, proc,
        #: accept_stat, replica_apply)``.  Unlike :attr:`on_executed` --
        #: a single slot owned by the replication link -- any number of
        #: taps may be installed; the simulation history recorder uses
        #: them as its server-edge evidence stream for at-most-once
        #: checking: a handler that ran twice fired them twice.
        self.execution_taps: list[Callable[[str, int, int, int, bool], None]] = []
        # Serializes execute+hook when an observer is installed so the
        # op-log order matches execution order; without an observer,
        # dispatches stay concurrent.
        self._oplog_lock = threading.Lock()
        # a killed server models a crashed process: every dispatch fails
        self._killed = False
        #: called once when :meth:`kill` transitions the server to dead;
        #: the simulation history recorder marks the crash here, so the
        #: checker knows which acknowledged-but-unreplicated effects may
        #: legitimately be lost
        self.on_kill: Callable[[], None] | None = None
        #: procedures that skip admission altogether: NULL (liveness probes
        #: must answer even under overload) -- subclasses add e.g. rpc_cancel
        self.overload_exempt_procs: set[int] = {0}
        #: when True, non-exempt calls are shed with RPC_BUSY -- the
        #: stop-and-copy window of a live migration.  Retransmits of calls
        #: executed before the pause still replay from the reply cache.
        self.serving_paused = False
        self._overload = (
            OverloadController(
                overload, now_ns=lambda: self.clock.now_ns, stats=self.server_stats
            )
            if overload is not None
            else None
        )
        self._fencing = None
        self._brownout = None
        self._build_admission()

    #: overload admission (None = unbounded, the historical behaviour)
    overload = _plane("_overload")
    #: leadership fence (duck-typed; see repro.cricket.witness): its
    #: ``shed_stat(proc, now_ns)`` is consulted before execution -- a
    #: non-leader sheds mutating procedures with RPC_NOT_LEADER while reads
    #: drain -- and its ``reply_verf()`` stamps the leadership epoch on
    #: every reply
    fencing = _plane("_fencing")
    #: degraded-mode controller (duck-typed; see
    #: repro.resilience.health.BrownoutController): its
    #: ``shed_stat(priority)`` sheds low-priority work with RPC_BUSY before
    #: it ever reaches the overload queue
    brownout = _plane("_brownout")

    # -- registration ---------------------------------------------------------

    def register_program(
        self, prog: int, vers: int, procedures: Mapping[int, Handler]
    ) -> None:
        """Register handlers for ``(prog, vers)``.

        Procedure 0 (NULL) is added automatically if absent, as every ONC
        RPC program must answer it.
        """
        table = dict(procedures)
        table.setdefault(0, lambda args, ctx: b"")
        self._programs[(prog, vers)] = table

    def supported_versions(self, prog: int) -> tuple[int, int] | None:
        """Return (low, high) versions registered for ``prog``, if any."""
        versions = [v for (p, v) in self._programs if p == prog]
        if not versions:
            return None
        return min(versions), max(versions)

    # -- landing: where a bulk argument is received -------------------------

    def land(self, prefix: memoryview) -> tuple[int, Buffer] | None:
        """The landing provider of the readers that feed this server.

        Peeks at the call header in ``prefix`` with the header code that
        decodes calls (:func:`repro.oncrpc.message.peek`) and asks the
        procedure's lander, if it has one, where the rest goes.  Nothing is
        decided here that :meth:`dispatch_record` does not decide again:
        the landed record is verified, deduplicated, admitted and decoded
        like any other, and a landing nobody writes is just dropped.
        """
        message = msg.peek(prefix)
        if message is None or type(message.body) is not msg.CallBody:
            return None
        call = message.body
        lander = self.landers.get((call.prog, call.vers, call.proc))
        landing = None if lander is None else lander(call.args)
        if landing is None:
            return None
        offset, buffer = landing
        return (len(prefix) & ~3) - len(call.args) + offset, buffer

    # -- dispatch ---------------------------------------------------------

    def dispatch_record(
        self,
        record: Buffer,
        *,
        client_id: str = "loopback",
        session: dict | None = None,
        replica_apply: bool = False,
    ) -> Buffer | GatherRecord | None:
        """Process one request record and return the reply record payload.

        One path: decode, answer a retransmission from the reply cache --
        even on a paused, fenced or browned-out server -- otherwise admit
        (:meth:`_build_admission`) and run (:meth:`_run`), or refuse.

        ``record`` is only read, and must stay unmodified afterwards: the
        decoded call and the op-log observer keep it, or views of it.  A
        :class:`~repro.xdr.encoder.LandedRecord` (a reader's, see
        :meth:`land`) takes the same path; the observer gets it flattened.  The
        reply is a buffer of its own, shared with the reply cache and the
        op-log observer -- callers send it, they do not modify it.  Or it
        is a :class:`~repro.xdr.encoder.GatherRecord` that nobody else
        holds, referencing pinned device memory: callers send it and then
        release it, or flatten it; one dropped unsent lets go of its pins
        when it is freed.

        A record whose RPC header cannot be parsed raises what
        :meth:`RpcMessage.decode <repro.oncrpc.message.RpcMessage.decode>`
        raises: :class:`~repro.xdr.errors.XdrError` when it is truncated or
        its padding or auth length is wrong (a client's retry loop
        retransmits on that class), and
        :class:`~repro.oncrpc.errors.RpcProtocolError` for an unknown RPC
        version, message type or status; a connection loop drops the
        connection on either.  RPC-level errors
        produce error replies.  Returns ``None`` if the message was a
        reply (which a server ignores) or -- with ``crc_records`` -- if
        the record failed its integrity check (dropped like a lost
        request; the client's retry loop retransmits).

        ``replica_apply=True`` marks a record arriving over a replication
        channel from the current leader: fence and brownout are skipped
        (a follower *must* apply the leader's mutations -- the link's
        epoch check guards against stale leaders), while at-most-once
        and everything else behave exactly as for a client call.
        """
        if self._killed:
            raise RpcTransportError("server is dead (killed)")
        if self.crc_records:
            try:
                record = verify_crc(record)
            except RpcIntegrityError:
                with self._stats_lock:
                    self.server_stats.crc_rejected += 1
                return None
        request = msg.RpcMessage.decode(record)
        call = request.body
        if type(call) is not msg.CallBody:
            return None
        # At-most-once identity: prefer the client-chosen session token
        # (stable across TCP reconnects, which change the source port and
        # therefore client_id) and fall back to the transport address.
        token = client_token_from(call.cred)
        # A fresh string per call, on purpose: sessions and ledgers keep it,
        # and ``pickle`` writes one shared object where it would write two
        # equal ones, so a memoised identity changes migration payloads.
        identity = f"token:{token.hex()}" if token is not None else client_id
        cache_key = (identity, request.xid)
        reply = None
        # A miss, the common case, takes no lock: the membership test is one
        # atomic step, and a duplicate arriving while the first copy runs
        # misses here as it missed a lookup under the lock.
        if cache_key in self._reply_cache:
            with self._stats_lock:
                reply = self._reply_cache.get(cache_key)
                if reply is not None:
                    self._reply_cache.move_to_end(cache_key)
                    self.server_stats.reply_cache_hits += 1
        if reply is None:
            ctx = self._context(
                call, identity, request.xid, client_id, session, replica_apply
            )
            refusal = None
            if call.proc not in self.overload_exempt_procs:
                for check in self._admission:
                    refusal = check(call, ctx)
                    if refusal is not None:
                        break
            if refusal is None:
                reply = self._run(record, call, ctx)
            elif refusal == msg.CALL_CANCELLED:
                reply = self.record_cancelled(identity, request.xid)
            else:
                # Never cached: the same xid retransmitted to a later
                # leader, after recovery or after the resume must be judged
                # again (and nobody retransmits a fatal expiry).
                reply = self._control_reply(request.xid, refusal)
        if not self.crc_records:
            return reply
        # The CRC trailer goes on a copy (``append_crc`` of a view): the
        # reply cache and the op-log observer hold ``reply`` itself.  A
        # gather reply is held by nobody else and gets it as a segment.
        return append_crc(reply if type(reply) is GatherRecord else memoryview(reply))

    def _context(
        self,
        call: msg.CallBody,
        identity: str,
        xid: int,
        client_id: str,
        session: dict | None,
        replica_apply: bool,
    ) -> CallContext:
        """What the checks and the handler get to know about the call."""
        ctx = CallContext(
            call.prog,
            call.vers,
            call.proc,
            call.cred,
            client_id=client_id,
            session=session,
            identity=identity,
            xid=xid,
            replica_apply=replica_apply,
        )
        # Remember which identities rode this connection, so a disconnect
        # can be attributed to their sessions (see _on_disconnect).
        identities = ctx.session.get("identities")
        if identities is None:
            identities = ctx.session["identities"] = set()
        identities.add(identity)
        # Per-call overload metadata rides in the call's verifier.
        meta = call_meta_from(call.verf)
        if meta is not None:
            ctx.priority = meta.priority
            if meta.remaining_ns is not None:
                ctx.deadline_ns = self.clock.now_ns + meta.remaining_ns
        return ctx

    # -- admission: may this call run? ---------------------------------------

    def _build_admission(self) -> None:
        """Rebuild the admission chain from the planes installed right now.

        Every non-exempt call walks ``_admission`` and the first check
        ``(call, ctx)`` to return an ``accept_stat`` refuses it; a plane that
        is not installed has no entry.  The order is behaviour: a paused server does not
        consult its fence (``shed_stat`` renews leases and self-fences), a
        fenced one says not-leader whatever the priority, and an expired
        call is never offered to the overload queue.
        """
        checks = [self._check_paused]
        if self._fencing is not None:
            checks.append(self._check_fence)
        if self._brownout is not None:
            checks.append(self._check_brownout)
        checks.append(self._check_expired)
        if self._overload is not None:
            checks.append(self._check_overload)
        self._admission = tuple(checks)
        #: verifier stamped on accepted replies: the fence's epoch, so
        #: failover clients learn it from every reply, else ``NULL_AUTH``
        self._reply_verf: Callable[[], OpaqueAuth] = (
            self._fencing.reply_verf if self._fencing is not None else lambda: NULL_AUTH
        )

    def _check_paused(self, call: msg.CallBody, ctx: CallContext) -> int | None:
        # A flag, not a plane: it toggles at run time.  RPC_BUSY makes the
        # client back off and retry -- against the migrated-to server once
        # cutover rotates its endpoint.
        if not self.serving_paused:
            return None
        with self._stats_lock:
            self.server_stats.paused_rejections += 1
        return msg.RPC_BUSY

    def _check_fence(self, call: msg.CallBody, ctx: CallContext) -> int | None:
        # A follower must apply its leader's mutations (the link's epoch
        # check guards against stale leaders); anyone else's are refused
        # with RPC_NOT_LEADER, the reply verf carrying epoch and redirect.
        if ctx.replica_apply:
            return None
        return self._fencing.shed_stat(call.proc, self.clock.now_ns)

    def _check_brownout(self, call: msg.CallBody, ctx: CallContext) -> int | None:
        # Degraded mode: shed low-priority work with RPC_BUSY while the
        # server digs itself out.
        if ctx.replica_apply:
            return None
        shed = self._brownout.shed_stat(ctx.priority)
        if shed is not None:
            with self._stats_lock:
                self.server_stats.brownout_sheds += 1
        return shed

    def _check_expired(self, call: msg.CallBody, ctx: CallContext) -> int | None:
        # Expired before we even looked at it: executing would burn GPU
        # time for a caller who already gave up.
        if ctx.deadline_ns is None or self.clock.now_ns < ctx.deadline_ns:
            return None
        with self._stats_lock:
            self.server_stats.deadline_expired_in_queue += 1
        return msg.CALL_EXPIRED

    def _check_overload(self, call: msg.CallBody, ctx: CallContext) -> int | None:
        outcome, token = self._overload.acquire(
            ctx.identity, ctx.xid, expires_at_ns=ctx.deadline_ns
        )
        if outcome != OverloadController.ADMITTED:
            return _QUEUE_REFUSAL_STAT[outcome]
        assert token is not None
        ctx.cancel = token  # the queue's: rpc_cancel reaches it either way
        ctx.admitted = True
        return None

    def _control_reply(self, xid: int, stat: int) -> bytearray:
        """Encode a void-body control reply (RPC_BUSY / CALL_EXPIRED)."""
        return msg.RpcMessage(
            xid, msg.AcceptedReply(self._reply_verf(), stat), msg.MSG_ACCEPTED
        ).encode()

    def record_cancelled(self, identity: str, xid: int) -> bytearray:
        """Build and *cache* a CALL_CANCELLED reply for ``(identity, xid)``.

        Caching is the at-most-once contract for cancellation: if the
        client's retry loop retransmits the cancelled xid later, it must be
        answered with the cancelled reply from the cache, never re-executed.
        """
        reply = self._control_reply(xid, msg.CALL_CANCELLED)
        self._cache_reply((identity, xid), reply)
        return reply

    def cancel_call(self, identity: str, xid: int) -> bool:
        """Cancel a queued or in-flight call; True if one was found.

        Queued calls are cancelled through the overload controller (they
        never start executing); in-flight calls get their token fired and
        abort at the handler's next safe point.
        """
        if self._overload is not None and self._overload.cancel(identity, xid):
            return True
        with self._inflight_lock:
            token = self._inflight_calls.get((identity, xid))
        if token is not None:
            token.cancel()
            return True
        return False

    # -- run: execute an admitted call, once ---------------------------------

    def _run(
        self, record: Buffer, call: msg.CallBody, ctx: CallContext
    ) -> Buffer | GatherRecord:
        """Execute an admitted call; returns its reply, cached and shipped.

        Owns what brackets a handler: the in-flight accounting (drain waits
        on it, ``rpc_cancel`` finds the token there), the op-log guard and
        giving the overload slot back.  Three lock round trips: into the
        in-flight table, the reply cache (which counts the call too), out.
        """
        cache_key = (ctx.identity, ctx.xid)
        with self._inflight_lock:
            self._inflight += 1
            self._inflight_calls[cache_key] = ctx.cancel
        observer = self.on_executed
        try:
            if observer is None:
                stat, reply = self._execute(call, ctx)
                reply = self._cache_reply(cache_key, reply, stat)
            else:
                # With a replication observer, (execute, ship) is atomic: if
                # two concurrent mutating calls could execute in one order
                # but enter the op-log in the other, the standby's replay
                # would hand out different handles than the primary did.
                with self._oplog_lock:
                    kept = call
                    if type(record) is LandedRecord:
                        # The observer keeps the request, and once the call
                        # has run a landing may be device memory: copy first.
                        record = flatten(record)
                        kept = msg.RpcMessage.decode(record).body
                    stat, reply = self._execute(call, ctx)
                    # The observer may keep it: bytes of its own.
                    reply = flatten(self._cache_reply(cache_key, reply, stat))
                    observer(record, kept, reply)
        finally:
            if ctx.admitted:
                self._overload.release()
            with self._inflight_lock:
                self._inflight_calls.pop(cache_key, None)
                self._inflight -= 1
                if self._draining:
                    self._inflight_cv.notify_all()
        if (
            ctx.deadline_ns is not None
            and stat == msg.SUCCESS
            and self.clock.now_ns >= ctx.deadline_ns
        ):
            # The work finished, but after its caller's budget ran out: the
            # reply is almost certainly talking to a closed retry loop.
            with self._stats_lock:
                self.server_stats.deadline_expired_in_execution += 1
        return reply

    def _cache_reply(
        self,
        cache_key: tuple[str, int],
        reply: Buffer | GatherRecord,
        stat: int | None = None,
    ) -> Buffer | GatherRecord:
        """Insert into the reply cache, honouring entry and byte budgets;
        returns the reply to send.  ``stat``, the accept_stat of a fresh
        execution, is counted under the same lock.

        Oversized replies (bulk-data reads like D2H memcpy or checkpoint
        blobs) are skipped entirely rather than letting one reply evict the
        whole cache -- re-executing a read on retry is harmless, pinning
        its payload is not.  A gather reply that is cached is flattened
        first: the cache keeps bytes of its own, and the pin on device
        memory goes now.
        """
        cacheable = self.reply_cache_size > 0 and len(reply) <= self.reply_cache_entry_bytes
        if cacheable and type(reply) is GatherRecord:
            reply = flatten(reply)
        elif not cacheable and stat is None:
            return reply
        with self._stats_lock:
            if stat == msg.SUCCESS:
                self.calls_served += 1
            elif stat == msg.CALL_CANCELLED:
                self.server_stats.cancelled_in_flight += 1
            if not cacheable:
                return reply
            old = self._reply_cache.pop(cache_key, None)
            if old is not None:
                self._reply_cache_total -= len(old)
            self._reply_cache[cache_key] = reply
            self._reply_cache_total += len(reply)
            while self._reply_cache and (
                len(self._reply_cache) > self.reply_cache_size
                or self._reply_cache_total > self.reply_cache_bytes
            ):
                _, evicted = self._reply_cache.popitem(last=False)
                self._reply_cache_total -= len(evicted)
                self.server_stats.reply_cache_evictions += 1
            self.server_stats.reply_cache_bytes = self._reply_cache_total
        return reply

    def _execute(
        self, call: msg.CallBody, ctx: CallContext
    ) -> tuple[int, bytearray | GatherRecord]:
        """Run the call's handler once; return ``(accept_stat, encoded reply)``.

        The reply is encoded here, header first and the results after it
        in the same buffer, because a result that cannot be encoded is a
        failed call like any other the handler raises.  The taps fire here
        too, where the handler ran, with this execution's own stat:
        whatever calls ``_execute`` twice is seen to execute twice.
        """
        xid, stat, reply = ctx.xid, msg.SUCCESS, None
        table = self._programs.get((call.prog, call.vers))
        if ctx.cancel.requested:
            # Cancelled in the window between admission and execution; the
            # handler never runs, and the cached CALL_CANCELLED reply
            # answers any later retransmission of this xid.
            stat = msg.CALL_CANCELLED
        elif table is None:
            versions = self.supported_versions(call.prog)
            if versions is None:
                stat = msg.PROG_UNAVAIL
            else:
                stat = msg.PROG_MISMATCH
                mismatch = msg.AcceptedReply(
                    NULL_AUTH, stat, mismatch_low=versions[0], mismatch_high=versions[1]
                )
                reply = msg.RpcMessage(xid, mismatch).encode()
        elif call.proc not in table:
            stat = msg.PROC_UNAVAIL
        else:
            try:
                results = table[call.proc](call.args, ctx)
                reply = msg.RpcMessage(
                    xid, msg.AcceptedReply(self._reply_verf(), stat, results)
                ).encode()
            except CallCancelledError:
                stat = msg.CALL_CANCELLED
            except (GarbageArgumentsError, XdrError):
                stat = msg.GARBAGE_ARGS
            except Exception:
                stat = msg.SYSTEM_ERR
        if reply is None:
            reply = self._control_reply(xid, stat)
        for tap in self.execution_taps:
            tap(ctx.identity, xid, call.proc, stat, ctx.replica_apply)
        return stat, reply

    # -- TCP serving -------------------------------------------------------

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start a background TCP accept loop; return the bound address.

        Port 0 binds an ephemeral port, convenient for tests.
        """
        if self._listener is not None:
            raise RuntimeError("server is already listening")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self._listener = listener
        self._shutdown.clear()
        self._tcp_thread = threading.Thread(
            target=self._accept_loop, name="rpc-accept", daemon=True
        )
        self._tcp_thread.start()
        return listener.getsockname()[:2]

    def _accept_loop(self) -> None:
        assert self._listener is not None
        self._listener.settimeout(0.2)
        while not self._shutdown.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{addr[0]}:{addr[1]}"),
                name=f"rpc-conn-{addr[1]}",
                daemon=True,
            )
            with self._conn_lock:
                self._conns.add(conn)
                self._conn_threads = [t for t in self._conn_threads if t.is_alive()]
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, client_id: str) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session: dict = {}
        reader = RecordReader(
            recv_into=lambda view: self._recv(conn, view),
            max_record_size=self.max_record_size,
            land=self.land,
        )
        try:
            while not self._shutdown.is_set():
                try:
                    record = reader.read_record()
                except (RpcTransportError, RpcProtocolError):
                    break
                if record is None:
                    break
                try:
                    reply = self.dispatch_record(
                        record, client_id=client_id, session=session
                    )
                except (RpcProtocolError, XdrError):
                    break  # unparseable message: drop the connection
                if reply is not None:
                    try:
                        sendmsg_all(conn, gather_fragments(reply, self.fragment_size))
                    except OSError:
                        break
                    finally:
                        if type(reply) is GatherRecord:
                            reply.release()  # sent or not: device memory unpinned
                # Let go of both buffers before reading on: held across
                # read_record they would stay allocated while the next
                # record is assembled (and while the connection idles), and
                # the allocator could not hand their memory to it.
                del record, reply
        finally:
            self._on_disconnect(client_id, session)
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _recv(conn: socket.socket, view: memoryview) -> int:
        """Block until the socket has put some bytes into ``view`` (0: closed)."""
        try:
            return conn.recv_into(view)
        except OSError:
            return 0

    def kill(self) -> None:
        """Simulate a server crash: every subsequent dispatch fails.

        Unlike :meth:`shutdown` this is abrupt -- no drain, no checkpoint,
        no goodbye to clients.  In-process (loopback) clients see a
        :class:`~repro.oncrpc.errors.RpcTransportError` exactly where a
        TCP client would see a connection reset.  The simulation nemesis uses
        this to kill primaries mid-workload.
        """
        if self._killed:
            return
        self._killed = True
        if self.on_kill is not None:
            self.on_kill()

    @property
    def killed(self) -> bool:
        """True once :meth:`kill` has been called."""
        return self._killed

    def _on_disconnect(self, client_id: str, session: dict) -> None:
        """Hook for subclasses to release per-connection resources."""

    def _begin_drain(self) -> None:
        """Hook: the server stopped admitting new sessions (drain started)."""

    def _on_drain(self) -> None:
        """Hook: all in-flight calls finished during a graceful drain."""

    @property
    def draining(self) -> bool:
        """True once a drain-mode shutdown has begun."""
        return self._draining

    def shutdown(self, *, drain: bool = False, drain_timeout_s: float = 5.0) -> None:
        """Stop serving; with ``drain=True``, finish in-flight calls first.

        The default is the historical hard stop.  Drain mode runs the
        graceful sequence: stop admitting new sessions (``_begin_drain``,
        which the Cricket server uses to flip admission control), close
        the listener, wait up to ``drain_timeout_s`` wall-clock seconds
        for in-flight handlers to complete, let the subclass snapshot the
        surviving sessions (``_on_drain``), and only then tear down the
        per-connection sockets.
        """
        if drain:
            self._draining = True
            self._begin_drain()
        self._shutdown.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._tcp_thread is not None:
            self._tcp_thread.join(timeout=2.0)
            self._tcp_thread = None
        if drain:
            deadline = time.monotonic() + drain_timeout_s
            with self._inflight_cv:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cv.wait(timeout=remaining)
            self._on_drain()
        # Close live connection sockets so their rpc-conn-* threads wake
        # out of recv() and exit instead of lingering past shutdown.
        with self._conn_lock:
            conns = list(self._conns)
            threads = list(self._conn_threads)
            self._conn_threads = []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
