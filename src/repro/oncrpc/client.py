"""ONC RPC client (the RPC-Lib client role).

:class:`RpcClient` issues CALL messages over a transport, matches replies by
xid, and maps RPC-level error statuses onto the exception hierarchy in
:mod:`repro.oncrpc.errors`.  The typed helper :meth:`RpcClient.call_typed`
encodes arguments and decodes results through XDR type descriptors, which is
the interface generated stubs use.

When constructed with a :class:`~repro.resilience.retry.RetryPolicy`, the
client retransmits failed calls with the *same xid* (classic ONC RPC
retransmission, made safe by the server's at-most-once reply cache),
charging exponential-backoff delays to a virtual clock and honouring a
per-call deadline budget.  Unless given an explicit credential, a client
sends a generated session token (:func:`~repro.oncrpc.auth.client_token_auth`)
on every call; the server keys its reply cache on that token, so a
retransmission is recognised even after a reconnect changed the client's
transport address.  Stale replies -- duplicates of earlier answers
left on the connection by retransmission races -- are recognised by xid
and discarded instead of poisoning later calls.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from typing import Any, Callable

from repro.net.simclock import SimClock, WallClock
from repro.oncrpc import message as msg
from repro.oncrpc.auth import (
    NULL_AUTH,
    OpaqueAuth,
    call_meta_auth,
    client_token_auth,
    leader_epoch_from,
)
from repro.oncrpc.errors import (
    RpcBusyError,
    RpcCallExpired,
    RpcCancelled,
    RpcDeadlineExceeded,
    RpcDenied,
    RpcGarbageArgs,
    RpcNotLeaderError,
    RpcProcUnavailable,
    RpcProgMismatch,
    RpcProgUnavailable,
    RpcProtocolError,
    RpcReplyError,
    RpcRetryExhausted,
    RpcSystemError,
    RpcTimeoutError,
)
from repro.oncrpc.transport import Transport
from repro.resilience.retry import RetryPolicy, is_retryable
from repro.resilience.stats import ResilienceStats
from repro.xdr import XdrDecoder
from repro.xdr.types import XdrType

_xid_counter = itertools.count(0x10000000)

#: stale records tolerated per receive before declaring the stream corrupt
_MAX_STALE_REPLIES = 16


class RpcClient:
    """A connection-oriented ONC RPC client bound to one (prog, vers)."""

    def __init__(
        self,
        transport: Transport,
        prog: int,
        vers: int,
        *,
        cred: OpaqueAuth = NULL_AUTH,
        retry_policy: RetryPolicy | None = None,
        clock: SimClock | WallClock | None = None,
        stats: ResilienceStats | None = None,
        priority: int = 0,
    ) -> None:
        self.transport = transport
        #: the leader-aware transport (a FailoverTransport) every epoch-stamped
        #: reply is fed to: ``transport`` if it is one, else None; the
        #: ``CricketClient`` constructors set it to the one under their wrappers
        self.leader_sink = transport if hasattr(transport, "observe_leader") else None
        self.prog = prog
        self.vers = vers
        # A default (AUTH_NONE) client gets a generated session token so the
        # server's at-most-once reply cache can recognise its retransmissions
        # across reconnects, where the transport address changes.  Explicit
        # credentials (AUTH_SYS tests, custom flavors) are sent untouched.
        if cred.flavor == NULL_AUTH.flavor and not cred.body:
            cred = client_token_auth(uuid.uuid4().bytes)
        self.cred = cred
        #: retry/backoff configuration; None preserves fail-fast semantics
        self.retry_policy = retry_policy
        #: virtual clock retries charge their backoff to
        self.clock = clock if clock is not None else SimClock()
        #: shared resilience counters (always present, cheap when unused)
        self.stats = stats if stats is not None else ResilienceStats()
        self._retry_rng = retry_policy.make_rng() if retry_policy else None
        self._lock = threading.Lock()
        #: number of calls issued; used by instrumentation and tests
        self.calls_made = 0
        #: xids of batched calls whose replies have not been collected yet
        self._batched_xids: list[int] = []
        #: called, under the client lock, with the results of the batched
        #: calls a synchronous call drained off the wire before it was sent
        #: (:meth:`flush_batch` never sees those); without one they are
        #: dropped.  The Cricket client checks their CUDA statuses here.
        self.drain_observer: Callable[[list[memoryview]], None] | None = None
        #: priority stamped into every call's AUTH_CALL_META verifier
        self.priority = priority
        #: xid of the most recently issued call (sync or batched)
        self.last_xid: int | None = None
        #: observer invoked with each new call's xid before it is sent; the
        #: Cricket client's cancel-scope uses this to track what to cancel
        self.xid_observer: Callable[[int], None] | None = None
        #: observer invoked when a call finishes, with ``(xid, proc, exc)``
        #: where ``exc`` is None on success or the exception about to
        #: propagate (typed sheds like RpcBusyError/RpcNotLeaderError as
        #: well as ambiguous transport failures).  The simulation history
        #: recorder uses this to attach the xid and typed outcome to each
        #: client-edge invocation.
        self.outcome_observer: Callable[[int, int, BaseException | None], None] | None = None
        #: observer invoked with ``(xid, proc, exc)`` for every *failed,
        #: retryable attempt* inside the retry loop, before the backoff.
        #: The final outcome still arrives via :attr:`outcome_observer`;
        #: this stream is what lets a history recorder notice that an
        #: ambiguous attempt (lost reply -- the call may have executed)
        #: preceded a later typed refusal, which would otherwise mask it.
        self.attempt_observer: Callable[[int, int, BaseException], None] | None = None

    def _note_xid(self, xid: int) -> None:
        self.last_xid = xid
        if self.xid_observer is not None:
            self.xid_observer(xid)

    def _encode_call(
        self, xid: int, proc: int, args: msg.Payload, deadline_ns: int | None
    ) -> bytearray:
        """Encode one call attempt, stamping overload metadata in the verf.

        Header and arguments go into one fresh buffer that nothing else
        references: the transport stack below may extend it (the CRC
        trailer) and owns it until ``send_record`` returns.

        Re-encoding per attempt (same xid!) is what makes deadline
        propagation honest: each retransmission carries the budget that
        remains *now*, shrunk by earlier attempts, backoff and reconnects.
        """
        verf = NULL_AUTH
        if deadline_ns is not None or self.priority != 0:
            remaining = (
                None
                if deadline_ns is None
                else max(0, deadline_ns - self.clock.now_ns)
            )
            verf = call_meta_auth(remaining, self.priority)
        return msg.RpcMessage(
            xid, msg.CallBody(self.prog, self.vers, proc, self.cred, verf, args)
        ).encode()

    # -- raw interface ------------------------------------------------------

    def call_raw(self, proc: int, args: msg.Payload) -> memoryview:
        """Invoke ``proc``; return the raw result bytes.

        ``args`` is pre-encoded XDR or a writer (see
        :data:`repro.oncrpc.message.Payload`).  The result is a read-only
        view of the reply record; each reply has its own buffer, so the
        view stays valid for as long as it is referenced.
        """
        xid = next(_xid_counter) & 0xFFFFFFFF
        self._note_xid(xid)
        try:
            if self.retry_policy is None:
                result = self._call_once(
                    xid, self._encode_call(xid, proc, args, None)
                )
            else:
                result = self._call_with_retry(xid, proc, args)
        except BaseException as exc:
            if self.outcome_observer is not None:
                self.outcome_observer(xid, proc, exc)
            raise
        if self.outcome_observer is not None:
            self.outcome_observer(xid, proc, None)
        return result

    def _call_once(self, xid: int, encoded: bytearray) -> memoryview:
        """The historical fail-fast path: one send, one receive."""
        with self._lock:
            if self._batched_xids:
                self._drain_before_call_locked()
            self.transport.send_record(encoded)
            reply_bytes = self.transport.recv_record()
            self.calls_made += 1
        reply = msg.RpcMessage.decode(reply_bytes)
        if reply.xid != xid:
            raise RpcProtocolError(
                f"reply xid {reply.xid:#x} does not match call xid {xid:#x}"
            )
        return self._unwrap_reply(reply)

    def _call_with_retry(self, xid: int, proc: int, args: msg.Payload) -> memoryview:
        """Retransmit with backoff until success, fatal error or deadline."""
        policy = self.retry_policy
        assert policy is not None
        deadline_ns = (
            self.clock.now_ns + int(policy.deadline_s * 1e9)
            if policy.deadline_s is not None
            else None
        )
        last_exc: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            # Check the budget at the *top* of each attempt: reconnect
            # probing and failover time between attempts is spent from the
            # same clock, so a connect storm cannot exceed the declared
            # deadline by sneaking in one more try.
            if deadline_ns is not None and self.clock.now_ns >= deadline_ns:
                self.stats.deadlines_exceeded += 1
                raise RpcDeadlineExceeded(
                    f"call xid {xid:#x} abandoned: deadline of "
                    f"{policy.deadline_s}s spent before attempt {attempt}"
                ) from last_exc
            encoded = self._encode_call(xid, proc, args, deadline_ns)
            try:
                with self._lock:
                    if self._batched_xids:
                        self._drain_before_call_locked()
                    self.transport.send_record(encoded)
                    reply = self._recv_matching_locked(xid)
                    self.calls_made += 1
                return self._unwrap_reply(reply)
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                if self.attempt_observer is not None:
                    self.attempt_observer(xid, proc, exc)
                if isinstance(exc, RpcTimeoutError):
                    self.stats.timeouts += 1
                last_exc = exc
                if attempt >= policy.max_attempts:
                    break
                delay_s = policy.backoff_s(attempt, self._retry_rng)
                if (
                    deadline_ns is not None
                    and self.clock.now_ns + int(delay_s * 1e9) > deadline_ns
                ):
                    self.stats.deadlines_exceeded += 1
                    raise RpcDeadlineExceeded(
                        f"call xid {xid:#x} abandoned: deadline of "
                        f"{policy.deadline_s}s exhausted after {attempt} attempts"
                    ) from exc
                self.clock.advance_s(delay_s)
                self.stats.retries += 1
                self._try_reconnect()
        self.stats.retries_exhausted += 1
        raise RpcRetryExhausted(
            f"call xid {xid:#x} failed after {policy.max_attempts} attempts: "
            f"{last_exc}"
        ) from last_exc

    def _recv_matching_locked(self, xid: int) -> msg.RpcMessage:
        """Receive the reply for ``xid``, discarding stale duplicates."""
        for _ in range(_MAX_STALE_REPLIES):
            reply = msg.RpcMessage.decode(self.transport.recv_record())
            if reply.xid == xid:
                return reply
            self.stats.stale_replies_discarded += 1
        raise RpcProtocolError(
            f"no reply for xid {xid:#x} within {_MAX_STALE_REPLIES} records"
        )

    def _try_reconnect(self) -> None:
        """Best-effort transport repair between retry attempts."""
        reconnect = getattr(self.transport, "reconnect", None)
        if reconnect is None:
            return
        try:
            reconnect()
        except Exception:
            pass  # next attempt fails fast and consumes the retry budget

    # -- batching (classic ONC RPC latency optimization) -----------------------

    def call_batched(self, proc: int, args: msg.Payload) -> int:
        """Send a call without waiting for its reply; return its xid.

        Replies accumulate on the connection and are collected -- and
        checked for RPC-level errors -- by :meth:`flush_batch`, or
        implicitly by the next synchronous call, which hands their results
        to :attr:`drain_observer`.  This is the classic ONC RPC batching
        technique: for a stream of kernel launches the client stops paying
        a full round trip per call.  The returned xid is the handle
        ``rpc_cancel`` takes to abort the call before its reply is drained.
        """
        xid = next(_xid_counter) & 0xFFFFFFFF
        self._note_xid(xid)
        encoded = self._encode_call(xid, proc, args, None)
        with self._lock:
            self.transport.send_record(encoded)
            self.calls_made += 1
            self._batched_xids.append(xid)
        return xid

    @property
    def pending_batched(self) -> int:
        """Number of batched calls whose replies are still outstanding."""
        return len(self._batched_xids)

    def flush_batch(self) -> list[memoryview]:
        """Collect all outstanding batched replies.

        Raises on RPC-level errors; returns the raw result bytes of each
        batched call, in submission order, so callers can check
        application-level statuses.
        """
        with self._lock:
            return self._drain_batch_locked()

    def _drain_before_call_locked(self) -> None:
        results = self._drain_batch_locked()
        if self.drain_observer is not None:
            self.drain_observer(results)

    def _drain_batch_locked(self) -> list[memoryview]:
        xids, self._batched_xids = self._batched_xids, []
        replies: list[msg.RpcMessage] = []
        for xid in xids:
            reply = msg.RpcMessage.decode(self.transport.recv_record())
            if reply.xid != xid:
                raise RpcProtocolError(
                    f"batched reply xid {reply.xid:#x} does not match "
                    f"call xid {xid:#x}"
                )
            # Consume every reply off the wire before unwrapping: if one
            # batched call errored (e.g. was cancelled), the later replies
            # must not be left behind to poison the stream.
            replies.append(reply)
        return [self._unwrap_reply(reply) for reply in replies]

    def _unwrap_reply(self, reply: msg.RpcMessage) -> memoryview:
        if isinstance(reply.body, msg.RejectedReply):
            if reply.body.stat == msg.RPC_MISMATCH:
                raise RpcDenied(
                    "RPC version rejected; server supports "
                    f"{reply.body.mismatch_low}..{reply.body.mismatch_high}"
                )
            raise RpcDenied(f"authentication error (auth_stat {reply.body.auth_stat})")
        if not isinstance(reply.body, msg.AcceptedReply):
            raise RpcProtocolError("reply carried a call body")
        body = reply.body
        # Fenced HA servers ride their leadership epoch in the reply verf;
        # feed it to the failover transport so it learns the newest epoch
        # from every reply (and can refuse rotating back to a stale one).
        leader_info = leader_epoch_from(body.verf)
        if leader_info is not None and self.leader_sink is not None:
            self.leader_sink.observe_leader(leader_info)
        if body.stat == msg.SUCCESS:
            return body.results
        if body.stat == msg.PROG_UNAVAIL:
            raise RpcProgUnavailable("program unavailable on server")
        if body.stat == msg.PROG_MISMATCH:
            raise RpcProgMismatch(body.mismatch_low, body.mismatch_high)
        if body.stat == msg.PROC_UNAVAIL:
            raise RpcProcUnavailable("procedure unavailable")
        if body.stat == msg.GARBAGE_ARGS:
            raise RpcGarbageArgs("server could not decode arguments")
        if body.stat == msg.SYSTEM_ERR:
            raise RpcSystemError("server-side system error")
        if body.stat == msg.RPC_BUSY:
            self.stats.busy_rejections += 1
            raise RpcBusyError("server shed the call under overload")
        if body.stat == msg.CALL_EXPIRED:
            raise RpcCallExpired("deadline expired before the server executed it")
        if body.stat == msg.CALL_CANCELLED:
            raise RpcCancelled("call was cancelled")
        if body.stat == msg.RPC_NOT_LEADER:
            self.stats.not_leader_rejections += 1
            # The connection is alive but pointed at a non-leader; tell the
            # failover transport so the next reconnect rotates instead of
            # no-opping on the still-open connection.
            if self.leader_sink is not None:
                self.leader_sink.note_not_leader(leader_info)
            epoch = leader_info.epoch if leader_info is not None else 0
            hint = leader_info.hint if leader_info is not None else ""
            raise RpcNotLeaderError(
                "server is fenced (not the leader)"
                + (f"; leader is {hint!r}" if hint else ""),
                epoch=epoch,
                leader_hint=hint,
            )
        raise RpcReplyError(f"unknown accept_stat {body.stat}")

    # -- typed interface ------------------------------------------------------

    def call_typed(
        self,
        proc: int,
        arg_type: XdrType,
        res_type: XdrType,
        arg_value: Any,
    ) -> Any:
        """Invoke ``proc`` encoding/decoding through XDR type descriptors."""
        raw = self.call_raw(proc, lambda enc: arg_type.encode(enc, arg_value))
        dec = XdrDecoder(raw)
        result = res_type.decode(dec)
        dec.assert_done()
        return result

    def null_call(self) -> None:
        """Invoke procedure 0 (the conventional NULL/ping procedure)."""
        self.call_raw(0, b"")

    def close(self) -> None:
        """Close the underlying transport."""
        self.transport.close()

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
