"""Overload control: bounded queues, deadlines, fair shedding, cancellation.

The deterministic pieces (queue bounds, WFQ, the overload nemesis
profiles) run in virtual time; the threaded controller tests use real
threads against a saturated server, bounded by short timeouts.
"""

import threading
import time

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.net.simclock import SimClock
from repro.oncrpc import LoopbackTransport, RpcClient
from repro.oncrpc import message as msg
from repro.oncrpc.auth import call_meta_auth, client_token_auth
from repro.oncrpc.errors import (
    RpcBusyError,
    RpcCancelled,
    RpcDeadlineExceeded,
    RpcTransportError,
)
from repro.oncrpc.server import CallContext, RpcServer
from repro.resilience import (
    CallCancelledError,
    OverloadConfig,
    OverloadController,
    OverloadQueue,
    Refusal,
    RetryPolicy,
    is_retryable,
)

from repro.resilience.simulation import (
    OVERLOAD_STORM,
    NemesisEvent,
    profile_plan,
    run_profile,
    run_simulation,
)

PROG, VERS = 0x20000099, 3
MS = 1_000_000  # ns


def make_queue(**kwargs) -> OverloadQueue:
    return OverloadQueue(OverloadConfig(**kwargs))


class TestShedPolicies:
    def test_reject_newest_refuses_incoming(self):
        q = make_queue(max_queue_depth=2)
        assert not isinstance(q.offer("a", 1, 0), Refusal)
        assert not isinstance(q.offer("a", 2, 0), Refusal)
        refusal = q.offer("a", 3, 0)
        assert isinstance(refusal, Refusal) and refusal.kind == "busy"
        assert [t.xid for t in q.tickets()] == [1, 2]

    def test_per_client_bound_does_not_evict_others(self):
        q = make_queue(max_queue_depth=8, max_queue_depth_per_client=1)
        q.offer("hot", 1, 0)
        refusal = q.offer("hot", 2, 0)
        assert isinstance(refusal, Refusal) and refusal.kind == "busy"
        assert not isinstance(q.offer("cold", 3, 0), Refusal)

    def test_peak_depth_gauge(self):
        q = make_queue(max_queue_depth=8)
        for xid in range(5):
            q.offer("a", xid, 0)
        q.pop_next(0)
        q.pop_next(0)
        assert q.stats.queue_peak_depth == 5


class TestDeadlinesInQueue:
    def test_expired_refused_at_offer(self):
        q = make_queue()
        refusal = q.offer("a", 1, now_ns=10, expires_at_ns=10)
        assert isinstance(refusal, Refusal) and refusal.kind == "expired"
        assert q.stats.deadline_expired_in_queue == 1

    def test_expired_dropped_at_pop_never_returned(self):
        q = make_queue()
        q.offer("a", 1, 0, expires_at_ns=5)
        q.offer("a", 2, 0, expires_at_ns=1000)
        ticket, dropped = q.pop_next(now_ns=500)
        assert ticket is not None and ticket.xid == 2
        assert [t.xid for t in dropped] == [1]
        assert q.stats.deadline_expired_in_queue == 1

    def test_cancelled_skipped_at_pop(self):
        q = make_queue()
        q.offer("a", 1, 0)
        q.offer("a", 2, 0)
        assert q.cancel("a", 1)
        assert not q.cancel("a", 99)
        assert not q.cancel("b", 2)  # wrong identity: tenant isolation
        ticket, dropped = q.pop_next(0)
        assert ticket.xid == 2
        assert [t.xid for t in dropped] == [1]
        assert q.stats.cancelled_in_queue == 1


class TestWeightedFairQueueing:
    def test_pop_order_follows_weights(self):
        q = make_queue(max_queue_depth=64, weights={"heavy": 2.0, "light": 1.0})
        for xid in range(12):
            q.offer("heavy", xid, 0)
            q.offer("light", 100 + xid, 0)
        order = []
        while True:
            ticket, _ = q.pop_next(0)
            if ticket is None:
                break
            order.append(ticket.identity)
        first_nine = order[:9]
        assert first_nine.count("heavy") == 2 * first_nine.count("light")

    def test_equal_weights_interleave(self):
        q = make_queue(max_queue_depth=64)
        for xid in range(6):
            q.offer("a", xid, 0)
        for xid in range(6):
            q.offer("b", 100 + xid, 0)
        order = []
        while True:
            ticket, _ = q.pop_next(0)
            if ticket is None:
                break
            order.append(ticket.identity)
        # b arrived later but must not starve behind a's backlog
        assert "b" in order[:3]


class TestOverloadController:
    def test_blocked_waiter_granted_on_release(self):
        ctl = OverloadController(
            OverloadConfig(max_concurrency=1), now_ns=time.monotonic_ns
        )
        outcome, token = ctl.acquire("a", 1)
        assert outcome == OverloadController.ADMITTED and token is not None
        results = []

        def waiter():
            results.append(ctl.acquire("b", 2))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        deadline = time.monotonic() + 2.0
        while not len(ctl.queue) and time.monotonic() < deadline:
            time.sleep(0.005)
        ctl.release()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert results and results[0][0] == OverloadController.ADMITTED
        ctl.release()

    def test_queued_waiter_cancelled(self):
        ctl = OverloadController(
            OverloadConfig(max_concurrency=1), now_ns=time.monotonic_ns
        )
        ctl.acquire("a", 1)
        results = []

        def waiter():
            results.append(ctl.acquire("b", 2))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        deadline = time.monotonic() + 2.0
        while not len(ctl.queue) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert ctl.cancel("b", 2)
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert results == [(OverloadController.CANCELLED, None)]
        assert ctl.stats.cancelled_in_queue == 1
        ctl.release()

    def test_queued_waiter_expires(self):
        ctl = OverloadController(
            OverloadConfig(max_concurrency=1), now_ns=time.monotonic_ns
        )
        ctl.acquire("a", 1)
        expiry = time.monotonic_ns() + 50 * MS
        outcome, token = ctl.acquire("b", 2, expires_at_ns=expiry)
        assert outcome == OverloadController.EXPIRED and token is None
        assert ctl.stats.deadline_expired_in_queue == 1
        ctl.release()

    def test_full_queue_refused_immediately(self):
        ctl = OverloadController(
            OverloadConfig(max_concurrency=1, max_queue_depth=0),
            now_ns=time.monotonic_ns,
        )
        ctl.acquire("a", 1)
        started = time.monotonic()
        outcome, _ = ctl.acquire("b", 2)
        assert outcome == OverloadController.BUSY
        assert time.monotonic() - started < 1.0  # refused, not queued
        ctl.release()


def saturate(server):
    """Occupy the server's only slot and only queue seat."""
    assert server.overload is not None
    outcome, _ = server.overload.acquire("token:holder", 10_001)
    assert outcome == OverloadController.ADMITTED
    server.overload.queue.offer("token:waiter", 10_002, server.clock.now_ns)


class TestServerReplies:
    def test_saturated_server_raises_typed_retryable_busy(self):
        server = CricketServer(
            overload=OverloadConfig(max_concurrency=1, max_queue_depth=1)
        )
        client = CricketClient.loopback(server)
        saturate(server)
        try:
            with pytest.raises(RpcBusyError) as excinfo:
                client.get_device_count()
            assert is_retryable(excinfo.value)
            assert client.stub.client.stats.busy_rejections == 1
        finally:
            server.overload.release()

    def test_busy_is_retried_to_success(self):
        clock = SimClock()
        server = CricketServer(
            clock=clock,
            overload=OverloadConfig(max_concurrency=1, max_queue_depth=1),
        )
        saturate(server)
        attempts = []

        class Unsaturate(LoopbackTransport):
            def send_record(self, payload):
                attempts.append(1)
                if len(attempts) == 2:
                    # capacity frees before retry 2: drop the phantom
                    # waiter, then hand back the held slot
                    server.overload.queue.cancel("token:waiter", 10_002)
                    server.overload.release()
                return super().send_record(payload)

        client = CricketClient.loopback(server)
        client.stub.client.transport = Unsaturate(server.dispatch_record)
        client.stub.client.retry_policy = RetryPolicy(max_attempts=4, base_delay_s=0.01)
        client.stub.client.clock = clock
        assert client.get_device_count() >= 1
        assert len(attempts) >= 2

    def test_expired_call_never_reaches_device(self):
        """Regression: a dead-on-arrival call must not allocate GPU memory."""
        server = CricketServer()
        used_before = sum(d.allocator.used_bytes for d in server.devices)
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=10,  # rpc_cudaMalloc
            cred=client_token_auth(b"tenant"),
            verf=call_meta_auth(0),  # remaining budget: none
            args=(1 << 16).to_bytes(8, "big"),
        )
        reply = server.dispatch_record(msg.RpcMessage(77, call).encode())
        assert msg.RpcMessage.decode(reply).body.stat == msg.CALL_EXPIRED
        assert sum(d.allocator.used_bytes for d in server.devices) == used_before
        assert server.server_stats.deadline_expired_in_queue == 1
        # fatal refusals are not cached: a retransmit is refused again
        reply2 = server.dispatch_record(msg.RpcMessage(77, call).encode())
        assert msg.RpcMessage.decode(reply2).body.stat == msg.CALL_EXPIRED
        assert server.server_stats.reply_cache_hits == 0

    def test_exempt_procs_bypass_admission(self):
        server = CricketServer(
            lease_s=10.0,
            overload=OverloadConfig(max_concurrency=1, max_queue_depth=1),
        )
        client = CricketClient.loopback(server)
        client.get_device_count()  # establish the session
        saturate(server)
        try:
            # rpc_ping (62) and rpc_cancel (63) must not queue behind the
            # very backlog they exist to manage
            assert client.renew_lease() > 0
            assert client.cancel(999_999) is False
        finally:
            server.overload.release()


class TestCancellation:
    def test_cancelled_xid_retransmit_replays_not_reexecutes(self):
        """rpc_cancel x at-most-once: the cancelled reply is sticky."""
        server = CricketServer()
        token = b"tenant"
        identity = f"token:{token.hex()}"
        cached = server.record_cancelled(identity, 42)
        used_before = sum(d.allocator.used_bytes for d in server.devices)
        call = msg.CallBody(
            prog=0x20000199,
            vers=1,
            proc=10,  # re-execution would visibly allocate
            cred=client_token_auth(token),
            args=(1 << 16).to_bytes(8, "big"),
        )
        reply = server.dispatch_record(msg.RpcMessage(42, call).encode())
        assert reply == cached
        assert msg.RpcMessage.decode(reply).body.stat == msg.CALL_CANCELLED
        assert server.server_stats.reply_cache_hits == 1
        assert sum(d.allocator.used_bytes for d in server.devices) == used_before

    def test_queued_call_cancelled_server_side(self):
        server = CricketServer(
            overload=OverloadConfig(max_concurrency=1, max_queue_depth=4)
        )
        outcome, _ = server.overload.acquire("token:holder", 1)
        assert outcome == OverloadController.ADMITTED
        client = CricketClient.loopback(server)
        errors = []

        def blocked_call():
            try:
                client.get_device_count()
            except Exception as exc:  # noqa: BLE001 - recorded for assertion
                errors.append(exc)

        t = threading.Thread(target=blocked_call, daemon=True)
        t.start()
        deadline = time.monotonic() + 5.0
        while not len(server.overload.queue) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(server.overload.queue) == 1
        xid = client.stub.client.last_xid
        assert server.cancel_call(client.session_identity, xid)
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], RpcCancelled)
        assert server.server_stats.cancelled_in_queue == 1
        server.overload.release()

    def test_in_flight_call_aborts_at_safe_point(self):
        server = RpcServer()
        started = threading.Event()
        release = threading.Event()
        seen = {}

        def slow_handler(args, ctx):
            seen["identity"] = ctx.identity
            started.set()
            release.wait(timeout=5.0)
            ctx.cancel.raise_if_requested()
            return args

        server.register_program(PROG, VERS, {1: slow_handler})
        client = RpcClient(LoopbackTransport(server.dispatch_record), PROG, VERS)
        errors = []

        def call():
            try:
                client.call_raw(1, b"payload!")
            except Exception as exc:  # noqa: BLE001 - recorded for assertion
                errors.append(exc)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        assert started.wait(timeout=5.0)
        assert server.cancel_call(seen["identity"], client.last_xid)
        release.set()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], RpcCancelled)
        assert server.server_stats.cancelled_in_flight == 1

    def test_malloc_safe_point_undoes_allocation(self):
        server = CricketServer()
        impl = server.implementation
        ctx = CallContext(
            prog=0x20000199,
            vers=1,
            proc=10,
            cred=client_token_auth(b"tenant"),
            client_id="t",
            session={},
            identity="token:" + b"tenant".hex(),
        )
        ctx.cancel.cancel()  # fires before the handler runs
        with pytest.raises(CallCancelledError):
            impl.rpc_cudaMalloc(4096, ctx=ctx)
        assert sum(d.allocator.used_bytes for d in server.devices) == 0

    def test_client_cancel_scope_cancels_on_error(self):
        server = CricketServer()
        client = CricketClient.loopback(server)
        with pytest.raises(RuntimeError, match="boom"):
            with client.cancel_scope() as scope:
                client.get_device_count()
                raise RuntimeError("boom")
        assert len(scope.xids) == 1
        # observer restored: later calls are not tracked by the dead scope
        client.get_device_count()
        assert len(scope.xids) == 1

    def test_cancel_unknown_xid_returns_false(self):
        server = CricketServer()
        client = CricketClient.loopback(server)
        assert client.cancel(123_456) is False


class TestDeadlineAccounting:
    def test_reconnect_time_charged_against_deadline(self):
        """Satellite: probe/backoff time between attempts burns the budget."""
        clock = SimClock()
        sends = []

        class FailingTransport:
            def send_record(self, payload):
                sends.append(payload)
                raise RpcTransportError("connection refused")

            def recv_record(self):  # pragma: no cover - never reached
                raise AssertionError

            def reconnect(self):
                # a slow connect storm: probing the dead endpoint costs
                # far more virtual time than the backoff schedule predicts
                clock.advance_s(0.5)

            def close(self):
                pass

        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.01, deadline_s=0.4
        )
        client = RpcClient(
            FailingTransport(), PROG, VERS, retry_policy=policy, clock=clock
        )
        with pytest.raises(RpcDeadlineExceeded):
            client.call_raw(1, b"xxxx")
        # attempt 1 failed and the reconnect probe burned the whole budget:
        # the top-of-attempt check must refuse to send attempt 2
        assert len(sends) == 1
        assert clock.now_s >= 0.4


class TestOverloadChaos:
    """The ``overload_*`` nemesis profiles: open-loop storms on the simulator."""

    @pytest.mark.parametrize("load", [1.0, 2.0, 5.0])
    def test_soak_is_clean(self, load):
        # a hot tenant (3x everyone else's offered load) at every load factor
        result = run_simulation(
            profile_plan("overload_hot_tenant", 7),
            schedule=[NemesisEvent(1.0, OVERLOAD_STORM, {"load": load, "hot": 3.0})],
        )
        assert result.clean, result.violations
        assert {"executed-expired", "queue-unbounded", "unfair-share"} <= set(
            result.evaluated
        )
        storm = result.facts("overload_storm")
        assert storm["offered"]["tenant0"] == 3 * storm["offered"]["tenant1"]
        if load == 1.0:  # capacity for everyone: nobody materially starved
            assert all(
                storm["goodput"][t] >= 0.9 * storm["offered"][t]
                for t in ("tenant1", "tenant2")
            )

    def test_overload_actually_sheds_at_5x(self, profile_run):
        result = profile_run("overload_5x", 0)
        assert result.counters["server.overload_shed"] > 0
        assert result.counters["server.deadline_expired_in_queue"] > 0
        assert result.counters["server.queue_peak_depth"] == 16  # pinned at the bound

    def test_same_seed_same_outcome(self, profile_run):
        first, second = profile_run("overload_2x", 3), run_profile("overload_2x", 3)
        assert first.fingerprint == second.fingerprint
        assert first.counters == second.counters

    def test_weight_buys_goodput_when_the_tenant_bound_binds(self, profile_run):
        storm = profile_run("overload_weighted", 8).facts("overload_storm")
        others = max(storm["goodput"]["tenant1"], storm["goodput"]["tenant2"])
        assert storm["goodput"]["tenant0"] >= others  # weight 1.5 vs 1.0
