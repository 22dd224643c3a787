"""Server-side session lifecycle: leases, reclamation, drain, admission.

The scenarios mirror the failure modes the subsystem exists for: a client
that dies mid-allocation loop must leak nothing once its lease and grace
lapse; a client that comes back within grace must find everything where it
left it; a draining server must finish in-flight work but admit nobody
new; and one tenant must not be able to exhaust the device past its quota.
All timing is virtual (SimClock), so the lease arithmetic is exact.
"""

import threading
import time

import pytest

from repro import GpuSession
from repro.cricket import (
    LEASE_FOREVER,
    CricketClient,
    CricketServer,
    SessionManager,
)
from repro.cuda import constants as C
from repro.cuda.errors import CudaError
from repro.oncrpc import RpcTransportError, client_token_auth
from repro.oncrpc import message as msg
from repro.resilience import ReconnectingTransport, ServerStats, null_probe
from repro.resilience.simulation import (
    KILL_CLIENT,
    NemesisEvent,
    profile_plan,
    run_profile,
    run_simulation,
)

MB = 1 << 20


def make_server(**kwargs) -> CricketServer:
    return CricketServer(**kwargs)


class TestLeaseLifecycle:
    def test_leases_disabled_by_default(self):
        server = make_server()
        client = CricketClient.loopback(server)
        client.malloc(MB)
        server.clock.advance_s(1e6)  # a virtual week and a half
        assert server.reap_sessions() == 0
        session = server.sessions.lookup(client.session_identity)
        assert session is not None and session.state == "active"
        assert server.device.allocator.used_bytes == MB
        assert client.renew_lease() == LEASE_FOREVER

    def test_every_rpc_renews_the_lease(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        ptr = client.malloc(MB)
        for _ in range(10):
            server.clock.advance_s(0.6)  # past 0.6 leases, never a full one
            client.memcpy_h2d(ptr, b"hi")
        session = server.sessions.lookup(client.session_identity)
        assert session.state == "active"
        assert server.device.allocator.used_bytes == MB

    def test_expiry_orphans_then_reclaims(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        client.malloc(MB)
        client.stream_create()
        client.event_create()
        client.cublas_create()
        identity = client.session_identity
        assert server.sessions.ledger.bytes_held(identity) == MB

        server.clock.advance_s(1.5)  # lease gone, grace running
        server.reap_sessions()
        session = server.sessions.lookup(identity)
        assert session.state == "orphaned"
        assert server.device.allocator.used_bytes == MB  # not yet freed

        server.clock.advance_s(1.0)  # grace gone
        freed = server.reap_sessions()
        assert freed == MB
        assert server.sessions.lookup(identity) is None
        assert server.sessions.ledger.bytes_held(identity) == 0
        assert server.device.allocator.used_bytes == 0
        assert len(server.device.streams.streams()) == 1  # default stream only
        assert server.blas._handles == set()
        stats = server.server_stats
        assert stats.sessions_expired == 1
        assert stats.sessions_reclaimed == 1
        assert stats.bytes_reclaimed == MB

    def test_client_killed_mid_malloc_loop_leaks_nothing(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        victim = CricketClient.loopback(server)
        survivor = CricketClient.loopback(server)
        survivor_ptr = survivor.malloc(MB)
        for _ in range(5):
            victim.malloc(MB)
        identity = victim.session_identity
        del victim  # crashed unikernel: no frees, no goodbye
        assert server.sessions.ledger.bytes_held(identity) == 5 * MB

        # Survivor keeps heartbeating while the victim's lease lapses.
        for _ in range(4):
            server.clock.advance_s(0.5)
            survivor.renew_lease()
        server.reap_sessions()
        assert server.sessions.ledger.bytes_held(identity) == 0
        assert server.device.allocator.used_bytes == MB  # survivor's byte
        assert survivor.memcpy_d2h(survivor_ptr, 4) is not None

    def test_reattach_within_grace_keeps_allocations(self):
        server = make_server(lease_s=1.0, grace_s=5.0)
        client = CricketClient.loopback(server)
        data = b"unikernel state" * 100
        ptr = client.malloc(len(data))
        client.memcpy_h2d(ptr, data)
        identity = client.session_identity

        server.clock.advance_s(2.0)
        server.reap_sessions()
        assert server.sessions.lookup(identity).state == "orphaned"

        server.clock.advance_s(1.0)  # still inside the 5 s grace
        remaining = client.renew_lease()
        assert 0 < remaining <= int(1.0 * 1e9)
        session = server.sessions.lookup(identity)
        assert session.state == "active"
        assert server.server_stats.sessions_reattached == 1
        assert client.memcpy_d2h(ptr, len(data)) == data
        assert server.sessions.ledger.bytes_held(identity) == len(data)

    def test_post_grace_identity_gets_fresh_session(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        client.malloc(MB)
        identity = client.session_identity

        server.clock.advance_s(2.0)
        server.reap_sessions()  # orphan (grace countdown starts now)
        server.clock.advance_s(1.0)
        server.reap_sessions()  # grace lapsed: reclaimed
        assert server.sessions.lookup(identity) is None

        client.renew_lease()  # same token, brand-new session
        session = server.sessions.lookup(identity)
        assert session is not None and session.state == "active"
        assert len(server.sessions.ledger.held_by(identity)) == 0
        assert server.server_stats.sessions_opened == 2
        assert server.server_stats.sessions_reattached == 0

    def test_reaper_runs_opportunistically_on_dispatch(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        victim = CricketClient.loopback(server)
        victim.malloc(MB)
        other = CricketClient.loopback(server)
        server.clock.advance_s(5.0)
        # No explicit reap: another client's ordinary call sweeps the orphan
        # through to orphaned, and a second call (post-grace) reclaims it.
        other.get_device_count()
        server.clock.advance_s(5.0)
        other.get_device_count()
        assert server.device.allocator.used_bytes == 0
        assert server.server_stats.sessions_reclaimed == 1

    def test_device_reset_drops_ledger_entries(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        client.malloc(MB)
        client.device_reset()
        assert len(server.sessions.ledger.held_by(client.session_identity)) == 0
        # Reclaiming the session later must not double-free reset memory.
        server.clock.advance_s(5.0)
        server.reap_sessions()
        server.clock.advance_s(5.0)
        assert server.reap_sessions() == 0


class TestSessionManagerUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionManager(lease_s=0)
        with pytest.raises(ValueError):
            SessionManager(grace_s=-1)
        with pytest.raises(ValueError):
            SessionManager(max_sessions=0)
        with pytest.raises(ValueError):
            SessionManager(memory_quota_bytes=-1)

    def test_mark_disconnected_noop_without_leases(self):
        manager = SessionManager()
        manager.open("token:aa", now_ns=0)
        manager.mark_disconnected(["token:aa"], now_ns=0)
        assert manager.lookup("token:aa").state == "active"

    def test_mark_disconnected_orphans_with_leases(self):
        manager = SessionManager(lease_s=10.0, grace_s=1.0)
        manager.open("token:aa", now_ns=0)
        manager.mark_disconnected(["token:aa"], now_ns=0)
        assert manager.lookup("token:aa").state == "orphaned"
        # grace still lets the client back in
        manager.renew("token:aa", now_ns=int(0.5e9))
        assert manager.lookup("token:aa").state == "active"

    def test_snapshot_restore_rebases_leases(self):
        stats = ServerStats()
        manager = SessionManager(lease_s=1.0, grace_s=1.0, stats=stats)
        manager.open("token:aa", now_ns=0)
        manager.ledger.record("token:aa", "allocations", 0, 0x1000, 4096)
        state = manager.snapshot_state(0)

        fresh = SessionManager(lease_s=1.0, grace_s=1.0)
        late = int(100e9)  # restore long after the original lease expired
        fresh.restore_state(state, now_ns=late)
        restored = fresh.lookup("token:aa")
        assert restored.state == "active"
        assert restored.lease_expires_ns == late + int(1e9)
        assert fresh.ledger.state_of("token:aa", 0)["allocations"] == {0x1000: (0, 4096)}


class TestAdmissionControl:
    def test_max_sessions_denial_is_a_cuda_error(self):
        server = make_server(max_sessions=1)
        first = CricketClient.loopback(server)
        first.malloc(MB)
        second = CricketClient.loopback(server)
        with pytest.raises(CudaError) as excinfo:
            second.malloc(MB)
        assert excinfo.value.code == C.cudaErrorDevicesUnavailable
        assert server.server_stats.admission_denied >= 1
        # The incumbent is unaffected.
        first.malloc(MB)

    def test_memory_quota_denial_and_release(self):
        server = make_server(memory_quota_bytes=MB)
        client = CricketClient.loopback(server)
        first = client.malloc(512 * 1024)
        client.malloc(256 * 1024)
        with pytest.raises(CudaError) as excinfo:
            client.malloc(512 * 1024)
        assert excinfo.value.code == C.cudaErrorMemoryAllocation
        assert server.server_stats.quota_denied == 1
        # Freeing restores quota headroom.
        client.free(first)
        client.malloc(512 * 1024)

    def test_quota_is_per_client(self):
        server = make_server(memory_quota_bytes=MB)
        a = CricketClient.loopback(server)
        b = CricketClient.loopback(server)
        a.malloc(MB)
        b.malloc(MB)  # b has its own quota
        with pytest.raises(CudaError):
            a.malloc(1)


class TestGracefulDrain:
    def test_drain_rejects_new_sessions_and_checkpoints(self):
        server = make_server()
        incumbent = CricketClient.loopback(server)
        ptr = incumbent.malloc(MB)
        incumbent.memcpy_h2d(ptr, b"keep me")

        server.shutdown(drain=True)
        assert server.draining
        assert server.server_stats.drains_completed == 1
        # Remaining sessions were snapshotted through the checkpoint path.
        assert server.drain_checkpoint is not None

        newcomer = CricketClient.loopback(server)
        with pytest.raises(CudaError) as excinfo:
            newcomer.malloc(MB)
        assert excinfo.value.code == C.cudaErrorDevicesUnavailable
        # The incumbent finishes its business.
        assert incumbent.memcpy_d2h(ptr, 7) == b"keep me"

    def test_drain_checkpoint_restores_sessions_elsewhere(self):
        server = make_server()
        client = CricketClient.loopback(server)
        data = b"x" * 4096
        ptr = client.malloc(len(data))
        client.memcpy_h2d(ptr, data)
        server.shutdown(drain=True)

        replacement = make_server()
        client.recover(server.drain_checkpoint, server=replacement)
        assert replacement.sessions.ledger.bytes_held(client.session_identity) == len(data)
        assert client.memcpy_d2h(ptr, len(data)) == data

    def test_drain_completes_inflight_tcp_calls(self):
        server = make_server()
        # Make the next synchronize genuinely slow in wall time so the
        # drain provably overlaps an in-flight call.
        real_sync = server.runtime.cudaDeviceSynchronize

        def slow_sync():
            time.sleep(0.4)
            return real_sync()

        server.runtime.cudaDeviceSynchronize = slow_sync
        host, port = server.serve_tcp("127.0.0.1", 0)
        client = CricketClient.connect_tcp(host, port)
        try:
            client.get_device_count()  # open the session before draining
            outcome = {}

            def call():
                try:
                    client.device_synchronize()
                    outcome["ok"] = True
                except Exception as exc:  # pragma: no cover - failure path
                    outcome["error"] = exc

            worker = threading.Thread(target=call)
            worker.start()
            time.sleep(0.15)  # the slow call is now in flight
            server.shutdown(drain=True, drain_timeout_s=5.0)
            worker.join(timeout=5.0)
            assert outcome == {"ok": True}
            assert server.server_stats.drains_completed == 1
        finally:
            client.close()

    def test_hard_shutdown_closes_connection_threads(self):
        server = make_server()
        host, port = server.serve_tcp("127.0.0.1", 0)
        client = CricketClient.connect_tcp(host, port)
        try:
            client.get_device_count()
            assert any(
                t.name.startswith("rpc-conn-") and t.is_alive()
                for t in threading.enumerate()
            )
            server.shutdown()
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if not any(
                    t.name.startswith("rpc-conn-") and t.is_alive()
                    for t in threading.enumerate()
                ):
                    break
                time.sleep(0.02)
            assert not any(
                t.name.startswith("rpc-conn-") and t.is_alive()
                for t in threading.enumerate()
            )
        finally:
            client.close()


class TestPingAndProbe:
    def test_ping_is_nullproc_and_renews(self):
        server = make_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        client.malloc(MB)
        calls_before = server.calls_served
        for _ in range(5):
            server.clock.advance_s(0.6)
            client.ping()  # NULLPROC heartbeat, no decoding, no payload
        assert server.sessions.lookup(client.session_identity).state == "active"
        # NULL replies are dispatched but carry no procedure result.
        assert server.calls_served > calls_before

    def test_renew_lease_reports_remaining(self):
        server = make_server(lease_s=2.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        remaining = client.renew_lease()
        assert 0 < remaining <= int(2.0 * 1e9)

    def test_null_probe_accepts_live_server(self):
        server = make_server()
        from repro.oncrpc import LoopbackTransport

        probe = null_probe(server.interface.prog_number, server.interface.vers_number)
        transport = ReconnectingTransport(
            lambda: LoopbackTransport(server.dispatch_record),
            probe=probe,
        )
        transport.reconnect(force=True)  # probe runs, must not raise
        assert transport.connected

    def test_null_probe_rejects_dead_server(self):
        class DeadTransport:
            def send_record(self, record):
                raise RpcTransportError("connection reset")

            def recv_record(self):
                raise RpcTransportError("connection reset")

            def close(self):
                pass

        probe = null_probe(0x20000099, 1)
        transport = ReconnectingTransport(DeadTransport, probe=probe)
        transport.close()  # the connection died before any call
        failures_before = transport.breaker._consecutive_failures
        with pytest.raises(RpcTransportError):
            transport.reconnect()
        assert transport.breaker._consecutive_failures == failures_before + 1
        assert not transport.connected


class TestServerCounters:
    def test_reply_cache_counters(self):
        server = make_server()
        cred = client_token_auth(b"counter-test")
        call = msg.RpcMessage(
            77, msg.CallBody(server.interface.prog_number,
                             server.interface.vers_number, 0, cred=cred, args=b"")
        )
        record = call.encode()
        server.dispatch_record(record)
        server.dispatch_record(record)  # retransmission: served from cache
        assert server.server_stats.reply_cache_hits == 1
        assert server.server_stats.reply_cache_bytes > 0

    def test_tracer_summary_includes_server_counters(self):
        session = GpuSession()
        tracer = session.enable_tracing()
        buffer = session.upload(b"traced bytes")
        assert buffer.read() == b"traced bytes"
        snapshot = tracer.counter_snapshot()
        assert snapshot.get("server.sessions_opened", 0) >= 1
        assert "server.sessions_opened" in tracer.summary()


class TestChaos:
    """The ``client_kill`` nemesis profile: crashed clients leak nothing."""

    def test_seeded_chaos_run_is_leak_free(self, profile_run):
        result = profile_run("client_kill", 1)
        assert result.clean, result.violations
        crashed = [e.node for e in result.events if e.kind == "crash"]
        assert len(crashed) == 2  # both kills landed, on distinct clients
        # the kills did leak -- until lease + grace lapsed and the reaper ran
        assert result.counters["server.sessions_reclaimed"] >= 2
        assert result.counters["server.bytes_reclaimed"] > 0
        assert "orphan-bytes" in result.evaluated

    def test_chaos_is_deterministic(self, profile_run):
        first, second = profile_run("client_kill", 3), run_profile("client_kill", 3)
        assert first.fingerprint == second.fingerprint
        assert first.counters == second.counters

    def test_chaos_plan_validation(self):
        # a schedule that tries to kill everybody still leaves a survivor
        plan = profile_plan("client_kill", 0)
        result = run_simulation(plan, schedule=[
            NemesisEvent(1.0 + i, KILL_CLIENT, {"client": i})
            for i in range(plan.clients)
        ])
        assert result.clean, result.violations
        crashed = [e.node for e in result.events if e.kind == "crash"]
        assert len(crashed) == plan.clients - 1


class TestCheckpointCarriesSessions:
    def test_checkpoint_roundtrip_restores_session_table(self):
        server = make_server(lease_s=30.0)
        client = CricketClient.loopback(server)
        data = b"session state" * 64
        ptr = client.malloc(len(data))
        client.memcpy_h2d(ptr, data)
        blob = client.checkpoint()

        replacement = make_server(lease_s=30.0)
        client.recover(blob, server=replacement)
        identity = client.session_identity
        assert replacement.sessions.ledger.bytes_held(identity) == len(data)
        assert client.memcpy_d2h(ptr, len(data)) == data
        # The restored lease is anchored at the new server's clock, so the
        # session is immediately healthy rather than instantly orphaned.
        session = replacement.sessions.lookup(identity)
        assert session.state == "active"
