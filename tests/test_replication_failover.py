"""High availability: replication, failover, sticky faults, CRC integrity.

Covers the HA stack top to bottom: the sticky device-fault model and
server-side device failover, CRC32 record integrity with
transparent retransmission, hot-standby replication (full sync + op-log),
transparent client failover with at-most-once intact across the
execute-then-crash window, reply-cache survival through drain
checkpoints, and a property test that op-log replay reproduces exactly
the state a full checkpoint carries.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cricket import CricketClient, CricketServer, restore_server, snapshot_server
from repro.cricket.replication import (
    ReplicationLink,
    make_ha_pair,
    promote,
    state_fingerprint,
)
from repro.cricket.spec import MUTATING_PROC_NAMES, MUTATING_PROCS
from repro.cuda import constants as C
from repro.cuda.errors import CudaError
from repro.gpu.catalog import A100, V100
from repro.gpu.device import GpuDevice
from repro.gpu.errors import DeviceFaultError
from repro.net.simclock import SimClock
from repro.oncrpc.errors import RpcError, RpcIntegrityError, RpcTransportError
from repro.oncrpc.record import append_crc, verify_crc
from repro.resilience import (
    FailoverTransport,
    FaultPlan,
    LoopbackEndpoint,
    RetryPolicy,
)
from repro.resilience.simulation import run_profile

MB = 1 << 20


def ha_pair(**kwargs):
    primary = CricketServer(clock=SimClock(), **kwargs)
    standby = CricketServer(clock=SimClock(), **kwargs)
    return primary, standby


# -- sticky device faults -------------------------------------------------


class TestStickyDeviceFaults:
    def test_fault_is_sticky_until_reset(self):
        device = GpuDevice(A100)
        device.inject_fault("ecc")
        for _ in range(3):
            with pytest.raises(DeviceFaultError) as exc_info:
                device.alloc(1024)
            assert exc_info.value.code == C.cudaErrorECCUncorrectable
        assert not device.healthy
        device.reset()
        assert device.healthy
        assert device.alloc(1024) > 0

    def test_context_fault_code(self):
        device = GpuDevice(A100)
        device.inject_fault("context")
        with pytest.raises(DeviceFaultError) as exc_info:
            device.memset(0, 0, 1)
        assert exc_info.value.code == C.cudaErrorIllegalAddress

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            GpuDevice(A100).inject_fault("gremlins")

    def test_fault_surfaces_as_sticky_cuda_error(self):
        server = CricketServer(clock=SimClock())
        client = CricketClient.loopback(server)
        server.inject_device_fault(0, "ecc")
        for _ in range(3):  # sticky: same code every time
            with pytest.raises(CudaError) as exc_info:
                client.device_synchronize()
            assert exc_info.value.code == C.cudaErrorECCUncorrectable
        assert server.device_health() == {0: False}

    def test_snapshot_is_admin_path_despite_fault(self):
        device = GpuDevice(A100)
        ptr = device.alloc(256)
        device.memcpy_h2d(ptr, b"\x11" * 256)
        device.inject_fault("ecc")
        image = device.snapshot()  # must not raise
        assert image["allocations"]


class TestDeviceFailover:
    def make_server(self):
        return CricketServer(
            [GpuDevice(A100), GpuDevice(A100)], clock=SimClock()
        )

    def test_failover_preserves_pointers_and_data(self):
        server = self.make_server()
        client = CricketClient.loopback(server)
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\xcd" * 512)
        stream = client.stream_create()
        server.inject_device_fault(0, "ecc")
        spare = server.failover_device(0)
        assert spare == 1
        # same ordinal, same pointer, same bytes, healthy again
        assert server.device_health()[0] is True
        assert client.memcpy_d2h(ptr, 512) == b"\xcd" * 512
        client.stream_synchronize(stream)  # stream handle survived the move
        assert server.server_stats.device_failovers == 1

    def test_runtime_and_contexts_follow_the_swap(self):
        server = self.make_server()
        client = CricketClient.loopback(server)
        client.malloc(1 * MB)
        server.inject_device_fault(0, "context")
        server.failover_device(0)
        # the runtime's device list is a copy: both views must agree
        assert server.runtime.devices[0] is server.devices[0]
        assert server._drivers[0].device is server.devices[0]
        # the swapped-out card was reset and is the new idle spare
        assert server.devices[1].healthy
        assert server.devices[1].allocator.used_bytes == 0
        # and the workload keeps running
        client.malloc(1 * MB)

    def test_a_spare_holding_a_tenant_stream_is_not_taken(self):
        server = self.make_server()
        client = CricketClient.loopback(server)
        ptr = client.malloc(1 * MB)
        client.set_device(1)
        stream = client.stream_create()  # the spare slot is no longer idle
        with pytest.raises(RuntimeError):
            server.failover_device(0)
        client.stream_synchronize(stream)  # the tenant's stream still works
        assert server.sessions.ledger.owner_of("streams", 1, stream)
        client.set_device(0)
        assert client.memcpy_d2h(ptr, 16) == bytes(16)
        assert server.server_stats.device_failovers == 0

    def test_a_spare_whose_stream_was_destroyed_is_idle_again(self):
        server = self.make_server()
        client = CricketClient.loopback(server)
        client.malloc(1 * MB)
        client.set_device(1)
        client.stream_destroy(client.stream_create())
        client.set_device(0)
        assert server.failover_device(0) == 1

    def test_no_spare_raises(self):
        server = CricketServer([GpuDevice(A100)], clock=SimClock())
        server.inject_device_fault(0, "ecc")
        with pytest.raises(RuntimeError):
            server.failover_device(0)

    def test_spare_must_match_spec(self):
        server = CricketServer(
            [GpuDevice(A100), GpuDevice(V100)], clock=SimClock()
        )
        server.inject_device_fault(0, "ecc")
        with pytest.raises(RuntimeError):
            server.failover_device(0)


# -- CRC32 integrity on the RPC path --------------------------------------


class TestRecordCrc:
    def test_roundtrip(self):
        record = b"hello cricket"
        assert verify_crc(append_crc(record)) == record

    def test_corruption_detected(self):
        framed = bytearray(append_crc(b"hello cricket"))
        framed[3] ^= 0x5A
        with pytest.raises(RpcIntegrityError):
            verify_crc(bytes(framed))

    def test_short_record_rejected(self):
        with pytest.raises(RpcIntegrityError):
            verify_crc(b"abc")

    def test_corrupt_request_dropped_then_retried(self):
        server = CricketServer(clock=SimClock(), crc_records=True)
        plan = FaultPlan(seed=1, corrupt_request_first=1)
        client = CricketClient.loopback(
            server, faults=plan, retry_policy=RetryPolicy(max_attempts=6)
        )
        ptr = client.malloc(2048)
        assert ptr > 0
        assert server.server_stats.crc_rejected >= 1

    def test_corrupt_reply_retransmit_hits_cache(self):
        server = CricketServer(clock=SimClock(), crc_records=True)
        plan = FaultPlan(seed=1, corrupt_reply_first=1)
        client = CricketClient.loopback(
            server, faults=plan, retry_policy=RetryPolicy(max_attempts=6)
        )
        # non-idempotent call whose first reply is corrupted in flight:
        # the retransmit must be answered from the reply cache
        ptr = client.malloc(2048)
        assert ptr > 0
        assert client.stats.crc_rejected >= 1
        assert server.server_stats.reply_cache_hits >= 1
        assert server.device.allocator.used_bytes == 2048  # exactly once

    def test_crc_disabled_by_default(self):
        server = CricketServer(clock=SimClock())
        client = CricketClient.loopback(server)
        assert client.malloc(1024) > 0
        assert server.server_stats.crc_rejected == 0


# -- replication ----------------------------------------------------------


class TestReplication:
    def test_mutating_procs_resolve(self):
        primary = CricketServer(clock=SimClock())
        numbers = MUTATING_PROCS
        assert len(numbers) == len(MUTATING_PROC_NAMES)
        sigs = primary.interface.signatures
        assert sigs["rpc_cudaMalloc"].number in numbers
        assert sigs["rpc_cudaMemcpyD2H"].number not in numbers  # read-only
        assert sigs["rpc_cudaGetLastError"].number in numbers  # read-and-clear

    def test_synchronous_replication_mirrors_state(self):
        primary, standby = ha_pair()
        link = ReplicationLink(primary, standby)
        client = CricketClient.loopback(primary)
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x77" * 1024)
        stream = client.stream_create()
        client.free(client.malloc(4096))
        assert link.lag == 0
        assert state_fingerprint(primary) == state_fingerprint(standby)
        assert standby.device.allocator.read(ptr, 1024) == b"\x77" * 1024
        assert primary.server_stats.replication_ops_shipped == \
            primary.server_stats.replication_ops_applied
        assert stream in {s.handle for s in standby.device.streams.streams()}

    def test_reads_are_not_shipped(self):
        primary, standby = ha_pair()
        ReplicationLink(primary, standby)
        client = CricketClient.loopback(primary)
        ptr = client.malloc(4096)
        shipped = primary.server_stats.replication_ops_shipped
        client.memcpy_d2h(ptr, 16)
        client.peek_last_error()
        client.device_synchronize()
        assert primary.server_stats.replication_ops_shipped == shipped

    def test_bounded_lag_batches_then_flushes(self):
        primary, standby = ha_pair()
        link = ReplicationLink(primary, standby)
        link.max_lag = 3  # as a demotion to a lag bound of 3 would
        client = CricketClient.loopback(primary)
        client.malloc(4096)
        client.malloc(4096)
        assert 0 < link.lag <= 3
        assert standby.device.allocator.used_bytes == 0  # not applied yet
        for _ in range(4):
            client.malloc(4096)
        assert link.lag <= 3  # auto-flush kept the bound
        link.flush()
        assert link.lag == 0
        assert state_fingerprint(primary) == state_fingerprint(standby)

    def test_full_sync_seeds_existing_state(self):
        primary, standby = ha_pair()
        client = CricketClient.loopback(primary)
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x42" * 64)
        link = ReplicationLink(primary, standby)  # attach mid-life
        assert state_fingerprint(primary) == state_fingerprint(standby)
        assert primary.server_stats.replication_full_syncs == 1
        client.malloc(4096)  # and the op-log continues from there
        assert state_fingerprint(primary) == state_fingerprint(standby)
        assert link.applied_seq == link.primary_seq

    def test_replication_populates_standby_reply_cache(self):
        primary, standby = ha_pair()
        ReplicationLink(primary, standby)
        client = CricketClient.loopback(primary)
        client.malloc(4096)
        # replayed under the original identity: a retransmit would hit
        assert any(
            identity == client.session_identity
            for (identity, _xid) in standby._reply_cache
        )

    def test_second_observer_rejected(self):
        primary, standby = ha_pair()
        ReplicationLink(primary, standby)
        with pytest.raises(RuntimeError):
            ReplicationLink(primary, CricketServer(clock=SimClock()))

    def test_promote_flushes_and_detaches(self):
        primary, standby = ha_pair()
        link = ReplicationLink(primary, standby)
        link.max_lag = 10  # as a demotion to a lag bound of 10 would
        client = CricketClient.loopback(primary)
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x99" * 128)
        assert link.lag > 0
        promoted = promote(link)
        assert promoted is standby
        assert link.lag == 0
        assert not link.attached
        assert primary.on_executed is None
        assert standby.server_stats.standby_promotions == 1
        assert standby.device.allocator.read(ptr, 128) == b"\x99" * 128
        promote(link)  # idempotent
        assert standby.server_stats.standby_promotions == 1

    def test_crc_standby_applies_ops(self):
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock(), crc_records=True)
        ReplicationLink(primary, standby)
        client = CricketClient.loopback(primary)
        ptr = client.malloc(4096)
        # the standby verified and applied the re-checksummed record
        assert standby.device.allocator.used_bytes == 4096
        assert standby.server_stats.crc_rejected == 0
        assert ptr > 0


# -- client failover ------------------------------------------------------


class TestClientFailover:
    def test_failover_transport_rotates(self):
        primary, standby = ha_pair()
        eps = [LoopbackEndpoint(primary, name="p"), LoopbackEndpoint(standby, name="s")]
        transport = FailoverTransport(eps)
        assert transport.active_endpoint is eps[0]
        primary.kill()
        transport.reconnect(force=True)
        assert transport.active_endpoint is eps[1]
        assert transport.stats.failovers == 1

    def test_all_endpoints_dead_raises(self):
        primary, standby = ha_pair()
        eps = [LoopbackEndpoint(primary), LoopbackEndpoint(standby)]
        transport = FailoverTransport(eps)
        primary.kill()
        standby.kill()
        with pytest.raises(RpcTransportError):
            transport.reconnect(force=True)

    def test_immediate_crash_fails_over_transparently(self):
        primary, standby = ha_pair()
        link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        client = CricketClient.failover(
            endpoints, retry_policy=RetryPolicy(max_attempts=8)
        )
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x10" * 64)
        primary.kill()
        ptr2 = client.malloc(4096)  # retried, failed over, executed once
        assert ptr2 > ptr
        assert client.stats.failovers == 1
        assert standby.server_stats.standby_promotions == 1
        assert client.memcpy_d2h(ptr, 64) == b"\x10" * 64

    def test_dangerous_window_no_double_execution(self):
        primary, standby = ha_pair()
        link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        client = CricketClient.failover(
            endpoints, retry_policy=RetryPolicy(max_attempts=8)
        )
        client.malloc(1 * MB)
        # crash after executing (and replicating) the malloc, before the
        # reply: the standby must answer the retransmit from cache
        endpoints[0].kill_after_next_execute()
        client.malloc(2 * MB)
        assert standby.server_stats.reply_cache_hits >= 1
        assert standby.device.allocator.used_bytes == 3 * MB
        assert client.stats.failovers == 1

    def test_failover_without_retry_policy_surfaces_error(self):
        primary, standby = ha_pair()
        _link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        client = CricketClient.failover(endpoints)
        client.malloc(4096)
        primary.kill()
        with pytest.raises(RpcError):
            client.malloc(4096)

    def test_crc_failover_pair(self):
        primary = CricketServer(clock=SimClock(), crc_records=True)
        standby = CricketServer(clock=SimClock(), crc_records=True)
        _link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        client = CricketClient.failover(
            endpoints, retry_policy=RetryPolicy(max_attempts=8)
        )
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x33" * 64)
        endpoints[0].kill_after_next_execute()
        client.malloc(4096)
        assert client.memcpy_d2h(ptr, 64) == b"\x33" * 64
        assert standby.device.allocator.used_bytes == 1 * MB + 4096


def test_tcp_failover_real_sockets():
    """Primary on a real socket dies; the client fails over to the standby."""
    from repro.cricket.client import cricket_interface
    from repro.resilience import ResilienceStats, TcpEndpoint, null_probe

    primary, standby = ha_pair()
    link = ReplicationLink(primary, standby)
    primary_addr = primary.serve_tcp("127.0.0.1", 0)
    standby_addr = standby.serve_tcp("127.0.0.1", 0)
    try:
        iface = cricket_interface()
        stats = ResilienceStats()
        transport = FailoverTransport(
            [
                TcpEndpoint(*primary_addr, name="primary", io_timeout=2.0),
                TcpEndpoint(*standby_addr, name="standby", io_timeout=2.0),
            ],
            stats=stats,
            probe=null_probe(iface.prog_number, iface.vers_number),
        )
        client = CricketClient(
            transport, retry_policy=RetryPolicy(max_attempts=6), stats=stats
        )
        ptr = client.malloc(8192)
        client.memcpy_h2d(ptr, b"\x42" * 128)
        primary.kill()
        primary.shutdown()
        promote(link)
        client.malloc(4096)
        assert client.memcpy_d2h(ptr, 128) == b"\x42" * 128
        assert stats.failovers == 1
        assert standby.device.allocator.used_bytes == 8192 + 4096
    finally:
        standby.shutdown()


# -- reply cache across drain checkpoints (satellite fix) ------------------


class TestReplyCacheSurvivesRestore:
    def test_checkpoint_carries_reply_cache(self):
        server = CricketServer(clock=SimClock())
        client = CricketClient.loopback(server)
        client.malloc(4096)
        blob = snapshot_server(server)
        replacement = CricketServer(clock=SimClock())
        restore_server(replacement, blob)
        assert replacement._reply_cache == server._reply_cache
        assert (
            replacement.server_stats.reply_cache_bytes
            == server.server_stats.reply_cache_bytes
        )

    def test_retransmit_across_drain_restore_not_reexecuted(self):
        server = CricketServer(clock=SimClock(), lease_s=30.0)
        client = CricketClient.loopback(server)
        client.malloc(1 * MB)
        xid_before = client.stub.client.calls_made
        server.shutdown(drain=True)
        assert server.drain_checkpoint is not None
        replacement = CricketServer(clock=SimClock(), lease_s=30.0)
        restore_server(replacement, server.drain_checkpoint)
        # replay the client's last request verbatim against the restored
        # server: at-most-once must answer from the restored cache
        hits_before = replacement.server_stats.reply_cache_hits
        client.recover(server.drain_checkpoint, server=replacement)
        assert replacement.device.allocator.used_bytes == 1 * MB
        assert replacement.server_stats.reply_cache_hits >= hits_before
        client.malloc(4096)  # and new work proceeds
        assert xid_before < client.stub.client.calls_made


# -- property test: op-log replay == checkpoint ---------------------------


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(min_value=256, max_value=64 * 1024)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("h2d"), st.integers(min_value=1, max_value=4096)),
        st.tuples(st.just("stream"), st.none()),
        st.tuples(st.just("event"), st.none()),
        st.tuples(st.just("blas"), st.none()),
        st.tuples(st.just("d2h"), st.integers(min_value=1, max_value=4096)),
        st.tuples(st.just("memset"), st.integers(min_value=0, max_value=255)),
    ),
    min_size=1,
    max_size=24,
)


@given(ops=OPS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_oplog_replay_equals_checkpoint(ops):
    """Replaying the op-log on a fresh standby reproduces exactly the
    state a full checkpoint carries at the same sequence number."""
    primary = CricketServer(clock=SimClock())
    standby = CricketServer(clock=SimClock())
    link = ReplicationLink(primary, standby)  # fresh: op-log is authoritative
    client = CricketClient.loopback(primary)
    ptrs = []
    for kind, arg in ops:
        if kind == "malloc":
            ptrs.append(client.malloc(arg))
        elif kind == "free" and ptrs:
            client.free(ptrs.pop(arg % len(ptrs)))
        elif kind == "h2d" and ptrs:
            client.memcpy_h2d(ptrs[-1], b"\xa5" * min(arg, 256))
        elif kind == "stream":
            client.stream_create()
        elif kind == "event":
            client.event_create()
        elif kind == "blas":
            client.cublas_destroy(client.cublas_create())
        elif kind == "d2h" and ptrs:
            client.memcpy_d2h(ptrs[-1], 16)
        elif kind == "memset" and ptrs:
            client.memset(ptrs[-1], arg, 64)
    assert link.applied_seq == link.primary_seq
    # the standby built purely from the op-log...
    replayed = state_fingerprint(standby)
    # ...must equal a checkpoint-restored twin at the same sequence number
    twin = CricketServer(clock=SimClock())
    restore_server(twin, snapshot_server(primary))
    assert replayed == state_fingerprint(twin)
    assert replayed == state_fingerprint(primary)


# -- failover chaos soak: the ``failover`` nemesis profile ------------------


@pytest.mark.parametrize("seed", range(5))
def test_failover_chaos_is_clean(profile_run, seed):
    result = profile_run("failover", seed)
    assert result.clean, result.violations
    assert set(result.applied) <= {"kill_primary", "gpu_fault"}
    kills = [e for e in result.schedule if e.kind == "kill_primary"]
    if len(kills) == 2:
        # the second kill takes the promoted standby: nobody is left
        assert result.final_leader == "" and not result.converged
    elif kills:
        assert result.final_leader == "standby"
        assert result.counters["server.standby_promotions"] == 1
        if kills[0].params["dangerous"]:
            # the in-flight call was answered from the replicated cache
            assert result.counters["server.reply_cache_hits"] >= 1
    else:
        assert result.final_leader == "primary"
        assert result.counters["server.device_failovers"] >= 1


def test_failover_chaos_deterministic(profile_run):
    first, second = profile_run("failover", 3), run_profile("failover", 3)
    assert first.schedule == second.schedule
    assert first.fingerprint == second.fingerprint
