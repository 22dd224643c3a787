"""Gray-failure detection: SLOs, outlier ejection, brownout, limplocks.

Everything runs over virtual time with seeded RNG streams, so detection
latencies, ejection schedules and brownout transitions are exact.
"""

import tempfile

import pytest

from repro.cricket import (
    CricketClient,
    CricketServer,
    ReplicationLink,
    state_fingerprint,
)
from repro.cricket.ckptstore import CheckpointStore, FileStorage, MemoryStorage
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.net.simclock import SimClock
from repro.oncrpc import (
    LoopbackTransport,
    RpcBusyError,
    RpcDeadlineExceeded,
    RpcRetryExhausted,
)
from repro.resilience import (
    BrownoutConfig,
    BrownoutController,
    FaultPlan,
    FaultyEndpoint,
    FaultyStorage,
    HealthTracker,
    LatencyHistogram,
    LatencySLO,
    OutlierEjector,
    ReconnectingTransport,
    RetryPolicy,
    SlowFaultPlan,
    SlowTransport,
    StorageFaultPlan,
    null_probe,
)
from repro.resilience.failover import LoopbackEndpoint
from repro.resilience.stats import ServerStats
from repro.resilience.simulation import SimulationPlan, run_profile

US = 1_000
MS = 1_000_000


class TestLatencyHistogram:
    def test_quantile_is_bucket_upper_bound(self):
        h = LatencyHistogram()
        for _ in range(100):
            h.record(2 * US)  # falls in the (1.78us, 3.16us] bucket
        assert h.p50 == h.p99 == 3162
        assert h.count == 100
        assert h.mean_ns == pytest.approx(2 * US)

    def test_tail_sample_moves_p99_not_p50(self):
        h = LatencyHistogram()
        for _ in range(90):
            h.record(2 * US)
        for _ in range(10):
            h.record(50 * MS)
        assert h.p50 == 3162
        assert h.p99 > 10 * MS

    def test_overflow_bucket_reports_max(self):
        h = LatencyHistogram()
        h.record(500_000_000_000)  # beyond the last bound (~69 s)
        assert h.p99 == 500_000_000_000

    def test_empty_and_reset(self):
        h = LatencyHistogram()
        assert h.p99 == 0 and h.mean_ns == 0.0
        h.record(5 * US)
        h.reset()
        assert h.count == 0 and h.p99 == 0 and h.max_ns == 0

    def test_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.record(-1)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestHealthTracker:
    def test_recent_keeps_the_latest_samples(self):
        t = HealthTracker("x")
        for i in range(HealthTracker.RECENT + 2):
            t.record(i * US, at_ns=i)
        assert t.count == HealthTracker.RECENT + 2
        assert len(t.recent) == HealthTracker.RECENT
        assert t.recent[0] == (2, 2 * US)

    def test_reset_clears_history(self):
        t = HealthTracker("x")
        t.record(9 * US, at_ns=1)
        t.reset()
        assert t.count == 0 and t.p99 == 0 and not t.recent


class TestLatencySLO:
    def test_undersampled_never_breaches(self):
        slo = LatencySLO(target_p99_ns=US, min_samples=8)
        t = HealthTracker()
        for _ in range(7):
            t.record(10 * MS)
        assert not slo.breached(t)
        assert slo.recent_ratio(t, 0, MS) == 0.0

    def test_breach_and_ratio(self):
        slo = LatencySLO(target_p99_ns=US, min_samples=4)
        t = HealthTracker()
        for i in range(8):
            t.record(10 * MS, at_ns=i * MS)
        assert slo.breached(t)
        assert slo.recent_ratio(t, 8 * MS, 2 * MS) == 10_000.0


class TestOutlierEjector:
    def _pool(self, slow_name="c", slow_ns=30 * US):
        trackers = {n: HealthTracker(n) for n in ("a", "b", "c", "d", "e")}
        for name, t in trackers.items():
            for _ in range(8):
                t.record(slow_ns if name == slow_name else 2 * US)
        return trackers

    def test_ejects_the_limping_member(self):
        ejector = OutlierEjector(clock=SimClock())
        decision = ejector.evaluate(self._pool())
        assert decision.ejected == ("c",)
        assert ejector.is_ejected("c")
        assert len(decision.ejected) == 1

    def test_uniform_pool_ejects_nothing(self):
        ejector = OutlierEjector(clock=SimClock())
        trackers = self._pool(slow_name="nobody")
        assert ejector.evaluate(trackers) == ejector.evaluate(trackers)
        assert ejector.ejected_names == ()

    def test_eject_fraction_caps_collateral(self):
        # three of five limp: the 40% budget allows at most two out
        ejector = OutlierEjector(clock=SimClock())
        trackers = self._pool()
        for name in ("d", "e"):
            trackers[name].reset()
            for _ in range(8):
                trackers[name].record(30 * US)
        ejector.evaluate(trackers)
        assert len(ejector.ejected_names) <= 2

    def test_probation_readmits_with_fresh_history(self):
        clock = SimClock()
        ejector = OutlierEjector(clock=clock, probation_s=0.5)
        trackers = self._pool()
        ejector.evaluate(trackers)
        assert ejector.is_ejected("c")
        clock.advance_s(0.6)
        decision = ejector.evaluate(trackers)
        assert decision.readmitted == ("c",)
        assert trackers["c"].count == 0  # judged on fresh samples
        assert len(decision.readmitted) == 1


class TestBrownoutController:
    def _controller(self, clock, score_cell):
        c = BrownoutController(clock=clock, config=BrownoutConfig(), server_stats=ServerStats())
        c.add_signal("test", lambda: score_cell[0])
        return c

    def test_stage_rises_immediately(self):
        score = [0.5]
        c = self._controller(SimClock(), score)
        assert c.update() == 0
        score[0] = 1.5
        assert c.update() == 1
        score[0] = 5.0
        assert c.update() == 2
        assert c.stats.brownout_entries == 1  # one entry despite two stage rises

    def test_exit_needs_calm_dwell(self):
        clock = SimClock()
        score = [2.0]
        c = self._controller(clock, score)
        c.update()
        assert c.stage == 1
        score[0] = 0.1
        assert c.update() == 1  # calm, but no dwell yet
        clock.advance_s(0.1)
        assert c.update() == 1  # still inside min_dwell_s
        clock.advance_s(0.2)
        assert c.update() == 0
        assert c.stats.brownout_exits == 1

    def test_blip_resets_calm_timer(self):
        clock = SimClock()
        score = [2.0]
        c = self._controller(clock, score)
        c.update()
        score[0] = 0.1
        c.update()
        clock.advance_s(0.2)
        score[0] = 2.0
        c.update()  # relapse: calm timer must restart
        score[0] = 0.1
        clock.advance_s(0.1)
        assert c.update() == 1

    def test_stage2_falls_one_stage_at_a_time(self):
        clock = SimClock()
        score = [5.0]
        c = self._controller(clock, score)
        assert c.update() == 2
        score[0] = 0.1
        assert c.update() == 2  # starts the calm timer
        clock.advance_s(0.3)
        assert c.update() == 1
        assert c.update() == 1  # calm timer restarted at the stage change
        clock.advance_s(0.3)
        assert c.update() == 0

    def test_shed_stat_by_stage_and_priority(self):
        c = BrownoutController(clock=SimClock())
        assert c.shed_stat(0) is None  # stage 0 admits everything
        c.stage = 1
        assert c.shed_stat(0) == 100 and c.shed_stat(1) == 100
        assert c.shed_stat(2) is None and c.shed_stat(3) is None
        c.stage = 2
        assert c.shed_stat(2) == 100
        assert c.shed_stat(3) is None


class TestSlowFaults:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SlowFaultPlan(base_delay_s=-1)
        with pytest.raises(ValueError):
            SlowFaultPlan(spike_rate=1.5)
        with pytest.raises(ValueError):
            SlowFaultPlan(throughput_Bps=0)

    def test_slow_transport_charges_only_when_active(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        inner = LoopbackTransport(server.dispatch_record)
        slow = SlowTransport(
            inner, SlowFaultPlan(base_delay_s=0.01), clock=clock, active=False
        )
        client = CricketClient(slow, clock=clock)
        client.ping()
        # inactive: draws made, nothing charged beyond the dispatch cost
        assert slow.charged_s == 0.0
        baseline_ns = clock.now_ns
        slow.active = True
        client.ping()
        assert slow.charged_s == pytest.approx(0.02)  # send + recv
        assert clock.now_ns - baseline_ns >= int(0.02 * 1e9)

    def test_inactive_draws_keep_schedule_aligned(self):
        """Flipping `active` later must not shift the jitter stream."""

        def charged(active_from: int) -> float:
            clock = SimClock()
            server = CricketServer(clock=clock)
            slow = SlowTransport(
                LoopbackTransport(server.dispatch_record),
                SlowFaultPlan(base_delay_s=0.01, jitter_s=0.01, seed=3),
                clock=clock,
                active=False,
            )
            client = CricketClient(slow, clock=clock)
            for i in range(6):
                slow.active = i >= active_from
                client.ping()
            return slow.charged_s

        # ops 4..5 must cost the same whether ops 0..3 were active or not
        lead = charged(active_from=0) - charged(active_from=4)
        clock = SimClock()
        server = CricketServer(clock=clock)
        slow = SlowTransport(
            LoopbackTransport(server.dispatch_record),
            SlowFaultPlan(base_delay_s=0.01, jitter_s=0.01, seed=3),
            clock=clock,
        )
        client = CricketClient(slow, clock=clock)
        for _ in range(4):
            client.ping()
        assert lead == pytest.approx(slow.charged_s)

    def test_slow_fsync_charges_virtual_time(self):
        clock = SimClock()
        with tempfile.TemporaryDirectory() as root:
            storage = FaultyStorage(
                FileStorage(root),
                StorageFaultPlan(slow_fsync_rate=1.0, slow_fsync_s=0.02),
                clock=clock,
            )
            storage.write_atomic("blob", b"x" * 64)
            assert clock.now_ns == int(0.02 * 1e9)
            assert storage.stats.faults_injected["slow_fsync"] == 1
            # the write itself still succeeded -- limping, not broken
            assert storage.read("blob") == b"x" * 64


class TestProbeRtt:
    """Satellite: probe RTT feeds the breaker and resilience stats."""

    PROG, VERS = 0x2000C10C, 1

    def _server(self, clock):
        server = CricketServer(clock=clock)
        return server

    def test_reconnect_records_probe_rtt(self):
        clock = SimClock()
        server = self._server(clock)
        probe_plan = SlowFaultPlan(base_delay_s=0.005)

        def factory():
            return SlowTransport(
                LoopbackTransport(server.dispatch_record), probe_plan, clock=clock
            )

        from repro.cricket import cricket_interface

        iface = cricket_interface()
        transport = ReconnectingTransport(
            factory,
            clock=clock,
            probe=null_probe(iface.prog_number, iface.vers_number),
        )
        transport.reconnect(force=True)
        # NULL probe = one send + one recv through the limping transport
        # (plus the server's fixed dispatch cost)
        assert transport.stats.probe_rtt_last_ns >= int(0.01 * 1e9)


class TestSlowProbesAndDeadlines:
    """Satellite: liveness probes under delay faults stay typed and bounded."""

    def test_ping_charges_delay_against_deadline(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        client = CricketClient.loopback(
            server,
            clock=clock,
            faults=FaultPlan(delay_rate=1.0, delay_s=0.004, drop_request_rate=1.0, seed=1),
            retry_policy=RetryPolicy(
                max_attempts=50, base_delay_s=0.002, deadline_s=0.02
            ),
        )
        with pytest.raises(RpcDeadlineExceeded):
            client.ping()
        # the fault delay was charged to the budget clock, not ignored
        assert 0 < clock.now_ns <= int(0.02 * 1e9)
        assert client.stats.deadlines_exceeded == 1

    def test_rpc_ping_retry_exhaustion_is_typed_not_a_hang(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        client = CricketClient.loopback(
            server,
            clock=clock,
            faults=FaultPlan(delay_rate=1.0, delay_s=0.001, drop_reply_rate=1.0, seed=2),
            retry_policy=RetryPolicy(max_attempts=3, deadline_s=None),
        )
        with pytest.raises(RpcRetryExhausted):
            client.renew_lease()
        assert client.stats.retries_exhausted == 1

    def test_slow_but_alive_ping_succeeds_and_charges_time(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        client = CricketClient.loopback(
            server,
            clock=clock,
            faults=FaultPlan(delay_rate=1.0, delay_s=0.003, seed=3),
        )
        client.ping()
        assert clock.now_ns >= int(0.003 * 1e9)  # the limp was charged
        remaining = client.renew_lease()
        assert remaining != 0


class TestFailoverEjection:
    def _cluster(self, limp_s=0.02):
        clock = SimClock()
        servers = [CricketServer(clock=clock) for _ in range(3)]
        endpoints = [
            LoopbackEndpoint(s, name=f"server{i}") for i, s in enumerate(servers)
        ]
        slow = FaultyEndpoint(
            endpoints[2],
            SlowFaultPlan(base_delay_s=limp_s, seed=0),
            clock=clock,
        )
        endpoints[2] = slow
        ejector = OutlierEjector(clock=clock, probation_s=1.0)
        client = CricketClient.failover(
            endpoints, retry_policy=RetryPolicy(max_attempts=8), ejector=ejector
        )
        return clock, client, client.failover_transport, ejector, slow

    def test_hedged_probes_eject_limping_endpoint(self):
        clock, client, transport, ejector, _slow = self._cluster()
        for _ in range(8):
            client.get_device_count()
            transport.probe_endpoints()
        assert ejector.is_ejected("server2")
        assert not ejector.is_ejected("server0")
        assert not ejector.is_ejected("server1")
        assert client.stats.hedged_probes >= 1
        assert client.stats.endpoints_ejected == 1

    def test_traffic_avoids_ejected_endpoint(self):
        clock, client, transport, ejector, slow = self._cluster()
        for _ in range(8):
            client.get_device_count()
            transport.probe_endpoints()
        assert ejector.is_ejected("server2")
        before = clock.now_ns
        client.get_device_count()
        # a call that had landed on the limper would charge >= 40 ms
        assert clock.now_ns - before < int(0.02 * 1e9)

    def test_probation_readmission_counts(self):
        clock, client, transport, ejector, slow = self._cluster()
        for _ in range(8):
            client.get_device_count()
            transport.probe_endpoints()
        slow.set_active(False)  # repair while ejected
        clock.advance_s(1.5)
        transport.probe_endpoints()
        assert not ejector.is_ejected("server2")
        assert client.stats.endpoints_readmitted == 1


class TestDegradedGpuPreemption:
    def _server(self):
        clock = SimClock()
        server = CricketServer(
            [GpuDevice(A100), GpuDevice(A100)], clock=clock, auto_recover=True
        )
        client = CricketClient.loopback(server)
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        fn = client.get_function(module, "vectorAdd", meta)
        n = 1 << 12
        bufs = tuple(client.malloc(4 * n) for _ in range(3))
        return server, client, fn, bufs, n

    def _launch(self, client, fn, bufs, n):
        client.launch_kernel(fn, (n // 256, 1, 1), (256, 1, 1), (*bufs, n))
        client.device_synchronize()

    def test_throttle_triggers_preemptive_failover(self):
        server, client, fn, bufs, n = self._server()
        self._launch(client, fn, bufs, n)
        assert server.server_stats.ladder_preemptive_failovers == 0
        server.devices[0].inject_soft_fault("throttle", 4.0)
        for _ in range(4):
            self._launch(client, fn, bufs, n)
        assert server.server_stats.ladder_preemptive_failovers == 1
        # the limping device was swapped out and reset clean
        assert not server.devices[0].degraded
        assert server.devices[0].healthy

    def test_mild_throttle_does_not_preempt(self):
        server, client, fn, bufs, n = self._server()
        server.devices[0].inject_soft_fault("throttle", 1.5)  # below threshold
        for _ in range(4):
            self._launch(client, fn, bufs, n)
        assert server.server_stats.ladder_preemptive_failovers == 0

    def test_no_spare_no_preemption(self):
        clock = SimClock()
        server = CricketServer([GpuDevice(A100)], clock=clock, auto_recover=True)
        client = CricketClient.loopback(server)
        server.devices[0].inject_soft_fault("throttle", 4.0)
        assert client.get_device_count() == 1
        assert server.server_stats.ladder_preemptive_failovers == 0


class TestServerBrownout:
    def _browned_server(self, limp_s=0.02):
        clock = SimClock()
        slo = LatencySLO(target_p99_ns=int(limp_s * 0.5 * 1e9), min_samples=4)
        server = CricketServer(clock=clock, brownout=True, checkpoint_slo=slo)
        tracker = HealthTracker("checkpoint-write")
        server.attach_checkpoint_health(tracker)
        for _ in range(8):
            tracker.record(int(limp_s * 1e9))
        return clock, server, tracker

    def test_breached_slo_enters_brownout_and_sheds(self):
        clock, server, tracker = self._browned_server()
        high = CricketClient.loopback(server, priority=3)
        low = CricketClient.loopback(server, priority=0)
        assert high.get_device_count() >= 1  # dispatch updates the brownout
        assert server.brownout.active
        with pytest.raises(RpcBusyError):
            low.get_device_count()
        assert high.get_device_count() >= 1  # high priority still admitted
        assert server.server_stats.brownout_sheds == 1

    def test_brownout_suspends_sanitizer_sweeps(self):
        clock = SimClock()
        slo = LatencySLO(target_p99_ns=int(0.01 * 1e9), min_samples=4)
        server = CricketServer(
            clock=clock, brownout=True, checkpoint_slo=slo, sanitizer=True
        )
        tracker = HealthTracker("checkpoint-write")
        server.attach_checkpoint_health(tracker)
        for _ in range(8):
            tracker.record(int(0.02 * 1e9))
        client = CricketClient.loopback(server, priority=3)
        server._dispatches_since_sweep = 10**9  # force a sweep attempt
        client.get_device_count()
        assert server.server_stats.sweeps_suspended >= 1

    def test_recovery_exits_after_dwell(self):
        clock, server, tracker = self._browned_server()
        client = CricketClient.loopback(server, priority=3)
        client.get_device_count()
        assert server.brownout.active
        tracker.reset()  # repair: fresh history, like ejector readmission
        for _ in range(8):
            clock.advance_s(0.1)
            client.get_device_count()
        assert not server.brownout.active
        assert server.server_stats.brownout_entries == 1
        assert server.server_stats.brownout_exits == 1


class TestBrownoutEnds:
    """One slow checkpoint write browns the server out for a while only.

    The client sits below every shed line, so none of its calls executes
    while the brownout lasts: the stage falls because the signal judges
    recent writes only and a call about to be shed re-judges it first.
    """

    def _browned(self):
        clock = SimClock()
        slo = LatencySLO(target_p99_ns=50 * MS, min_samples=1)
        server = CricketServer(clock=clock, brownout=True, checkpoint_slo=slo)
        storage = FaultyStorage(MemoryStorage(), StorageFaultPlan(), clock=clock)
        store = CheckpointStore(storage=storage, clock=clock)
        server.attach_checkpoint_health(store.write_latency)
        storage.arm_slow_fsync(1, 0.2)
        store.save(server)  # the one slow write, 4x the SLO
        low = CricketClient.loopback(server, priority=0)
        low.get_device_count()  # admitted on stage 0; executing, it judges
        assert server.brownout.stage == 2
        with pytest.raises(RpcBusyError):
            low.get_device_count()
        return clock, server, store, low

    def _until_admitted(self, clock, low, between=lambda: None) -> float:
        started_ns = clock.now_ns
        for _ in range(100):
            clock.advance_s(0.1)
            between()
            try:
                low.get_device_count()
            except RpcBusyError:
                continue
            return (clock.now_ns - started_ns) / 1e9
        raise AssertionError("the brownout never ended")

    def test_ends_when_fast_writes_follow(self):
        clock, server, store, low = self._browned()
        waited = self._until_admitted(clock, low, lambda: store.save(server))
        # the slow write leaves the window, then a dwell per stage (each
        # started by the 0.1 s polls)
        assert waited <= CricketServer.CHECKPOINT_RECENT_S + 1.0
        assert server.brownout.stage == 0
        assert server.server_stats.brownout_exits == 1

    def test_ends_when_no_writes_follow(self):
        clock, server, store, low = self._browned()
        self._until_admitted(clock, low)
        assert server.brownout.stage == 0
        assert server.server_stats.brownout_entries == 1
        assert server.server_stats.brownout_exits == 1

    def test_recent_ratio_forgets_old_samples(self):
        slo = LatencySLO(target_p99_ns=10 * MS, min_samples=1)
        tracker = HealthTracker()
        assert slo.recent_ratio(tracker, 0, MS) == 0.0  # no sample yet
        tracker.record(40 * MS, at_ns=100 * MS)
        tracker.record(5 * MS, at_ns=200 * MS)
        assert slo.recent_ratio(tracker, 200 * MS, 150 * MS) == 4.0  # worst recent
        assert slo.recent_ratio(tracker, 200 * MS, 50 * MS) == 0.5
        assert slo.recent_ratio(tracker, 400 * MS, 50 * MS) == 0.0  # none recent
        assert slo.breached(tracker)  # the cumulative p99 never forgets


class TestReplicationDemotion:
    def test_slow_ship_demotes_to_async_lag(self):
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock())
        link = ReplicationLink(
            primary,
            standby,
            ship_slo=LatencySLO(target_p99_ns=int(0.001 * 1e9), min_samples=4),
        )
        client = CricketClient.loopback(primary)
        link.ship_delay_s = 0.01
        for _ in range(8):
            client.malloc(4096)
        assert link.demoted
        assert link.max_lag == link.demoted_max_lag
        assert primary.server_stats.replication_demotions == 1

    def test_demotion_preserves_convergence(self):
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock())
        link = ReplicationLink(
            primary,
            standby,
            ship_slo=LatencySLO(target_p99_ns=int(0.001 * 1e9), min_samples=4),
        )
        client = CricketClient.loopback(primary)
        link.ship_delay_s = 0.01
        ptr = client.malloc(4096)
        for i in range(8):
            client.memcpy_h2d(ptr, bytes([i]) * 64)
        assert link.demoted
        link.flush()
        assert state_fingerprint(primary) == state_fingerprint(standby)

    def test_fast_ship_never_demotes(self):
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock())
        link = ReplicationLink(
            primary,
            standby,
            ship_slo=LatencySLO(target_p99_ns=int(0.01 * 1e9), min_samples=4),
        )
        client = CricketClient.loopback(primary)
        for _ in range(8):
            client.malloc(4096)
        assert not link.demoted
        assert link.max_lag == 0


class TestCheckpointWriteLatency:
    def test_store_records_write_latency(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        with tempfile.TemporaryDirectory() as root:
            faulty = FaultyStorage(
                FileStorage(root),
                StorageFaultPlan(slow_fsync_rate=1.0, slow_fsync_s=0.02),
                clock=clock,
            )
            store = CheckpointStore(storage=faulty, clock=clock)
            store.save_full(server)
            assert store.write_latency.count >= 1
            assert store.write_latency.p99 >= int(0.02 * 1e9)

    def test_store_without_clock_stays_silent(self):
        server = CricketServer(clock=SimClock())
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(storage=FileStorage(root))
            store.save_full(server)
            assert store.write_latency.count == 0


class TestGrayFailureChaos:
    """The ``limplock_*`` nemesis profiles on the simulator."""

    #: legacy topology name -> (profile, the defence's own counter)
    LIMPLOCKS = {
        "slow_endpoint": ("limplock_endpoint", None),
        "throttled_gpu": ("limplock_gpu", "server.ladder_preemptive_failovers"),
        "slow_fsync": ("limplock_fsync", "server.brownout_entries"),
        "limping_standby": ("limplock_standby", "server.replication_demotions"),
    }

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            SimulationPlan(profile="limplock_nope")

    @pytest.mark.parametrize("topology", sorted(LIMPLOCKS))
    def test_topology_clean(self, profile_run, topology):
        profile, counter = self.LIMPLOCKS[topology]
        result = profile_run(profile, 0)
        assert result.clean, result.violations
        facts = result.facts()
        assert 0 <= facts["detect_ns"] <= facts["detect_budget_ns"]
        assert facts["false_ejections"] == []
        assert facts["recovery_p99_ns"] <= 2 * facts["baseline_p99_ns"]
        if counter is not None:
            assert result.counters[counter] == 1
        if topology == "slow_fsync":
            assert result.counters["server.brownout_exits"] == 1
        if topology == "limping_standby":
            assert facts["diverged"] is False  # lag was traded, never state

    def test_deterministic_across_runs(self, profile_run):
        again = run_profile("limplock_endpoint", 4)
        assert again.fingerprint == profile_run("limplock_endpoint", 4).fingerprint

    def test_seed_varies_victim(self, profile_run):
        # the seed moves which client's probes meet the limper when
        latencies = {
            profile_run("limplock_endpoint", s).facts()["detect_ns"]
            for s in range(4)
        }
        assert len(latencies) > 1
