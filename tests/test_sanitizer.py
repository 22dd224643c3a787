"""Tests for the device-memory sanitizer, kernel watchdog and recovery ladder."""

import numpy as np
import pytest

from repro.cuda import constants as C
from repro.cuda.errors import CudaError, code_for_exception
from repro.cuda.runtime import CudaRuntime
from repro.gpu import A100, GpuDevice
from repro.gpu.errors import (
    DoubleFreeError,
    GpuError,
    InvalidDevicePointerError,
    KernelHangError,
    OutOfBoundsError,
    OutOfMemoryError,
    QuarantineDoubleFreeError,
    RedzoneCorruptionError,
    SanitizerError,
    UseAfterFreeError,
)
from repro.gpu.memory import ALIGNMENT, DEBUG_ALLOCATOR_ENV, DeviceAllocator
from repro.gpu.sanitizer import POISON, Sanitizer
from repro.gpu.watchdog import KernelWatchdog
from repro.net import SimClock

MIB = 1024 * 1024


def sanitized(capacity=4 * MIB) -> DeviceAllocator:
    return DeviceAllocator(capacity, sanitizer=True)


class TestRedzones:
    def test_user_pointer_stays_aligned(self):
        alloc = sanitized()
        ptr = alloc.alloc(100)
        assert ptr % ALIGNMENT == 0

    def test_oob_write_past_end_is_typed_and_sticky(self):
        alloc = sanitized()
        ptr = alloc.alloc(1000)
        with pytest.raises(OutOfBoundsError) as exc:
            alloc.write(ptr, b"x" * 1001)
        assert exc.value.kind == "oob-write"
        assert exc.value.sticky
        assert code_for_exception(exc.value) == C.cudaErrorIllegalAddress

    def test_oob_caught_inside_alignment_slack(self):
        # 100 bytes aligns up to 256: a write at +100 stays inside the
        # aligned span but is out of bounds for the allocation
        alloc = sanitized()
        ptr = alloc.alloc(100)
        with pytest.raises(OutOfBoundsError):
            alloc.write(ptr + 100, b"x")

    def test_oob_read_is_typed(self):
        alloc = sanitized()
        ptr = alloc.alloc(64)
        with pytest.raises(OutOfBoundsError) as exc:
            alloc.read(ptr, 65)
        assert exc.value.kind == "oob-read"

    def test_in_bounds_access_untouched(self):
        alloc = sanitized()
        ptr = alloc.alloc(512)
        alloc.write(ptr, b"a" * 512)
        assert alloc.read(ptr, 512) == b"a" * 512

    def test_wild_write_corrupts_canaries_and_sweep_detects(self):
        alloc = sanitized()
        ptr = alloc.alloc(256)
        hit = alloc.wild_write(ptr + 256, b"\xff" * 16)
        assert hit == 16
        with pytest.raises(RedzoneCorruptionError) as exc:
            alloc.verify_canaries()
        assert exc.value.sticky

    def test_corruption_detected_at_free(self):
        alloc = sanitized()
        ptr = alloc.alloc(256)
        alloc.wild_write(ptr - 8, b"\xff" * 8)  # front redzone
        with pytest.raises(RedzoneCorruptionError):
            alloc.free(ptr)
        # the free itself completed: allocator stays consistent
        assert not alloc.is_live(ptr)

    def test_clean_sweep_counts_allocations(self):
        alloc = sanitized()
        alloc.alloc(64)
        alloc.alloc(64)
        assert alloc.verify_canaries() == 2


class TestQuarantine:
    def test_use_after_free_write_detected(self):
        alloc = sanitized()
        ptr = alloc.alloc(128)
        alloc.free(ptr)
        with pytest.raises(UseAfterFreeError) as exc:
            alloc.write(ptr, b"x")
        assert exc.value.sticky

    def test_use_after_free_read_detected(self):
        alloc = sanitized()
        ptr = alloc.alloc(128)
        alloc.free(ptr)
        with pytest.raises(UseAfterFreeError):
            alloc.read(ptr, 16)

    def test_double_free_typed_and_not_sticky(self):
        alloc = sanitized()
        ptr = alloc.alloc(128)
        alloc.free(ptr)
        with pytest.raises(QuarantineDoubleFreeError) as exc:
            alloc.free(ptr)
        assert not exc.value.sticky
        # stays a DoubleFreeError for legacy callers
        assert isinstance(exc.value, DoubleFreeError)
        assert code_for_exception(exc.value) == C.cudaErrorInvalidDevicePointer

    def test_freed_contents_are_poisoned(self):
        alloc = sanitized()
        ptr = alloc.alloc(64)
        view = alloc.view(ptr, 64)
        view[:] = 7
        alloc.free(ptr)
        assert (view == POISON).all()

    def test_quarantined_address_not_reused_immediately(self):
        alloc = sanitized()
        first = alloc.alloc(256)
        alloc.free(first)
        second = alloc.alloc(256)
        assert second != first

    def test_eviction_honours_entry_bound(self):
        alloc = sanitized()
        bound = Sanitizer.QUARANTINE_MAX_ENTRIES
        ptrs = [alloc.alloc(64) for _ in range(bound + 2)]
        for ptr in ptrs:
            alloc.free(ptr)
        assert len(alloc.sanitizer.quarantine_entries()) == bound
        # the two oldest were evicted
        assert not alloc.sanitizer.is_quarantined_base(ptrs[1])
        assert alloc.sanitizer.is_quarantined_base(ptrs[2])
        # evicted spans are usable again; detection is kept for the rest
        with pytest.raises(UseAfterFreeError):
            alloc.read(ptrs[-1], 8)

    def test_quarantine_flushed_before_oom(self):
        alloc = sanitized(capacity=1 * MIB)
        big = 1 * MIB - 2 * 256  # one allocation spans the device
        ptr = alloc.alloc(big)
        alloc.free(ptr)
        # the whole capacity sits in quarantine; a new allocation must
        # flush it rather than report OOM
        again = alloc.alloc(big)
        assert alloc.is_live(again)

    def test_true_oom_still_raises(self):
        alloc = sanitized(capacity=1 * MIB)
        alloc.alloc(MIB // 2)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(MIB)


class TestZeroByteEdgeCases:
    def test_malloc_zero_returns_distinct_valid_pointers(self):
        alloc = sanitized()
        a = alloc.alloc(0)
        b = alloc.alloc(0)
        assert a != 0 and b != 0 and a != b
        alloc.free(a)
        alloc.free(b)

    def test_zero_length_ops_validate_base_pointer(self):
        alloc = sanitized()
        ptr = alloc.alloc(0)
        # no-ops on a valid pointer
        alloc.write(ptr, b"")
        assert alloc.read(ptr, 0) == b""
        alloc.memset(ptr, 0, 0)
        # still validated on a bogus pointer
        with pytest.raises(InvalidDevicePointerError):
            alloc.read(0xDEAD000, 0)

    def test_runtime_zero_byte_paths(self):
        rt = CudaRuntime(
            [GpuDevice(A100, mem_bytes=4 * MIB, sanitizer=True)],
            SimClock(),
        )
        err, a = rt.cudaMalloc(0)
        assert err == C.cudaSuccess and a != 0
        err, b = rt.cudaMalloc(0)
        assert err == C.cudaSuccess and b != 0 and b != a
        assert rt.cudaMemcpy(a, b"", 0, C.cudaMemcpyHostToDevice)[0] == C.cudaSuccess
        assert rt.cudaMemcpy(0, a, 0, C.cudaMemcpyDeviceToHost) == (C.cudaSuccess, b"")
        assert rt.cudaMemset(a, 0, 0) == C.cudaSuccess
        # zero length does not exempt a wild base pointer
        err, _ = rt.cudaMemcpy(0, 0xDEAD000, 0, C.cudaMemcpyDeviceToHost)
        assert err == C.cudaErrorInvalidDevicePointer
        assert rt.cudaFree(a) == C.cudaSuccess
        assert rt.cudaFree(b) == C.cudaSuccess


class TestAttribution:
    def test_annotate_and_site_of(self):
        alloc = sanitized()
        ptr = alloc.alloc(64)
        alloc.annotate(ptr, owner="tenant-a", site="cudaMalloc#7")
        assert alloc.site_of(ptr) == ("tenant-a", "cudaMalloc#7")

    def test_violations_carry_owner_and_site(self):
        alloc = sanitized()
        ptr = alloc.alloc(64)
        alloc.annotate(ptr, owner="tenant-a", site="cudaMalloc#7")
        alloc.free(ptr)
        with pytest.raises(UseAfterFreeError) as exc:
            alloc.write(ptr, b"x")
        assert exc.value.owner == "tenant-a"
        assert exc.value.site == "cudaMalloc#7"

    def test_live_report_lists_owners(self):
        alloc = sanitized()
        ptr = alloc.alloc(64)
        alloc.annotate(ptr, owner="t", site="s")
        assert alloc.live_report() == [(ptr, 64, "t", "s")]


class TestInvariantsAndAllocAt:
    def test_check_invariants_with_quarantine(self):
        alloc = sanitized()
        keep = alloc.alloc(300)
        alloc.free(alloc.alloc(512))
        alloc.alloc(0)
        alloc.check_invariants()
        alloc.free(keep)
        alloc.check_invariants()

    def test_debug_env_flag_runs_invariants(self, monkeypatch):
        monkeypatch.setenv(DEBUG_ALLOCATOR_ENV, "1")
        alloc = sanitized()
        assert alloc._debug_invariants
        ptr = alloc.alloc(128)  # would raise if bookkeeping were broken
        alloc.free(ptr)

    def test_alloc_at_reproduces_layout(self):
        alloc = sanitized()
        a = alloc.alloc(300)
        b = alloc.alloc(512)
        alloc.free(a)
        rebuilt = sanitized()
        assert rebuilt.alloc_at(b, 512) == b
        rebuilt.check_invariants()
        # sanitization is fully armed at the pinned address
        with pytest.raises(OutOfBoundsError):
            rebuilt.write(b, b"x" * 513)

    def test_alloc_at_rejects_occupied_footprint(self):
        alloc = sanitized()
        a = alloc.alloc(256)
        with pytest.raises(GpuError):
            alloc.alloc_at(a, 256)


class TestWatchdog:
    def test_budget_verdict_flagged_on_launch(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        device.inject_soft_fault("throttle", 1e5)  # ~0.6 us of roofline -> ~60 ms
        n = 1 << 16
        bufs = tuple(device.alloc(4 * n) for _ in range(3))
        result = device.launch("vectorAdd", (n // 256, 1, 1), (256, 1, 1), (*bufs, n))
        assert result.duration_ns > KernelWatchdog.BUDGET_NS
        (stream,) = device.streams.hung_streams()
        assert stream.hang == "budget"
        assert device.watchdog.hangs_flagged == 1

    def test_fast_kernel_stays_under_budget(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        device.launch("vectorAdd", (1, 1, 1), (64, 1, 1), self._va_params(device))
        assert not device.streams.hung_streams()

    def test_inject_hang_requires_watchdog(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB)
        with pytest.raises(GpuError):
            device.inject_hang()

    def test_inject_hang_rejects_unknown_kind(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        with pytest.raises(ValueError):
            device.inject_hang(kind="mystery")

    def test_sync_reports_timeout_without_advancing_clock(self):
        clock = SimClock()
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        rt = CudaRuntime([device], clock)
        device.inject_hang(kind="spin")
        before = clock.now_ns
        assert rt.cudaDeviceSynchronize() == C.cudaErrorLaunchTimeout
        assert clock.now_ns == before
        assert rt.cudaGetLastError() == C.cudaErrorLaunchTimeout

    def test_memcpy_times_out_on_hung_default_stream(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        rt = CudaRuntime([device], SimClock())
        _, ptr = rt.cudaMalloc(64)
        device.inject_hang(kind="fused")
        err, _ = rt.cudaMemcpy(ptr, b"x" * 64, 64, C.cudaMemcpyHostToDevice)
        assert err == C.cudaErrorLaunchTimeout

    def test_stream_synchronize_times_out(self):
        device = GpuDevice(A100, mem_bytes=4 * MIB, watchdog=KernelWatchdog())
        rt = CudaRuntime([device], SimClock())
        _, handle = rt.cudaStreamCreate()
        device.inject_hang(stream=handle, kind="spin")
        assert rt.cudaStreamSynchronize(handle) == C.cudaErrorLaunchTimeout

    def test_kernel_hang_error_maps_to_launch_timeout(self):
        assert (
            code_for_exception(KernelHangError("stuck", stream=1))
            == C.cudaErrorLaunchTimeout
        )

    def test_default_budget_is_10ms(self):
        assert KernelWatchdog.BUDGET_NS == 10_000_000

    @staticmethod
    def _va_params(device):
        a = device.alloc(256)
        b = device.alloc(256)
        c = device.alloc(256)
        return (a, b, c, 64)


class TestDeviceSanitizerIntegration:
    def device(self):
        return GpuDevice(A100, mem_bytes=4 * MIB, sanitizer=True)

    def test_sticky_violation_poisons_context(self):
        device = self.device()
        ptr = device.alloc(64)
        device.allocator.annotate(ptr, owner="t0", site="s0")
        with pytest.raises(OutOfBoundsError):
            device.memcpy_h2d(ptr, b"x" * 65)
        assert not device.healthy
        assert device.fault.origin == "sanitizer"
        assert device.fault.culprit == "t0"
        assert device.fault.code == C.cudaErrorIllegalAddress

    def test_double_free_does_not_poison(self):
        device = self.device()
        ptr = device.alloc(64)
        device.free(ptr)
        with pytest.raises(QuarantineDoubleFreeError):
            device.free(ptr)
        assert device.healthy

    def test_reset_rearms_sanitizer(self):
        device = self.device()
        ptr = device.alloc(64)
        with pytest.raises(OutOfBoundsError):
            device.memcpy_h2d(ptr, b"x" * 65)
        device.reset()
        assert device.healthy
        ptr = device.alloc(64)
        with pytest.raises(OutOfBoundsError):
            device.memcpy_h2d(ptr, b"x" * 65)

    def test_snapshot_verifies_canaries_when_healthy(self):
        device = self.device()
        ptr = device.alloc(256)
        device.allocator.wild_write(ptr + 256, b"\xff" * 4)
        with pytest.raises(RedzoneCorruptionError):
            device.snapshot()

    def test_snapshot_skips_verification_when_faulted(self):
        # failover's salvage path: the fault is known, memory is rescued
        device = self.device()
        ptr = device.alloc(256)
        device.memcpy_h2d(ptr, b"a" * 256)
        device.allocator.wild_write(ptr + 256, b"\xff" * 4)
        device.inject_fault("context")
        blob = device.snapshot()
        assert blob

    def test_restore_keeps_sanitization_and_attribution(self):
        device = self.device()
        keep = device.alloc(300)
        gone = device.alloc(512)
        device.memcpy_h2d(keep, b"k" * 300)
        device.allocator.annotate(keep, owner="t0", site="cudaMalloc#1")
        device.free(gone)  # fragments the layout (quarantine holds the span)
        blob = device.snapshot()

        target = self.device()
        target.restore(blob)
        assert target.allocator.sanitizer is not None
        assert target.memcpy_d2h(keep, 300)[0] == b"k" * 300
        assert target.allocator.site_of(keep) == ("t0", "cudaMalloc#1")
        with pytest.raises(OutOfBoundsError):
            target.memcpy_h2d(keep, b"x" * 301)

    def test_unsanitized_checkpoint_restores_onto_sanitized_device(self):
        plain = GpuDevice(A100, mem_bytes=4 * MIB)
        a = plain.alloc(256)
        b = plain.alloc(256)  # adjacent: no redzone gaps to carve
        plain.memcpy_h2d(a, b"a" * 256)
        plain.memcpy_h2d(b, b"b" * 256)
        target = self.device()
        target.restore(plain.snapshot())
        # contents and addresses survive; sanitization is off until reset
        assert target.memcpy_d2h(a, 256)[0] == b"a" * 256
        assert target.memcpy_d2h(b, 256)[0] == b"b" * 256


class TestRecoveryLadder:
    def make_server(self, devices=2, **kw):
        from repro.cricket.server import CricketServer

        return CricketServer(
            [GpuDevice(A100, mem_bytes=16 * MIB) for _ in range(devices)],
            clock=SimClock(),
            sanitizer=True,
            watchdog=True,
            **kw,
        )

    def loopback(self, server):
        from repro.cricket.client import CricketClient

        return CricketClient.loopback(server)

    def test_rung1_cooperative_cancel(self):
        server = self.make_server()
        client = self.loopback(server)
        server.devices[0].inject_hang(kind="spin")
        client.malloc(64)  # next dispatch heals before executing
        stats = server.server_stats
        assert stats.watchdog_hangs == 1
        assert stats.ladder_cooperative_cancels == 1
        assert not server.devices[0].streams.hung_streams()

    def test_rung2_stream_abort(self):
        server = self.make_server()
        client = self.loopback(server)
        handle = client.stream_create()
        server.devices[0].inject_hang(stream=handle, kind="fused")
        client.malloc(64)
        assert server.server_stats.ladder_stream_aborts == 1
        # the handle survives the abort
        client.stream_synchronize(handle)

    def test_fused_hang_on_default_stream_escalates(self):
        server = self.make_server(devices=1)
        client = self.loopback(server)
        ptr = client.malloc(256)  # the tenant holds state on the device
        client.memcpy_h2d(ptr, b"t" * 256)
        server.devices[0].inject_hang(kind="fused")
        client.ping()
        stats = server.server_stats
        assert stats.watchdog_hangs == 1
        # the default stream has no attributable owner: everyone is a
        # bystander, so the device is salvaged CRAC-style with nobody
        # evicted -- the tenant's memory survives the recovery
        assert stats.ladder_context_resets == 1
        assert stats.sessions_reclaimed == 0
        assert server.devices[0].healthy
        assert client.memcpy_d2h(ptr, 256) == b"t" * 256

    def test_rung3_context_reset_sole_tenant(self):
        server = self.make_server(devices=1)
        client = self.loopback(server)
        ptr = client.malloc(64)
        client.free(ptr)
        with pytest.raises(CudaError):
            client.memcpy_h2d(ptr, b"x" * 16)  # use-after-free: sticky
        client.ping()  # heals: culprit was the only tenant
        assert server.server_stats.ladder_context_resets == 1
        assert server.devices[0].healthy

    def test_rung4_device_failover_protects_bystander(self):
        server = self.make_server(devices=2)
        good, bad = self.loopback(server), self.loopback(server)
        keep = good.malloc(256)
        good.memcpy_h2d(keep, b"g" * 256)
        ptr = bad.malloc(64)
        bad.free(ptr)
        with pytest.raises(CudaError):
            bad.memcpy_h2d(ptr, b"x" * 16)
        # the bystander's next call triggers the heal and succeeds
        assert good.memcpy_d2h(keep, 256) == b"g" * 256
        assert server.server_stats.ladder_device_failovers == 1
        assert all(d.healthy for d in server.devices)

    def test_rung5_session_reclaim_without_spare(self):
        server = self.make_server(devices=1)
        good, bad = self.loopback(server), self.loopback(server)
        keep = good.malloc(256)
        good.memcpy_h2d(keep, b"g" * 256)
        ptr = bad.malloc(64)
        bad.free(ptr)
        with pytest.raises(CudaError):
            bad.memcpy_h2d(ptr, b"x" * 16)
        assert good.memcpy_d2h(keep, 256) == b"g" * 256
        stats = server.server_stats
        assert stats.ladder_session_reclaims == 1
        assert stats.sessions_reclaimed == 1
        assert server.devices[0].healthy

    def test_operator_injected_faults_are_not_auto_healed(self):
        server = self.make_server(devices=2)
        client = self.loopback(server)
        client.malloc(64)
        server.inject_device_fault(0, "ecc")
        with pytest.raises(CudaError):
            client.device_synchronize()
        assert not server.devices[0].healthy  # PR-3 manual semantics kept
        server.failover_device(0)
        assert server.devices[0].healthy


class TestServerSanitizerIntegration:
    def make(self, **kw):
        from repro.cricket.client import CricketClient
        from repro.cricket.server import CricketServer

        server = CricketServer(
            [GpuDevice(A100, mem_bytes=16 * MIB)],
            clock=SimClock(),
            sanitizer=True,
            watchdog=True,
            **kw,
        )
        return server, CricketClient.loopback(server)

    def test_violations_counted_and_attributed(self):
        server, client = self.make()
        ptr = client.malloc(64)
        with pytest.raises(CudaError):
            client.memcpy_h2d(ptr, b"x" * 65)
        assert server.server_stats.sanitizer_oob_writes == 1
        (kind, owner, site, addr) = server.violations[0]
        assert kind == "oob-write"
        assert owner == client.session_identity
        assert site.startswith("cudaMalloc#")
        assert addr == ptr

    def test_periodic_sweep_catches_wild_write(self):
        server, client = self.make()
        server.sanitizer_sweep_every = 1
        ptr = client.malloc(256)
        server.devices[0].allocator.wild_write(ptr + 256, b"\xff" * 8)
        client.ping()  # one dispatch is enough at sweep_every=1
        assert server.server_stats.sanitizer_redzone_hits == 1
        # and the ladder healed the poison within the same dispatch
        assert server.devices[0].healthy

    def test_leak_report_on_ledger_release(self):
        server, client = self.make(lease_s=1.0, grace_s=0.5)
        a = client.malloc(512)
        b = client.malloc(256)
        freed = client.malloc(128)
        client.free(freed)
        identity = client.session_identity
        server.clock.advance_s(2.0)  # lease lapses, no heartbeat
        server.reap_sessions()  # orphans the session
        server.clock.advance_s(1.0)  # grace lapses
        server.reap_sessions()  # reclaims the ledger, files the report
        leaks = [r for r in server.leak_reports if r["owner"] == identity]
        assert {r["ptr"] for r in leaks} == {a, b}
        assert all(r["site"].startswith("cudaMalloc#") for r in leaks)
        assert server.server_stats.sanitizer_leaks_reported == 2

    def test_checkpoint_surfaces_corruption_as_typed_error(self):
        server, client = self.make()
        ptr = client.malloc(256)
        server.devices[0].allocator.wild_write(ptr + 256, b"\xff" * 8)
        reply = server.implementation.rpc_checkpoint()
        assert reply["err"] == C.cudaErrorIllegalAddress

    def test_sanitizer_flag_arms_default_device(self):
        from repro.cricket.server import CricketServer

        server = CricketServer(sanitizer=True)
        assert server.devices[0].allocator.sanitizer is not None
        assert server.auto_recover

    def test_unarmed_server_has_no_overhead_paths(self):
        from repro.cricket.server import CricketServer

        server = CricketServer()
        assert server.devices[0].allocator.sanitizer is None
        assert not server.auto_recover


class TestSanitizerChaos:
    """The ``buggy_tenant`` nemesis profile on the simulator."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_detection_and_containment(self, profile_run, seed):
        from repro.resilience.simulation import TENANT_BUG_KINDS

        result = profile_run("buggy_tenant", seed)
        assert result.clean, result.violations
        bugs = {e.args["bug"]: e.args["bug_detected"]
                for e in result.events if e.op == "tenant_bug"}
        assert bugs == dict.fromkeys(TENANT_BUG_KINDS, True)
        # healthy tenants never saw an error, and nothing they wrote was lost
        assert "cuda_error" not in result.outcomes
        counters = result.counters
        assert counters["server.watchdog_hangs"] >= 1
        assert sum(
            counters[f"server.ladder_{rung}"]
            for rung in ("cooperative_cancels", "stream_aborts", "context_resets",
                         "device_failovers", "session_reclaims")
        ) > 0
        # the ladder healed in place: same server, no restart, no promotion
        assert counters["server.standby_promotions"] == 0

    def test_plan_validates_bug_kinds(self):
        from repro.resilience.simulation import (
            TENANT_BUG,
            NemesisEvent,
            profile_plan,
            run_simulation,
        )

        with pytest.raises(ValueError, match="unknown tenant bug"):
            run_simulation(
                profile_plan("buggy_tenant", 0),
                schedule=[NemesisEvent(1.0, TENANT_BUG, {"bug": "segfault"})],
            )

    def test_sanitizer_error_str_carries_attribution(self):
        err = SanitizerError("boom", addr=0x100, owner="t", site="s")
        assert "owner=t" in str(err) and "site=s" in str(err)

    def test_wild_write_lands_in_neighbour_payloads_too(self):
        alloc = sanitized()
        a = alloc.alloc(256)
        b = alloc.alloc(256)
        alloc.write(b, b"b" * 256)
        # a wild write straddling a's back redzone into b's payload
        alloc.wild_write(a + 256, b"\xff" * (512 + 64))
        assert (np.frombuffer(alloc.read(b, 64), dtype=np.uint8) == 0xFF).all()
        with pytest.raises(RedzoneCorruptionError):
            alloc.verify_canaries()
