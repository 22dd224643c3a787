"""The simulated GPU device.

A :class:`GpuDevice` combines the allocator, kernel registry, stream table
and timing model into the object the CUDA API layer (:mod:`repro.cuda`)
drives.  All numerics are real (kernels run on NumPy-backed device memory);
all *time* is simulated and returned to the caller, which charges it to the
experiment's :class:`~repro.net.simclock.SimClock`.

``execute=False`` turns the device into a timing-only model: kernel bodies
are skipped (costs are still charged), letting the harness run the paper's
full 100 000-iteration workloads quickly.  The RPC path is identical in
both modes.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.gpu.catalog import A100, GpuSpec
from repro.gpu.errors import DeviceFaultError, GpuError, SanitizerError
from repro.gpu.kernels import (
    DEFAULT_REGISTRY,
    Kernel,
    KernelRegistry,
    LaunchContext,
)
from repro.gpu.memory import DeviceAllocator, PinnedSpan
from repro.gpu.stream import DEFAULT_STREAM, StreamTable
from repro.gpu.timing import GpuTimingModel
from repro.gpu.watchdog import KernelWatchdog
from repro.xdr.encoder import Buffer


class LaunchResult(NamedTuple):
    """Outcome of one kernel launch."""

    #: virtual completion time on the stream, ns
    done_ns: int
    #: execution duration charged for the kernel, ns
    duration_ns: int


#: sticky fault kinds and the ``cudaError_t`` each surfaces as.  Values
#: are the real CUDA codes (kept numeric here so :mod:`repro.gpu` stays
#: importable without :mod:`repro.cuda`): 214 = cudaErrorECCUncorrectable,
#: 700 = cudaErrorIllegalAddress (the classic corrupted-context verdict).
FAULT_KINDS = {
    "ecc": 214,
    "context": 700,
}

#: soft (gray) degradation kinds and their default severity.  Unlike
#: :data:`FAULT_KINDS` these never raise: a throttled or ECC-limping
#: device keeps answering every call correctly -- just slowly, or with a
#: rising correctable-error count that NVML-style telemetry exposes.
SOFT_FAULT_KINDS = {
    #: kernel durations multiplied by this (thermal/power throttling)
    "throttle": 4.0,
    #: correctable ECC events accrued per launch (rate, may be fractional)
    "ecc_correctable": 1.0,
}


class GpuDevice:
    """One simulated GPU."""

    def __init__(
        self,
        spec: GpuSpec = A100,
        *,
        ordinal: int = 0,
        registry: KernelRegistry | None = None,
        execute: bool = True,
        mem_bytes: int | None = None,
        sanitizer: bool = False,
        watchdog: KernelWatchdog | None = None,
    ) -> None:
        self.spec = spec
        self.ordinal = ordinal
        self.execute = execute
        self.registry = registry if registry is not None else DEFAULT_REGISTRY.clone()
        #: whether allocators are sanitized, threaded through reset/restore
        #: so a rebuilt allocator stays sanitized (or stays plain)
        self.sanitized = sanitizer
        #: kernel watchdog (may be shared across a node's devices), or None
        self.watchdog = watchdog
        #: external violation observer (the Cricket server hooks this to
        #: count violations in ServerStats); called after context poisoning
        self.on_violation = None
        self.allocator = self._new_allocator(mem_bytes or spec.mem_bytes)
        self.timing = GpuTimingModel(spec)
        self.streams = StreamTable()
        #: monotonically increasing count of launches (instrumentation)
        self.launch_count = 0
        #: sticky hardware fault, or None when healthy (see :meth:`inject_fault`)
        self.fault: DeviceFaultError | None = None
        #: kernel-duration multiplier; > 1.0 models thermal/power throttling
        self.throttle_multiplier = 1.0
        #: correctable ECC events accrued per launch (soft degradation)
        self.correctable_ecc_rate = 0.0
        #: lifetime correctable ECC events (the telemetry a health check reads)
        self.correctable_ecc_events = 0
        #: fractional ECC accrual carried between launches (determinism,
        #: no RNG: rate 0.25 yields exactly one event every 4 launches)
        self._ecc_accumulator = 0.0

    def _new_allocator(self, capacity: int) -> DeviceAllocator:
        """A fresh allocator carrying this device's sanitizer wiring."""
        allocator = DeviceAllocator(capacity, sanitizer=self.sanitized)
        if allocator.sanitizer is not None:
            allocator.sanitizer.on_violation = self._note_violation
        return allocator

    # -- fault model --------------------------------------------------------

    def inject_fault(self, kind: str = "ecc") -> None:
        """Poison the device with a sticky hardware fault.

        ``kind`` is one of :data:`FAULT_KINDS` (``"ecc"`` for an
        uncorrectable ECC error, ``"context"`` for context corruption).
        Every subsequent memory operation or launch raises the same
        :class:`~repro.gpu.errors.DeviceFaultError` -- real CUDA sticky
        semantics -- until :meth:`reset` (an explicit ``cudaDeviceReset``)
        clears it.  Memory *contents* are not scrambled: the fault model
        is "the device stops answering correctly", which is what an ECC
        MCE or Xid looks like from the driver's side.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (want one of {sorted(FAULT_KINDS)})")
        self.fault = DeviceFaultError(kind, FAULT_KINDS[kind])

    def _note_violation(self, err: SanitizerError) -> None:
        """Sanitizer callback: sticky violations poison the context.

        An illegal-address-class violation corrupts the CUDA context on
        real hardware; here it arms the same sticky-fault machinery an
        injected ``"context"`` fault uses, but with ``origin="sanitizer"``
        and the offending tenant recorded -- the recovery ladder only
        auto-heals faults a tenant bug caused, never operator-injected
        ones.
        """
        if err.sticky and self.fault is None:
            self.fault = DeviceFaultError(
                "context",
                FAULT_KINDS["context"],
                origin="sanitizer",
                culprit=err.owner,
            )
        if self.on_violation is not None:
            self.on_violation(err)

    def inject_soft_fault(self, kind: str, severity: float | None = None) -> None:
        """Degrade the device without breaking it (gray failure).

        ``kind`` is one of :data:`SOFT_FAULT_KINDS`:

        ``"throttle"``
            Multiplies every subsequent kernel duration by ``severity``
            (default 4.0) -- a thermally or power-throttled part.  Results
            stay bit-identical; only virtual time suffers.
        ``"ecc_correctable"``
            Accrues ``severity`` correctable ECC events per launch
            (default 1.0; fractional rates accumulate deterministically).
            Correctable errors are *corrected* -- no call fails -- but a
            climbing counter is the classic leading indicator of the
            uncorrectable fault :meth:`inject_fault` models.

        Every binary health check (:attr:`healthy`, ``null_probe``, the
        watchdog) still passes; only :meth:`health_report` tells.  Cleared
        by :meth:`clear_soft_faults` or a full :meth:`reset`.
        """
        if kind not in SOFT_FAULT_KINDS:
            raise ValueError(
                f"unknown soft fault kind {kind!r} "
                f"(want one of {sorted(SOFT_FAULT_KINDS)})"
            )
        value = SOFT_FAULT_KINDS[kind] if severity is None else float(severity)
        if kind == "throttle":
            if value < 1.0:
                raise ValueError(f"throttle multiplier must be >= 1.0, got {value}")
            self.throttle_multiplier = value
        else:
            if value < 0.0:
                raise ValueError(f"ecc_correctable rate must be >= 0, got {value}")
            self.correctable_ecc_rate = value

    def clear_soft_faults(self) -> None:
        """Undo soft degradation (cooling-off / page-retirement complete)."""
        self.throttle_multiplier = 1.0
        self.correctable_ecc_rate = 0.0
        self._ecc_accumulator = 0.0

    @property
    def degraded(self) -> bool:
        """True while a soft fault is active (still :attr:`healthy`!)."""
        return self.throttle_multiplier > 1.0 or self.correctable_ecc_rate > 0.0

    def health_report(self) -> dict[str, float | int | bool]:
        """NVML-style telemetry: what a management plane would poll."""
        return {
            "healthy": self.healthy,
            "degraded": self.degraded,
            "throttle_multiplier": self.throttle_multiplier,
            "correctable_ecc_rate": self.correctable_ecc_rate,
            "correctable_ecc_events": self.correctable_ecc_events,
            "launch_count": self.launch_count,
        }

    def inject_hang(self, stream: int = DEFAULT_STREAM, kind: str = "spin") -> None:
        """Mark a stream's work hung (chaos hook for the watchdog).

        Requires a watchdog: a device without one has no machinery to
        notice or report the hang.
        """
        if self.watchdog is None:
            raise GpuError("cannot inject a hang on a device without a watchdog")
        self.watchdog.inject_hang(self.streams.stream(stream), kind)

    @property
    def healthy(self) -> bool:
        """True while no sticky fault is outstanding."""
        return self.fault is None

    def _check_fault(self) -> None:
        if self.fault is not None:
            raise self.fault

    # -- memory ------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate device memory; returns device pointer."""
        self._check_fault()
        return self.allocator.alloc(size)

    def free(self, ptr: int) -> None:
        """Free device memory."""
        self._check_fault()
        self.allocator.free(ptr)

    def memcpy_h2d(self, dst: int, data: Buffer) -> float:
        """Copy the bytes of a host buffer to the device; returns simulated
        seconds (PCIe), charged for its ``nbytes``."""
        self._check_fault()
        self.allocator.write(dst, data)
        return self.timing.memcpy_time_s(memoryview(data).nbytes)

    def memcpy_d2h(self, src: int, size: int) -> tuple[bytes, float]:
        """Copy device bytes to host; returns (data, simulated seconds)."""
        span, seconds = self.memcpy_d2h_pinned(src, size)
        return span.take(), seconds

    def memcpy_d2h_pinned(self, src: int, size: int) -> tuple[PinnedSpan, float]:
        """:meth:`memcpy_d2h` without the copy: (pinned span, simulated seconds).

        The span is sent, or copied out
        (:meth:`~repro.gpu.memory.PinnedSpan.take`), from device memory.
        """
        self._check_fault()
        span = self.allocator.pin(src, size)
        return span, self.timing.memcpy_time_s(size)

    def memcpy_d2d(self, dst: int, src: int, size: int) -> float:
        """Copy device-to-device; returns simulated seconds."""
        self._check_fault()
        self.allocator.copy_within(dst, src, size)
        return self.timing.d2d_time_s(size)

    def memset(self, dst: int, value: int, size: int) -> float:
        """Fill device memory; returns simulated seconds."""
        self._check_fault()
        self.allocator.memset(dst, value, size)
        return self.timing.d2d_time_s(size) / 2

    # -- launches -----------------------------------------------------------

    def launch(
        self,
        kernel: Kernel | str,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: tuple[Any, ...],
        *,
        shared_mem: int = 0,
        stream: int = DEFAULT_STREAM,
        submit_ns: int = 0,
        fp64: bool = False,
    ) -> LaunchResult:
        """Launch a kernel on a stream.

        ``submit_ns`` is the caller's current virtual time; the launch is
        queued behind earlier work on the stream.  ``kernel`` is a
        :class:`~repro.gpu.kernels.Kernel` or its name in the registry.
        Every one of the six grid and block dimensions must be at least 1.
        """
        if self.fault is not None:
            raise self.fault
        if isinstance(kernel, str):
            kernel = self.registry.get(kernel)
        params = tuple(params)
        kernel.check_params(params)
        gx, gy, gz = grid_dims = tuple(map(int, grid))
        bx, by, bz = block_dims = tuple(map(int, block))
        if min(gx, gy, gz, bx, by, bz) < 1:
            raise GpuError(f"degenerate launch geometry {grid}x{block}")
        ctx = LaunchContext(self, grid_dims, block_dims, shared_mem, params)
        if self.execute:
            kernel.body(ctx)
        # Soft degradation: a throttled part runs the same kernel to the
        # same answer, just slower -- the gray failure no binary check sees.
        duration_s = self.timing.kernel_time_s(
            kernel.cost(ctx), fp64=fp64, throttle=self.throttle_multiplier
        )
        duration_ns = int(round(duration_s * 1e9))
        if self.correctable_ecc_rate > 0.0:
            self._ecc_accumulator += self.correctable_ecc_rate
            events = int(self._ecc_accumulator)
            if events:
                self._ecc_accumulator -= events
                self.correctable_ecc_events += events
        stream_obj = self.streams.stream(stream)
        done_ns = stream_obj.submit(submit_ns, duration_ns)
        self.launch_count += 1
        if self.watchdog is not None:
            # Launches stay asynchronous even when over budget: the flag is
            # raised here, the timeout surfaces at the next sync point.
            self.watchdog.observe_launch(stream_obj, duration_ns)
        return LaunchResult(done_ns, duration_ns)

    def synchronize_ns(self) -> int:
        """Virtual time at which all outstanding device work completes."""
        return self.streams.device_tail_ns()

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all allocations, streams and events (cudaDeviceReset).

        Also clears any sticky fault -- a device reset is the documented
        CUDA remedy for ECC / corrupted-context errors -- and any soft
        degradation (the part gets a clean bill until re-injected).
        """
        self.allocator = self._new_allocator(self.allocator.capacity)
        self.streams = StreamTable()
        self.fault = None
        self.clear_soft_faults()
        self.correctable_ecc_events = 0

    # -- checkpoint / restart ---------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        """Upper bound on bytes a delta checkpoint of this device would ship."""
        return self.allocator.dirty_bytes

    def snapshot_meta(self) -> dict:
        """Allocation *table* (no contents) plus device identity.

        The small half of an incremental checkpoint: enough for a restorer
        to reconcile which allocations exist (creating new ones zeroed,
        dropping freed ones) before applying dirty-page fragments.  With
        ``execute=False`` kernel bodies never touch memory, so dirty
        tracking only sees explicit memcpys/memsets -- incremental
        checkpoints are only sound on executing devices.
        """
        return {
            "spec_name": self.spec.name,
            "capacity": self.allocator.capacity,
            "allocations": [
                (a.addr, a.size) for a in self.allocator.live_allocations()
            ],
            "launch_count": self.launch_count,
        }

    def delta_fragments(self, *, clear: bool = True) -> list[tuple[int, bytes]]:
        """Fragments of live memory dirtied since the last epoch edge.

        With ``clear`` (the default) this is an epoch edge itself: the
        dirty set resets, so the next call ships only what changes from
        here on -- the loop iterative pre-copy migration drives.
        """
        pages = self.allocator.clear_dirty() if clear else self.allocator.dirty_pages()
        return self.allocator.dirty_fragments(pages)

    def snapshot(self) -> dict:
        """The device's mutable state (allocations + contents), as plain data.

        This is Cricket's checkpoint primitive: enough state to re-create
        the GPU side of an application on another device of the same model.
        Kernel registries are code, not state, and must match on restore.

        On a *healthy* sanitized device the guard bands are verified first
        -- a checkpoint must not silently immortalize state a wild write
        already corrupted.  The check is skipped while a sticky fault is
        outstanding: that is the admin path ``failover_device`` uses to
        salvage memory off poisoned silicon, and the corruption (if any)
        has already been attributed.
        """
        if self.healthy and self.allocator.sanitizer is not None:
            self.allocator.verify_canaries()
        allocations = [
            (a.addr, a.size, a.data.tobytes())
            for a in self.allocator.live_allocations()
        ]
        payload = {
            "spec_name": self.spec.name,
            "capacity": self.allocator.capacity,
            "allocations": allocations,
            "launch_count": self.launch_count,
        }
        if self.allocator.sanitizer is not None:
            # Owner/site attribution survives restore (and device failover):
            # a leak or violation after the move still names the tenant and
            # the cudaMalloc that created the memory.
            sites = {
                a.addr: self.allocator.site_of(a.addr)
                for a in self.allocator.live_allocations()
            }
            payload["sites"] = {
                addr: pair for addr, pair in sites.items() if pair != ("", "")
            }
        return payload

    def restore(self, payload: dict) -> None:
        """Restore state produced by :meth:`snapshot` onto this device."""
        if payload["spec_name"] != self.spec.name:
            raise GpuError(
                "checkpoint was taken on a different GPU model "
                f"({payload['spec_name']!r} vs {self.spec.name!r})"
            )
        self.reset()
        restored = self._new_allocator(payload["capacity"])
        # Re-create allocations at their original addresses: addresses are
        # part of application state (device pointers live inside client
        # structures).  On a sanitized device each placement re-arms fresh
        # guard bands (canaries are allocator metadata, not checkpointed
        # state) and the quarantine starts empty -- freed spans do not
        # survive a checkpoint.
        try:
            for addr, size, data in sorted(payload["allocations"]):
                restored.alloc_at(addr, size)
                if size:
                    restored.write(addr, data)
        except GpuError:
            # Exact placement failed -- a sanitizer armed over a checkpoint
            # taken unsanitized has no redzone gaps to carve.  Rebuild the
            # layout directly; the allocator runs unsanitized until the
            # next reset.
            restored = _rebuild_at_exact_addresses(
                payload["capacity"], payload["allocations"]
            )
        for addr, (owner, site) in payload.get("sites", {}).items():
            restored.annotate(addr, owner=owner, site=site)
        self.allocator = restored
        self.launch_count = payload["launch_count"]
        # The restored contents have no delta baseline: until the next full
        # checkpoint, an incremental capture must ship everything live.
        self.allocator.mark_all_dirty()


def _rebuild_at_exact_addresses(
    capacity: int, allocations: list[tuple[int, int, bytes]]
) -> DeviceAllocator:
    """Rebuild an allocator whose live set must sit at exact addresses.

    Used when sequential replay does not reproduce original addresses
    (possible after fragmentation).  We construct the allocator directly:
    holes are derived from the gaps between the recorded allocations.
    """
    import numpy as np

    from repro.gpu import memory as mem

    allocator = DeviceAllocator(capacity)
    allocator._allocs.clear()
    allocator._sorted_addrs.clear()
    allocator._free.clear()
    allocator.used_bytes = 0
    cursor = mem.DEVICE_VA_BASE
    end = mem.DEVICE_VA_BASE + capacity
    for addr, size, data in sorted(allocations):
        span = mem._align_up(max(size, 1))
        if addr < cursor or addr + span > end:
            raise GpuError("corrupt checkpoint: overlapping allocations")
        if addr > cursor:
            allocator._free.append((cursor, addr - cursor))
        allocation = mem.Allocation(addr, size, np.frombuffer(data, dtype=np.uint8).copy())
        allocator._allocs[addr] = allocation
        allocator._sorted_addrs.append(addr)
        allocator.used_bytes += span
        cursor = addr + span
    if cursor < end:
        allocator._free.append((cursor, end - cursor))
    allocator.alloc_count = len(allocator._allocs)
    return allocator
