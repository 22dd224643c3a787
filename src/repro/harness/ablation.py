"""Ablation experiments from §4.2's discussion and §5's outlook.

Two studies the paper describes in text rather than figures:

* **Offload ablation** -- disabling TSO, transmit checksum offload and
  scatter-gather in the Linux VM collapses host-to-device bandwidth to
  ~923.9 MiB/s while barely moving device-to-host (the paper's evidence
  that receive-side inefficiency is a separate problem).
* **Transfer-method comparison** -- Cricket's four memory-transfer methods
  (RPC arguments, parallel sockets, InfiniBand/GPUDirect, shared memory)
  have very different ceilings; unikernels can only use the slowest.

And one answer to the conclusion's "to reduce the overhead found in this
paper": **launch batching** -- ONC RPC batching streams kernel launches
without waiting for replies; :func:`run_launch_batching` measures how much
of each platform's per-launch latency that recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import bandwidth
from repro.cricket.transfer import TransferMethod, TransferTimingModel, supported_on
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.harness.report import render_table
from repro.harness.runner import make_session
from repro.unikernel.platform import Platform
from repro.unikernel.presets import EVAL_LINK, linux_vm, native_rust, rustyhermit, unikraft

MIB = 1 << 20


@dataclass
class OffloadAblationResult:
    """Linux VM bandwidth with and without virtio offloads (MiB/s)."""

    h2d: dict[str, float] = field(default_factory=dict)
    d2h: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Render the result as a text table."""
        rows = [
            (name, self.d2h[name], self.h2d[name]) for name in self.h2d
        ]
        return render_table(
            "Offload ablation -- Linux VM bandwidth (MiB/s), 512 MiB transfers",
            ["configuration", "D2H [MiB/s]", "H2D [MiB/s]"],
            rows,
            floatfmt="{:.1f}",
        )


def run_offload_ablation(nbytes: int = 512 * MIB) -> OffloadAblationResult:
    """Linux VM with all offloads vs. TSO/TX-csum/SG disabled."""
    result = OffloadAblationResult()
    for label, platform in (
        ("VM, offloads on", linux_vm(offloads=True)),
        ("VM, TSO/csum/SG off", linux_vm(offloads=False)),
    ):
        with make_session(platform, device_mem=nbytes + 64 * MIB) as session:
            run = bandwidth.run(session, transfer_bytes=nbytes, verify=False)
        result.h2d[label] = run.h2d_MiBps
        result.d2h[label] = run.d2h_MiBps
    return result


@dataclass
class TransferMethodResult:
    """Analytic bandwidth of each Cricket transfer method (MiB/s)."""

    nbytes: int
    bandwidth_MiBps: dict[str, float] = field(default_factory=dict)
    supported_by_unikernels: dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        """Render the result as a text table."""
        rows = [
            (
                method,
                self.bandwidth_MiBps[method],
                "yes" if self.supported_by_unikernels[method] else "no",
            )
            for method in self.bandwidth_MiBps
        ]
        return render_table(
            f"Transfer-method comparison -- {self.nbytes // MIB} MiB host-to-device (MiB/s)",
            ["method", "bandwidth [MiB/s]", "usable from unikernels"],
            rows,
            floatfmt="{:.1f}",
        )


def run_transfer_method_comparison(nbytes: int = 512 * MIB) -> TransferMethodResult:
    """Compare the four methods' H2D bandwidth on the evaluation link."""
    timing = TransferTimingModel(link=EVAL_LINK)
    result = TransferMethodResult(nbytes)

    # RPC arguments: measure through the real path on the native platform.
    with make_session(native_rust(), device_mem=nbytes + 64 * MIB) as session:
        run = bandwidth.run(session, transfer_bytes=nbytes, verify=False)
    times = {
        TransferMethod.RPC_ARGS: nbytes / (run.h2d_MiBps * MIB),
        TransferMethod.PARALLEL_SOCKETS: timing.parallel_sockets_s(
            nbytes, client_rate_Bps=5.0e9, threads=4
        ),
        TransferMethod.IB_GPUDIRECT: timing.ib_gpudirect_s(nbytes),
        TransferMethod.SHARED_MEMORY: timing.shared_memory_s(nbytes),
    }
    for method, seconds in times.items():
        result.bandwidth_MiBps[method.value] = nbytes / MIB / seconds
        result.supported_by_unikernels[method.value] = all(
            supported_on(method, p) for p in (rustyhermit(), unikraft())
        )
    return result


@dataclass
class BatchingResult:
    """Per-launch latency, synchronous vs batched, per platform (us)."""

    calls: int
    #: platform name -> (synchronous us, batched us)
    latency_us: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        """Render the result as a text table."""
        return render_table(
            f"Launch batching -- per-launch latency over {self.calls} launches (us)",
            ["platform", "synchronous [us]", "batched [us]", "reduction"],
            [
                (name, sync, batched, f"{100 * (1 - batched / sync):.0f}%")
                for name, (sync, batched) in self.latency_us.items()
            ],
            floatfmt="{:.2f}",
        )


def _launch_time_us(platform: Platform, calls: int, *, batched: bool) -> float:
    with make_session(platform) as session:
        cubin = build_cubin_for_registry(session.server.device.registry, ["_Z9nopKernelv"])
        module = session.client.module_load(cubin)
        meta = KernelMeta.from_kinds("_Z9nopKernelv", ())
        fn = session.client.get_function(module, "_Z9nopKernelv", meta)
        start = session.clock.now_ns
        for _ in range(calls):
            if batched:
                session.client.launch_kernel_batched(fn, (1, 1, 1), (1, 1, 1), ())
            else:
                session.client.launch_kernel(fn, (1, 1, 1), (1, 1, 1), ())
        if batched:
            session.client.flush()
        return (session.clock.now_ns - start) / calls / 1e3


def run_launch_batching(calls: int = 2_000) -> BatchingResult:
    """Synchronous vs batched nop launches on native, VM and unikernels."""
    result = BatchingResult(calls=calls)
    for factory in (native_rust, linux_vm, unikraft, rustyhermit):
        platform = factory()
        result.latency_us[platform.name] = (
            _launch_time_us(platform, calls, batched=False),
            _launch_time_us(platform, calls, batched=True),
        )
    return result
