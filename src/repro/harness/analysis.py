"""Two analyses that connect the paper's figures to its conclusion.

* **Bandwidth shmoo** -- sweeping transfer sizes (bandwidthTest's shmoo
  mode) connects Figures 6 and 7: at small sizes per-call latency
  dominates, so the platforms differ by their Figure 6 ratios (~2x for
  Hermit); at large sizes per-byte costs dominate and the gap opens to the
  Figure 7 ratios (~9x H2D).
* **Compute-bound counter-example** -- "our approach is best suited to GPU
  applications that have long-running, high-workload GPU kernels, which
  consequently require less communication" (§5).  The paper never
  measures such an application; the nbody port (O(n^2)-FLOP kernels,
  asynchronous launches) does, beside the I/O-bound matrixMul.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import bandwidth, matrixmul, nbody
from repro.apps.bandwidth import BandwidthResult
from repro.core.config import SessionConfig
from repro.core.session import GpuSession
from repro.harness.report import render_table
from repro.harness.runner import make_session
from repro.unikernel.presets import linux_vm, native_rust, rustyhermit, unikraft

KIB = 1 << 10
MIB = 1 << 20
SHMOO_SIZES = (4 * KIB, 64 * KIB, 1 * MIB, 8 * MIB, 64 * MIB)


@dataclass
class ShmooResult:
    """H2D bandwidth by transfer size, native Rust and RustyHermit."""

    #: platform name -> transfer size -> bandwidth run
    curves: dict[str, dict[int, BandwidthResult]] = field(default_factory=dict)

    def h2d(self, platform: str) -> list[float]:
        """H2D MiB/s over :data:`SHMOO_SIZES`."""
        return [self.curves[platform][size].h2d_MiBps for size in SHMOO_SIZES]

    def native_advantage(self) -> list[float]:
        """Native over Hermit H2D bandwidth, per size."""
        return [rust / hermit for rust, hermit in zip(self.h2d("Rust"), self.h2d("Hermit"))]

    def render(self) -> str:
        """Render the sweep as a text table."""
        rows = [
            (
                f"{size // KIB} KiB" if size < MIB else f"{size // MIB} MiB",
                rust,
                hermit,
                f"{rust / hermit:.1f}x",
            )
            for size, rust, hermit in zip(SHMOO_SIZES, self.h2d("Rust"), self.h2d("Hermit"))
        ]
        return render_table(
            "Bandwidth shmoo -- H2D effective MiB/s by transfer size",
            ["size", "Rust native", "Hermit", "native advantage"],
            rows,
            floatfmt="{:.1f}",
        )


def run_shmoo() -> ShmooResult:
    """The 4 KiB - 64 MiB sweep on native Rust and RustyHermit."""
    result = ShmooResult()
    for factory in (native_rust, rustyhermit):
        platform = factory()
        with make_session(platform, device_mem=128 * MIB) as session:
            result.curves[platform.name] = bandwidth.shmoo(session, list(SHMOO_SIZES))
    return result


@dataclass
class ComputeBoundResult:
    """I/O-bound vs compute-bound execution times, per platform."""

    #: platform name -> (matrixMul s, nbody s)
    elapsed_s: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: platform name -> GPU busy time over nbody's loop time
    gpu_busy_share: dict[str, float] = field(default_factory=dict)
    #: nbody's numerics on an executing device match the NumPy reference
    verified: bool = False

    def overhead(self, platform: str) -> tuple[float, float]:
        """(matrixMul, nbody) overhead relative to native Rust."""
        (io, compute), (native_io, native_compute) = (
            self.elapsed_s[platform], self.elapsed_s["Rust"]
        )
        return io / native_io - 1, compute / native_compute - 1

    def render(self) -> str:
        """Render the relative times as a text table."""
        native_io, native_compute = self.elapsed_s["Rust"]
        return render_table(
            "I/O-bound vs compute-bound overhead (relative to native Rust)",
            ["platform", "matrixMul (I/O-bound)", "nbody (compute-bound)"],
            [
                (name, f"{io / native_io:.2f}x", f"{comp / native_compute:.3f}x")
                for name, (io, comp) in self.elapsed_s.items()
            ],
        )


def run_compute_bound() -> ComputeBoundResult:
    """matrixMul and nbody on native, VM and unikernels; nbody checked
    numerically at small scale."""
    result = ComputeBoundResult()
    for factory in (native_rust, linux_vm, unikraft, rustyhermit):
        platform = factory()
        with make_session(platform) as session:
            io_bound = matrixmul.run(session, iterations=2_000, verify=False)
        with make_session(platform) as session:
            compute = nbody.run(session, bodies=16_384, iterations=50, verify=False)
            gpu_busy_s = session.server.device.synchronize_ns() / 1e9
        result.elapsed_s[platform.name] = (io_bound.elapsed_s, compute.elapsed_s)
        result.gpu_busy_share[platform.name] = gpu_busy_s / compute.extra["loop_s"]
    config = SessionConfig(platform=native_rust(), device_mem_bytes=64 * MIB)
    with GpuSession(config) as session:
        result.verified = nbody.run(session, bodies=192, iterations=4).verified is True
    return result
