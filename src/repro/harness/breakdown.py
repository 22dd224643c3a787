"""Cost attribution: where does each platform's time actually go?

§4.2 of the paper *explains* its measurements by attributing overhead to
mechanisms: guest network stacks, hypervisor virtualization, missing
offloads, the single-threaded RPC copy path.  This analysis makes those
attributions first-class: every run decomposes its virtual time into

* ``client_cpu``     -- language marshalling + app-charged client work,
* ``client_stack``   -- guest network-stack transmit/receive CPU,
* ``wire``           -- link latency and serialization,
* ``server_stack``   -- the GPU node's (native Linux) network stack,
* ``server_dispatch``-- Cricket's per-RPC dispatch CPU,
* ``cuda``           -- PCIe copies, GPU waits, allocator bookkeeping,
* ``host_app``       -- client-side time outside any RPC (input generation).

:func:`run_breakdown` decomposes a bulk and a chatty workload on native,
the Linux VM and RustyHermit; the claims table (:mod:`repro.harness.claims`)
checks the paper's §4.2 attributions on them, e.g. that RustyHermit's
bandwidth collapse lives almost entirely in ``client_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.session import GpuSession
from repro.harness.report import render_table
from repro.harness.runner import make_session
from repro.unikernel.platform import Platform
from repro.unikernel.presets import linux_vm, native_rust, rustyhermit

MIB = 1 << 20

COMPONENTS = (
    "client_cpu",
    "client_stack",
    "wire",
    "server_stack",
    "server_dispatch",
    "cuda",
    "host_app",
)


@dataclass
class CostBreakdown:
    """One run's virtual time, decomposed by component."""

    platform: str
    total_s: float
    components_s: dict[str, float] = field(default_factory=dict)

    def fraction(self, component: str) -> float:
        """Share of total time spent in ``component`` (0..1)."""
        if self.total_s == 0:
            return 0.0
        return self.components_s.get(component, 0.0) / self.total_s

    def dominant(self) -> str:
        """The component with the largest share."""
        return max(self.components_s, key=self.components_s.get)

    def rows(self) -> list[tuple[str, float, str]]:
        """Table rows (component, seconds, share)."""
        return [
            (name, self.components_s[name], f"{100 * self.fraction(name):.1f}%")
            for name in COMPONENTS
        ]

    def render(self) -> str:
        """Render the breakdown as a text table."""
        return render_table(
            f"Cost breakdown -- {self.platform} ({self.total_s:.4f} s total)",
            ["component", "seconds", "share"],
            self.rows(),
            floatfmt="{:.5f}",
        )


def measure_breakdown(
    platform: Platform, workload: Callable[[GpuSession], None]
) -> CostBreakdown:
    """Run ``workload`` on a fresh session and attribute its virtual time."""
    with make_session(platform) as session:
        start_ns = session.clock.now_ns
        workload(session)
        total_ns = session.clock.now_ns - start_ns

        meter = session.client.meter
        assert meter is not None  # make_session always supplies a platform
        components = {
            "client_cpu": meter.breakdown_s["client_cpu"],
            "client_stack": meter.breakdown_s["client_stack"],
            "wire": meter.breakdown_s["wire"],
            "server_stack": meter.breakdown_s["server_stack"],
            "server_dispatch": session.server.dispatch_time_charged_ns / 1e9,
            "cuda": session.server.runtime.time_charged_ns / 1e9,
        }
        accounted = sum(components.values())
        components["host_app"] = max(0.0, total_ns / 1e9 - accounted)
    return CostBreakdown(
        platform=platform.name,
        total_s=total_ns / 1e9,
        components_s=components,
    )


# -- canned workloads of the analysis ------------------------------------------


def bulk_upload_workload(nbytes: int = 128 * MIB) -> Callable[[GpuSession], None]:
    """One big H2D transfer (the Figure 7 regime)."""

    def run(session: GpuSession) -> None:
        buffer = session.alloc(nbytes)
        buffer.write(bytes(nbytes))
        buffer.free()

    return run


def chatty_workload(calls: int = 2000) -> Callable[[GpuSession], None]:
    """Many tiny calls (the Figure 6 regime)."""

    def run(session: GpuSession) -> None:
        for _ in range(calls):
            session.client.get_device_count()

    return run


@dataclass
class BreakdownResult:
    """Cost breakdowns keyed by ``(regime, platform name)``."""

    runs: dict[tuple[str, str], CostBreakdown] = field(default_factory=dict)

    def render(self) -> str:
        """Render every breakdown under its workload's heading."""
        return "\n\n".join(
            f"[{regime} workload]\n" + bd.render() for (regime, _), bd in self.runs.items()
        )


def run_breakdown() -> BreakdownResult:
    """The bulk (Figure 7) and chatty (Figure 6) regimes on three platforms."""
    result = BreakdownResult()
    for regime, workload in (
        ("bulk", bulk_upload_workload()),
        ("chatty", chatty_workload()),
    ):
        for factory in (native_rust, linux_vm, rustyhermit):
            platform = factory()
            result.runs[(regime, platform.name)] = measure_breakdown(platform, workload)
    return result
