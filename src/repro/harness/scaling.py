"""Unikernel-scaling experiment: many guests sharing one GPU.

The paper's deployment argument (§1, §5): unikernels run one application
each and are deployed in large numbers, so statically assigning GPUs (or
even SR-IOV partitions -- the A100 allows only seven) cannot work; Cricket
instead shares devices dynamically under configurable schedulers.  This
experiment quantifies that claim over virtual time:

``N`` unikernel tenants each submit a stream of kernels with think time
between submissions (the non-uniform load of §3.3).  We report, per N:

* aggregate GPU utilization (busy time / makespan),
* mean tenant queueing delay,
* scheduler fairness (Jain's index).

Utilization should climb toward saturation as tenants are added -- the
consolidation win -- while round-robin/fair-share keep queueing delay
bounded compared to FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cricket.scheduler import (
    FifoPolicy,
    GpuScheduler,
    RoundRobinPolicy,
    WorkItem,
)
from repro.harness.report import render_table

US = 1_000


@dataclass(frozen=True)
class TenantLoad:
    """One unikernel's synthetic workload."""

    kernels: int = 40
    #: GPU time of each kernel, ns
    duration_ns: int = 120 * US
    #: client-side gap between submissions, ns (RPC latency + app logic)
    think_ns: int = 300 * US


def tenant_items(tenant_id: int, load: TenantLoad, seq_base: int) -> list[WorkItem]:
    """Submission timeline of one tenant (deterministic, staggered start)."""
    items = []
    submit = (tenant_id * 37 * US) % load.think_ns  # staggered arrivals
    for k in range(load.kernels):
        items.append(
            WorkItem(f"unikernel-{tenant_id}", load.duration_ns, submit, seq_base + k)
        )
        submit += load.think_ns
    return items


@dataclass
class ScalingPoint:
    """Metrics for one tenant count."""

    tenants: int
    utilization: float
    mean_wait_ns: float
    fairness: float


@dataclass
class ScalingResult:
    """Utilization/latency curve over tenant counts, per policy."""

    load: TenantLoad
    #: policy name -> list of points
    curves: dict[str, list[ScalingPoint]] = field(default_factory=dict)

    def utilization_curve(self, policy: str) -> list[float]:
        """Utilization values in tenant-count order."""
        return [p.utilization for p in self.curves[policy]]

    def render(self) -> str:
        """Render per-policy scaling tables."""
        parts = []
        for policy, points in self.curves.items():
            rows = [
                (p.tenants, f"{100 * p.utilization:.1f}%", p.mean_wait_ns / 1e6, f"{p.fairness:.3f}")
                for p in points
            ]
            parts.append(
                render_table(
                    f"GPU sharing at scale -- {policy} scheduler",
                    ["tenants", "GPU utilization", "mean wait [ms]", "fairness"],
                    rows,
                )
            )
        return "\n\n".join(parts)


def run_scaling(
    tenant_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    load: TenantLoad = TenantLoad(),
    policies: dict[str, type] | None = None,
) -> ScalingResult:
    """Run the scaling sweep for FIFO and round-robin schedulers."""
    factories = policies or {"fifo": FifoPolicy, "round-robin": RoundRobinPolicy}
    result = ScalingResult(load=load)
    for name, factory in factories.items():
        points = []
        for n in tenant_counts:
            scheduler = GpuScheduler(factory())
            items: list[WorkItem] = []
            for t in range(n):
                items.extend(tenant_items(t, load, seq_base=t * 10_000))
            done = scheduler.schedule(items)
            busy = sum(d.item.duration_ns for d in done)
            makespan = max(d.end_ns for d in done)
            waits = [d.wait_ns for d in done]
            points.append(
                ScalingPoint(
                    tenants=n,
                    utilization=busy / makespan,
                    mean_wait_ns=sum(waits) / len(waits),
                    fairness=scheduler.fairness_index(),
                )
            )
        result.curves[name] = points
    return result
