"""GPU-sharing scheduler.

Cricket's decoupling lets many clients (in the paper's vision: many
unikernels) share one physical GPU, with "configurable schedulers"
arbitrating access.  This module implements that arbitration over virtual
time: each client submits work items (duration in ns); the scheduler
decides when each item starts on the device and returns its completion
time.

Policies:

* :class:`FifoPolicy` -- global submission order (the device's natural
  behaviour with one context).
* :class:`RoundRobinPolicy` -- one pending item per client per round,
  preventing a chatty client from starving others.
* :class:`FairSharePolicy` -- weighted virtual-runtime scheduling (a
  simplified CFS): the client with the least weighted GPU time so far wins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit of GPU work."""

    client: str
    duration_ns: int
    submit_ns: int
    seq: int = 0


@dataclass
class ScheduledItem:
    """Outcome of scheduling one work item."""

    item: WorkItem
    start_ns: int
    end_ns: int

    @property
    def wait_ns(self) -> int:
        """Queueing delay: start minus submission time."""
        return self.start_ns - self.item.submit_ns


class SchedulingPolicy(Protocol):
    """Picks the next item to run among pending work."""

    name: str

    def select(self, pending: list[WorkItem], usage_ns: dict[str, float]) -> int:
        """Index into ``pending`` of the item to run next."""
        ...


class FifoPolicy:
    """Run items strictly in submission order."""

    name = "fifo"

    def select(self, pending: list[WorkItem], usage_ns: dict[str, float]) -> int:
        return min(range(len(pending)), key=lambda i: pending[i].seq)


class RoundRobinPolicy:
    """Cycle through clients, one item each."""

    name = "round-robin"

    def __init__(self) -> None:
        self._order: deque[str] = deque()

    def select(self, pending: list[WorkItem], usage_ns: dict[str, float]) -> int:
        clients_pending = {item.client for item in pending}
        for client in clients_pending:
            if client not in self._order:
                self._order.append(client)
        while True:
            client = self._order[0]
            self._order.rotate(-1)
            if client in clients_pending:
                candidates = [i for i, it in enumerate(pending) if it.client == client]
                return min(candidates, key=lambda i: pending[i].seq)


class FairSharePolicy:
    """Least weighted-GPU-time-first (simplified CFS)."""

    name = "fair-share"

    def __init__(self, weights: dict[str, float] | None = None) -> None:
        self.weights = dict(weights or {})

    def _vruntime(self, client: str, usage_ns: dict[str, float]) -> float:
        weight = self.weights.get(client, 1.0)
        return usage_ns.get(client, 0.0) / weight

    def select(self, pending: list[WorkItem], usage_ns: dict[str, float]) -> int:
        return min(
            range(len(pending)),
            key=lambda i: (self._vruntime(pending[i].client, usage_ns), pending[i].seq),
        )


@dataclass
class GpuScheduler:
    """Arbitrates one device's timeline among clients."""

    policy: SchedulingPolicy = field(default_factory=FifoPolicy)
    #: virtual time at which the device becomes idle
    device_free_ns: int = 0
    #: accumulated GPU nanoseconds per client
    usage_ns: dict[str, float] = field(default_factory=dict)
    #: per-client launch counter (instrumentation used by the server)
    launches: dict[str, int] = field(default_factory=dict)
    _seq: int = 0

    def note_launch(self, client: str) -> None:
        """Record that a client issued a launch (server instrumentation)."""
        self.launches[client] = self.launches.get(client, 0) + 1

    def schedule(self, items: list[WorkItem]) -> list[ScheduledItem]:
        """Schedule a batch of items; returns them in execution order.

        The device runs one item at a time (no preemption): at each step,
        the policy picks among items already submitted; if none are
        submitted yet, the device idles until the earliest submission.
        """
        remaining = sorted(items, key=lambda it: (it.submit_ns, it.seq))
        result: list[ScheduledItem] = []
        now = self.device_free_ns
        while remaining:
            available = [it for it in remaining if it.submit_ns <= now]
            if not available:
                now = remaining[0].submit_ns
                continue
            index = self.policy.select(available, self.usage_ns)
            chosen = available[index]
            remaining.remove(chosen)
            start = max(now, chosen.submit_ns)
            end = start + chosen.duration_ns
            self.usage_ns[chosen.client] = (
                self.usage_ns.get(chosen.client, 0.0) + chosen.duration_ns
            )
            result.append(ScheduledItem(chosen, start, end))
            now = end
        self.device_free_ns = now
        return result

    def submit(self, client: str, duration_ns: int, submit_ns: int) -> ScheduledItem:
        """Schedule a single item immediately (online mode)."""
        self._seq += 1
        item = WorkItem(client, duration_ns, submit_ns, self._seq)
        return self.schedule([item])[0]

    def makespan_ns(self) -> int:
        """Completion time of everything scheduled so far."""
        return self.device_free_ns

    def fairness_index(self) -> float:
        """Jain's fairness index over per-client GPU usage (1.0 = fair)."""
        usages = list(self.usage_ns.values())
        if not usages:
            return 1.0
        total = sum(usages)
        squares = sum(u * u for u in usages)
        if squares == 0:
            return 1.0
        return (total * total) / (len(usages) * squares)
