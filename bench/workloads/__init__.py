"""The four workloads and what they share.

Every workload is a closed loop with one client: a caller of a CUDA API
waits for its reply before issuing the next call.  A workload makes all
of its inputs from ``seed`` and counts what it attempted and what failed;
the program under test only ever sees the generated calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Segment:
    """One timed slice (or repetition) of a workload."""

    ops: int
    wall_s: float
    cpu_s: float
    #: per-segment samples of the ``detail.*`` metrics this workload owns
    detail: dict[str, float] = field(default_factory=dict)

    @classmethod
    def total(cls, parts: Iterable["Segment"], detail: dict[str, float]) -> "Segment":
        """Independent units (app runs, plans) summed into one segment."""
        parts = list(parts)
        return cls(
            ops=sum(s.ops for s in parts), wall_s=sum(s.wall_s for s in parts),
            cpu_s=sum(s.cpu_s for s in parts), detail=detail,
        )


def by_rank(runs: dict[str, list[Segment]]) -> list[dict[str, Segment]]:
    """Regroup repeated independent units: the k-th entry maps every unit to
    its k-th fastest run.

    The fixed-work workloads repeat a set of independent units (an app run,
    a simulation plan) that each take about a second -- long enough for a
    noisy neighbour to hit some unit of every repetition.  Pairing the
    fastest run of each unit, then the second fastest, and so on, makes the
    first regrouped repetition the one the machine left alone.
    """
    ordered = {unit: sorted(segs, key=lambda s: s.wall_s) for unit, segs in runs.items()}
    depth = min(len(segs) for segs in ordered.values())
    return [{unit: segs[k] for unit, segs in ordered.items()} for k in range(depth)]


class Workload:
    """Base class: failure accounting and the generator's hooks."""

    name = ""
    #: the server runs in a child process (else everything is in this one)
    two_processes = False

    def __init__(self, seed: int, *, fault: str | None = None, in_process: bool = False):
        self.seed = seed
        #: test-only output corruption ("flip_byte", "skip_launch", "raise")
        self.fault = fault
        #: serve the socket workloads from a thread of this process (traced
        #: runs: client and server lanes must land in one trace)
        self.in_process = in_process
        #: installed on every RpcClient the workload creates (trace correlation)
        self.xid_observer: Callable[[int], None] | None = None
        #: wraps root calls that are not CricketClient methods (traced runs)
        self.root: Callable[..., Callable] = lambda name, fn, lane="app": fn
        #: exact facts that must not differ between two runs at one seed
        #: (written to the result files; ``compare`` checks them)
        self.record: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)

    def cpu_s(self) -> float:
        """CPU seconds so far of every process the workload keeps busy."""
        return time.process_time()

    def server_maxrss_KiB(self) -> int:
        return 0

    # -- the generator calls these, in this order --------------------------

    def setup(self) -> None:
        """Everything up to the first timed op, warm-up included."""
        raise NotImplementedError

    def run_timed(self, seconds: float) -> list[Segment]:
        raise NotImplementedError

    def run_fixed(self) -> Segment:
        """A fixed small op count: the traced pass and its unpatched twin."""
        raise NotImplementedError

    def check(self) -> None:
        """Output checks; failures go through :meth:`fail`."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and thread the workload started."""


def registry() -> dict[str, type[Workload]]:
    from bench.workloads.bulk_copy import BulkCopy
    from bench.workloads.launch_storm import LaunchStorm
    from bench.workloads.nemesis_sim import NemesisSim
    from bench.workloads.proxy_apps import ProxyApps

    return {w.name: w for w in (LaunchStorm, BulkCopy, ProxyApps, NemesisSim)}
