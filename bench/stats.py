"""Summary statistics and the environment record every result file carries."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from typing import Iterable

from bench import ROOT


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the benchmark driver computes its spread."""
    data = sorted(values)
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def summarize(values: Iterable[float]) -> dict[str, float | int]:
    """Median with quartiles and the sample count beside it."""
    data = list(values)
    q1, _, q3 = quartiles(data)
    return {"value": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(0, min(len(sorted_values) - 1, int(p * len(sorted_values))))
    return sorted_values[rank]


def undisturbed(values: Iterable[float], better: str) -> dict[str, float | int]:
    """The value a run reports for one metric, from its per-segment samples.

    A co-tenant on this kind of host can only ever *slow* a segment, and it
    does so for a large share of them (probes: the median segment wandered
    by 30 % between runs, the 95th percentile by 7 %).  So a run reports
    the 95th percentile of its segments toward the better side -- what the
    code does when the machine leaves it alone -- and keeps the median and
    the sample count beside it.
    """
    data = sorted(values)
    best = percentile(data, 0.95 if better == "higher" else 0.05)
    return {"value": best, "median": statistics.median(data), "n": len(data)}


def cpu_spin_ms() -> float:
    """A fixed SHA-256 chain, timed: tells a slow machine from slow code.

    The work never changes, so a run whose spin reads high was taken on a
    loaded or throttled host and its other numbers deserve suspicion.
    """
    digest = b"\0" * 32
    sha256 = hashlib.sha256
    start = time.perf_counter_ns()
    for _ in range(20_000):
        digest = sha256(digest).digest()
    return (time.perf_counter_ns() - start) / 1e6


def environment() -> dict[str, object]:
    """Where and on what a result was taken (recorded at start and end)."""
    sha = ""
    if (ROOT / ".git").exists():  # a driver checkout is not a repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=5,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "unix_time": time.time(),
    }
