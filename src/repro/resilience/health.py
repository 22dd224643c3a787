"""Gray-failure detection: latency SLOs, outlier ejection and brownout.

Every robustness layer before this one treats components as alive or
dead: the circuit breaker trips on *errors*, ``null_probe`` answers a
binary question, the watchdog catches *hangs*.  A limping link, a
thermally throttled GPU or a slow-fsync disk passes all of those checks
while destroying tail latency — the "gray failure" / limplock regime.

This module supplies the deterministic building blocks, all driven by
virtual time so chaos runs are bit-reproducible:

``LatencyHistogram``
    Fixed log-spaced buckets over nanoseconds; streaming p50/p95/p99
    with O(1) record and O(buckets) quantile.  The same type backs the
    tracer's per-procedure percentiles.

``HealthTracker``
    Histogram plus the latest timestamped samples.  One tracker per
    target: endpoint, device, replication link, storage backend.

``LatencySLO``
    A p99 target with a minimum sample count; ``breached(tracker)`` is
    the single question every detector asks.

``OutlierEjector``
    Envoy-style statistical ejection: a target whose p50 exceeds the
    median of its peers' p50s by ``OUTLIER_FACTOR`` is ejected, subject
    to a capped ejection fraction, and re-admitted on probation after a
    virtual-time hold.

``BrownoutController``
    Staged degraded mode for the server with hysteretic entry/exit:
    stage rises immediately with the worst signal ratio, falls only
    after the score stays low for a minimum dwell.  Stage >= 1 sheds
    low-priority work as ``RPC_BUSY`` and suspends sanitizer sweeps.

Nothing here imports oncrpc/cricket — the heavy layers import *us*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = [
    "LatencyHistogram",
    "HealthTracker",
    "LatencySLO",
    "OutlierEjector",
    "EjectionDecision",
    "BrownoutConfig",
    "BrownoutController",
]


def _log_bounds() -> tuple[int, ...]:
    """Log-spaced bucket upper bounds, 1 us .. ~69 s, 4 buckets/decade."""
    bounds: list[int] = []
    value = 1_000  # 1 us in ns
    while value < 100_000_000_000:
        bounds.append(int(value))
        value = value * 10 ** 0.25
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram over nanoseconds.

    Buckets are log-spaced and shared by every user in the tree so that
    quantiles from different subsystems are comparable.  ``quantile``
    returns the upper bound of the bucket holding the q-th sample —
    a deterministic over-estimate, which is the conservative direction
    for SLO checks.
    """

    __slots__ = ("_counts", "count", "total_ns", "max_ns")

    #: bucket upper bounds, nanoseconds (one overflow bucket past the last)
    BOUNDS = _log_bounds()

    def __init__(self) -> None:
        self._counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        bounds = self.BOUNDS
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if latency_ns <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self._counts[lo] += 1
        self.count += 1
        self.total_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns

    def quantile(self, q: float) -> int:
        """Upper bucket bound covering the q-th fraction of samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= rank:
                if i < len(self.BOUNDS):
                    return self.BOUNDS[i]
                return self.max_ns
        return self.max_ns

    @property
    def p50(self) -> int:
        return self.quantile(0.50)

    @property
    def p95(self) -> int:
        return self.quantile(0.95)

    @property
    def p99(self) -> int:
        return self.quantile(0.99)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def reset(self) -> None:
        for i in range(len(self._counts)):
            self._counts[i] = 0
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0


class HealthTracker:
    """Streaming latency estimator for one target.

    The histogram answers tail quantiles over every sample; ``recent``
    keeps the last :attr:`RECENT` samples with the virtual time each
    landed, for signals that judge recent samples only
    (:meth:`LatencySLO.recent_ratio`).
    """

    __slots__ = ("name", "histogram", "recent")

    #: how many timestamped samples :attr:`recent` keeps
    RECENT = 16

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.histogram = LatencyHistogram()
        #: ``(at_ns, latency_ns)`` of the latest samples, oldest first
        self.recent: deque[tuple[int, int]] = deque(maxlen=self.RECENT)

    def record(self, latency_ns: int, at_ns: int = 0) -> None:
        """Add one sample that completed at virtual time ``at_ns``."""
        self.histogram.record(latency_ns)
        self.recent.append((at_ns, latency_ns))

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def p50(self) -> int:
        return self.histogram.p50

    @property
    def p99(self) -> int:
        return self.histogram.p99

    def reset(self) -> None:
        self.histogram.reset()
        self.recent.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HealthTracker({self.name!r}, n={self.count}, "
            f"p50={self.p50}ns, p99={self.p99}ns)"
        )


@dataclass(frozen=True)
class LatencySLO:
    """A p99 latency objective for one class of operation."""

    target_p99_ns: int
    min_samples: int = 8

    def breached(self, tracker: HealthTracker) -> bool:
        if tracker.count < self.min_samples:
            return False
        return tracker.p99 > self.target_p99_ns

    def recent_ratio(self, tracker: HealthTracker, now_ns: int, window_ns: int) -> float:
        """Worst sample of the last ``window_ns`` / target; 0.0 if none.

        Unlike a cumulative p99, one slow sample cannot pin the signal for
        the rest of a run: it stops counting ``window_ns`` after it landed.
        An undersampled tracker reads 0.0 too.
        """
        if tracker.count < self.min_samples:
            return 0.0
        since_ns = now_ns - window_ns
        worst = max(
            (latency for at_ns, latency in tracker.recent if at_ns >= since_ns),
            default=0,
        )
        return worst / self.target_p99_ns


@dataclass(frozen=True)
class EjectionDecision:
    """Outcome of one ejector evaluation round."""

    ejected: tuple[str, ...] = ()
    readmitted: tuple[str, ...] = ()


class OutlierEjector:
    """Statistical outlier ejection with capped fraction and probation.

    Each evaluation compares every candidate's p50 against the median
    of all candidates' p50s.  A candidate whose p50 exceeds
    ``median * OUTLIER_FACTOR`` is an outlier; outliers are ejected
    worst-first until ``MAX_EJECT_FRACTION`` of the pool is out.  An
    ejected target is re-admitted after ``probation_s`` of virtual
    time, with its history cleared so it is judged on fresh samples.
    """

    #: a p50 this many times the pool's median p50 is an outlier
    OUTLIER_FACTOR = 3.0
    #: at most this fraction of the pool is ejected at once
    MAX_EJECT_FRACTION = 0.4

    def __init__(
        self,
        *,
        clock,
        probation_s: float = 0.5,
        min_samples: int = 4,
    ) -> None:
        self.clock = clock
        self.probation_ns = int(probation_s * 1e9)
        self.min_samples = min_samples
        self._ejected: dict[str, int] = {}  # name -> readmit_at_ns
        self.ejections = 0
        self.readmissions = 0

    def is_ejected(self, name: str) -> bool:
        return name in self._ejected

    @property
    def ejected_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._ejected))

    def evaluate(self, trackers: Mapping[str, HealthTracker]) -> EjectionDecision:
        """Run one ejection round over the candidate pool.

        ``trackers`` maps target name -> tracker for *all* targets,
        including currently ejected ones (they are excluded from the
        median but considered for re-admission).
        """
        now = self.clock.now_ns
        readmitted: list[str] = []
        for name, readmit_at in sorted(self._ejected.items()):
            if now >= readmit_at:
                del self._ejected[name]
                tracker = trackers.get(name)
                if tracker is not None:
                    tracker.reset()
                readmitted.append(name)
                self.readmissions += 1

        pool = {
            name: t
            for name, t in trackers.items()
            if name not in self._ejected and t.count >= self.min_samples
        }
        ejected: list[str] = []
        if len(pool) >= 2:
            p50s = sorted(t.p50 for t in pool.values())
            mid = len(p50s) // 2
            if len(p50s) % 2:
                median = float(p50s[mid])
            else:
                median = (p50s[mid - 1] + p50s[mid]) / 2.0
            if median > 0:
                total = len(trackers)
                budget = int(total * self.MAX_EJECT_FRACTION) - len(self._ejected)
                outliers = [
                    (t.p50 / median, name)
                    for name, t in pool.items()
                    if t.p50 > median * self.OUTLIER_FACTOR
                ]
                # Worst offender first; name-ordered tie-break keeps
                # the schedule deterministic across runs.
                outliers.sort(key=lambda pair: (-pair[0], pair[1]))
                for _ratio, name in outliers[: max(0, budget)]:
                    self._ejected[name] = now + self.probation_ns
                    ejected.append(name)
                    self.ejections += 1
        return EjectionDecision(ejected=tuple(ejected), readmitted=tuple(readmitted))


@dataclass(frozen=True)
class BrownoutConfig:
    """Tuning for staged degraded-mode operation.

    The score must stay below :attr:`BrownoutController.EXIT_RATIO` for
    ``min_dwell_s`` of virtual time before the stage drops — the
    hysteresis that prevents flapping.
    """

    min_dwell_s: float = 0.25


class BrownoutController:
    """Hysteretic staged degraded mode driven by named health signals.

    Signals are callables returning a ratio (observed / objective); the
    controller's score is the worst ratio.  Stages:

    * 0 — healthy, no intervention.
    * 1 — brownout: shed priorities below ``SHED_PRIORITY_BELOW`` with
      ``RPC_BUSY``, suspend sanitizer sweeps.
    * 2 — heavy brownout: shed everything but the highest priority.

    Stage *rises* the moment the score crosses ``ENTER_RATIO`` (straight
    to 2 past ``STAGE2_RATIO``); it *falls* only after the score has
    stayed below ``EXIT_RATIO`` for ``min_dwell_s`` — and drops one stage
    at a time.
    """

    #: score (worst signal ratio, 1.0 == exactly at SLO) that enters stage 1
    ENTER_RATIO = 1.0
    #: score the signals must stay under, for the dwell, to leave a stage
    EXIT_RATIO = 0.7
    #: score that promotes straight to stage 2
    STAGE2_RATIO = 3.0
    #: stage 1 sheds the priorities below this one
    SHED_PRIORITY_BELOW = 2

    def __init__(
        self,
        *,
        clock,
        config: BrownoutConfig | None = None,
        server_stats=None,
    ) -> None:
        self.clock = clock
        self.config = config or BrownoutConfig()
        self.stats = server_stats
        self.signals: dict[str, Callable[[], float]] = {}
        self.stage = 0
        self.last_score = 0.0
        self.entries = 0
        self.exits = 0
        self._calm_since_ns: int | None = None
        self._stage_changed_ns = 0

    def add_signal(self, name: str, fn: Callable[[], float]) -> None:
        self.signals[name] = fn

    @property
    def active(self) -> bool:
        return self.stage > 0

    def score(self) -> float:
        worst = 0.0
        for fn in self.signals.values():
            try:
                ratio = float(fn())
            except Exception:
                continue
            if ratio > worst:
                worst = ratio
        return worst

    def update(self) -> int:
        """Re-evaluate signals; returns the (possibly new) stage."""
        now = self.clock.now_ns
        score = self.score()
        self.last_score = score

        target = 0
        if score >= self.STAGE2_RATIO:
            target = 2
        elif score >= self.ENTER_RATIO:
            target = 1

        if target > self.stage:
            if self.stage == 0:
                self.entries += 1
                if self.stats is not None:
                    self.stats.brownout_entries += 1
            self.stage = target
            self._stage_changed_ns = now
            self._calm_since_ns = None
            return self.stage

        if self.stage > 0:
            if score < self.EXIT_RATIO:
                if self._calm_since_ns is None:
                    self._calm_since_ns = now
                calm_ns = now - self._calm_since_ns
                dwell_ns = now - self._stage_changed_ns
                min_ns = int(self.config.min_dwell_s * 1e9)
                if calm_ns >= min_ns and dwell_ns >= min_ns:
                    self.stage -= 1
                    self._stage_changed_ns = now
                    self._calm_since_ns = None
                    if self.stage == 0:
                        self.exits += 1
                        if self.stats is not None:
                            self.stats.brownout_exits += 1
            else:
                self._calm_since_ns = None
        return self.stage

    def shed_stat(self, priority: int) -> int | None:
        """RPC accept-stat to shed with, or None to admit.

        Returns 100 (``RPC_BUSY``) for work the current stage refuses:
        stage 1 sheds priorities below ``SHED_PRIORITY_BELOW``; stage 2
        sheds everything except the top priority class (>= 3).
        """
        if self.stage <= 0:
            return None
        if self.stage == 1 and priority >= self.SHED_PRIORITY_BELOW:
            return None
        if self.stage >= 2 and priority >= 3:
            return None
        return 100  # RPC_BUSY
