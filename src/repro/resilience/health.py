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
    Histogram plus TCP-style smoothed mean/deviation (SRTT/RTTVAR with
    alpha=1/8, beta=1/4).  One tracker per target: endpoint, device,
    replication link, storage backend, dispatch path.

``LatencySLO``
    A p99 target with a minimum sample count; ``breached(tracker)`` is
    the single question every detector asks.

``OutlierEjector``
    Envoy-style statistical ejection: a target whose p50 exceeds the
    median of its peers' p50s by ``outlier_factor`` is ejected, subject
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


def _default_bounds() -> tuple[int, ...]:
    """Log-spaced bucket upper bounds, 1 us .. ~69 s, 4 buckets/decade."""
    bounds: list[int] = []
    value = 1_000  # 1 us in ns
    while value < 100_000_000_000:
        bounds.append(int(value))
        value = value * 10 ** 0.25
    return tuple(bounds)


_BOUNDS = _default_bounds()


class LatencyHistogram:
    """Fixed-bucket latency histogram over nanoseconds.

    Buckets are log-spaced and shared by every user in the tree so that
    quantiles from different subsystems are comparable.  ``quantile``
    returns the upper bound of the bucket holding the q-th sample —
    a deterministic over-estimate, which is the conservative direction
    for SLO checks.
    """

    __slots__ = ("_bounds", "_counts", "count", "total_ns", "max_ns")

    def __init__(self, bounds: tuple[int, ...] = _BOUNDS) -> None:
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError("latency must be non-negative")
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if latency_ns <= self._bounds[mid]:
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
                if i < len(self._bounds):
                    return self._bounds[i]
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

    Combines the histogram (tail quantiles) with TCP SRTT/RTTVAR-style
    smoothing (alpha=1/8, beta=1/4).  ``deviation_score`` is the last
    sample's distance from the smoothed mean in units of the smoothed
    deviation — a cheap "is this sample anomalous" signal.
    """

    __slots__ = ("name", "histogram", "srtt_ns", "rttvar_ns", "last_ns")

    ALPHA = 0.125
    BETA = 0.25

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.histogram = LatencyHistogram()
        self.srtt_ns = 0.0
        self.rttvar_ns = 0.0
        self.last_ns = 0

    def record(self, latency_ns: int) -> None:
        self.histogram.record(latency_ns)
        self.last_ns = latency_ns
        if self.histogram.count == 1:
            self.srtt_ns = float(latency_ns)
            self.rttvar_ns = latency_ns / 2.0
            return
        err = latency_ns - self.srtt_ns
        self.rttvar_ns += self.BETA * (abs(err) - self.rttvar_ns)
        self.srtt_ns += self.ALPHA * err

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def p50(self) -> int:
        return self.histogram.p50

    @property
    def p99(self) -> int:
        return self.histogram.p99

    @property
    def deviation_score(self) -> float:
        """|last - srtt| / rttvar; 0 when too few samples to judge."""
        if self.histogram.count < 2 or self.rttvar_ns <= 0.0:
            return 0.0
        return abs(self.last_ns - self.srtt_ns) / self.rttvar_ns

    def reset(self) -> None:
        self.histogram.reset()
        self.srtt_ns = 0.0
        self.rttvar_ns = 0.0
        self.last_ns = 0

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

    def ratio(self, tracker: HealthTracker) -> float:
        """Observed p99 / target; < 1.0 while healthy or undersampled."""
        if tracker.count < self.min_samples:
            return 0.0
        return tracker.p99 / self.target_p99_ns


@dataclass(frozen=True)
class EjectionDecision:
    """Outcome of one ejector evaluation round."""

    ejected: tuple[str, ...] = ()
    readmitted: tuple[str, ...] = ()


class OutlierEjector:
    """Statistical outlier ejection with capped fraction and probation.

    Each evaluation compares every candidate's p50 against the median
    of all candidates' p50s.  A candidate whose p50 exceeds
    ``median * outlier_factor`` is an outlier; outliers are ejected
    worst-first until ``max_eject_fraction`` of the pool is out.  An
    ejected target is re-admitted after ``probation_s`` of virtual
    time, with its history cleared so it is judged on fresh samples.
    """

    def __init__(
        self,
        *,
        clock,
        outlier_factor: float = 3.0,
        max_eject_fraction: float = 0.4,
        probation_s: float = 0.5,
        min_samples: int = 4,
    ) -> None:
        if outlier_factor <= 1.0:
            raise ValueError("outlier_factor must exceed 1.0")
        if not 0.0 < max_eject_fraction <= 1.0:
            raise ValueError("max_eject_fraction must be in (0, 1]")
        self.clock = clock
        self.outlier_factor = outlier_factor
        self.max_eject_fraction = max_eject_fraction
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
                budget = int(total * self.max_eject_fraction) - len(self._ejected)
                outliers = [
                    (t.p50 / median, name)
                    for name, t in pool.items()
                    if t.p50 > median * self.outlier_factor
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

    ``enter_ratio`` is the health-score threshold (worst signal ratio,
    1.0 == exactly at SLO) above which the stage rises; the score must
    fall below ``exit_ratio`` *and* stay there for ``min_dwell_s`` of
    virtual time before the stage drops — the hysteresis that prevents
    flapping.  ``stage2_ratio`` promotes straight to heavy shedding.
    """

    enter_ratio: float = 1.0
    exit_ratio: float = 0.7
    stage2_ratio: float = 3.0
    min_dwell_s: float = 0.25
    shed_priority_below: int = 2

    def __post_init__(self) -> None:
        if self.exit_ratio >= self.enter_ratio:
            raise ValueError("exit_ratio must sit below enter_ratio (hysteresis)")
        if self.stage2_ratio <= self.enter_ratio:
            raise ValueError("stage2_ratio must exceed enter_ratio")


class BrownoutController:
    """Hysteretic staged degraded mode driven by named health signals.

    Signals are callables returning a ratio (observed / objective); the
    controller's score is the worst ratio.  Stages:

    * 0 — healthy, no intervention.
    * 1 — brownout: shed priorities below ``shed_priority_below`` with
      ``RPC_BUSY``, suspend sanitizer sweeps.
    * 2 — heavy brownout: shed everything but the highest priority.

    Stage *rises* the moment the score crosses a threshold; it *falls*
    only after the score has stayed below ``exit_ratio`` for
    ``min_dwell_s`` — and drops one stage at a time.
    """

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
        cfg = self.config
        now = self.clock.now_ns
        score = self.score()
        self.last_score = score

        target = 0
        if score >= cfg.stage2_ratio:
            target = 2
        elif score >= cfg.enter_ratio:
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
            if score < cfg.exit_ratio:
                if self._calm_since_ns is None:
                    self._calm_since_ns = now
                calm_ns = now - self._calm_since_ns
                dwell_ns = now - self._stage_changed_ns
                min_ns = int(cfg.min_dwell_s * 1e9)
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
        stage 1 sheds priorities below ``shed_priority_below``; stage 2
        sheds everything except the top priority class (>= 3).
        """
        if self.stage <= 0:
            return None
        if self.stage == 1 and priority >= self.config.shed_priority_below:
            return None
        if self.stage >= 2 and priority >= 3:
            return None
        return 100  # RPC_BUSY
