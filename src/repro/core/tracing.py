"""Per-RPC tracing over virtual time.

The paper reached its §4 conclusions by profiling ("Profiling of the two
implementations showed ...").  This module gives the reproduction the same
capability: when enabled on a session, every RPC is recorded with its
procedure name, virtual start/end time and payload sizes.  Traces render
as a per-procedure summary or export as Chrome trace-event JSON
(``chrome://tracing`` / Perfetto-compatible), where the virtual timeline
can be inspected visually.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from repro.net.simclock import SimClock


@dataclass(frozen=True)
class TraceEvent:
    """One completed RPC."""

    name: str
    start_ns: int
    end_ns: int
    args_bytes: int
    result_bytes: int

    @property
    def duration_ns(self) -> int:
        """Virtual nanoseconds the RPC took."""
        return self.end_ns - self.start_ns


@dataclass
class Tracer:
    """Collects :class:`TraceEvent` records against a virtual clock.

    Besides per-RPC events the tracer carries *counters*: named integers
    set directly with :meth:`count` or pulled live from attached sources
    (any object with an ``as_dict() -> dict[str, int]`` method, e.g.
    :class:`~repro.resilience.stats.ResilienceStats`).  This is how
    retry/reconnect/recovery activity shows up next to the RPC profile.
    """

    clock: SimClock
    events: list[TraceEvent] = field(default_factory=list)
    enabled: bool = True
    counters: dict[str, int] = field(default_factory=dict)
    _counter_sources: list = field(default_factory=list, repr=False)

    def record(
        self, name: str, start_ns: int, end_ns: int, args_bytes: int, result_bytes: int
    ) -> None:
        """Append one event (called by the instrumented RPC client)."""
        if self.enabled:
            self.events.append(
                TraceEvent(name, start_ns, end_ns, args_bytes, result_bytes)
            )

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def attach_counters(self, source) -> None:
        """Merge a live counter source into this tracer's output."""
        self._counter_sources.append(source)

    def counter_snapshot(self) -> dict[str, int]:
        """Current view of all counters, own and attached."""
        merged = dict(self.counters)
        for source in self._counter_sources:
            for name, value in source.as_dict().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    # -- analysis ----------------------------------------------------------

    def total_ns(self) -> int:
        """Virtual time spent inside traced RPCs."""
        return sum(e.duration_ns for e in self.events)

    def by_procedure(self) -> dict[str, tuple[int, int]]:
        """Per-procedure (call count, total ns), sorted by total time."""
        table: dict[str, tuple[int, int]] = {}
        for event in self.events:
            count, total = table.get(event.name, (0, 0))
            table[event.name] = (count + 1, total + event.duration_ns)
        return dict(sorted(table.items(), key=lambda kv: -kv[1][1]))

    def percentiles(self) -> dict[str, dict[str, int]]:
        """Per-procedure ``{"p50"|"p95"|"p99": duration_ns}``.

        Built from the same fixed-bucket streaming histogram the
        gray-failure detector uses (:class:`~repro.resilience.health.
        LatencyHistogram`), so the profile's tail columns and the SLO
        machinery agree on quantile semantics (bucket upper bounds).
        """
        from repro.resilience.health import LatencyHistogram

        table: dict[str, LatencyHistogram] = {}
        for event in self.events:
            table.setdefault(event.name, LatencyHistogram()).record(
                event.duration_ns
            )
        return {
            name: {"p50": h.p50, "p95": h.p95, "p99": h.p99}
            for name, h in table.items()
        }

    def summary(self) -> str:
        """Human-readable profile, hottest procedures first."""
        lines = [
            f"{'procedure':<32} {'calls':>7} {'total [ms]':>11} {'mean [us]':>10}"
            f" {'p50 [us]':>9} {'p95 [us]':>9} {'p99 [us]':>9}"
        ]
        lines.append("-" * len(lines[0]))
        quantiles = self.percentiles()
        for name, (count, total) in self.by_procedure().items():
            q = quantiles[name]
            lines.append(
                f"{name:<32} {count:>7} {total / 1e6:>11.3f} {total / count / 1e3:>10.2f}"
                f" {q['p50'] / 1e3:>9.1f} {q['p95'] / 1e3:>9.1f} {q['p99'] / 1e3:>9.1f}"
            )
        lines.append(
            f"{'TOTAL':<32} {len(self.events):>7} {self.total_ns() / 1e6:>11.3f}"
        )
        counters = {k: v for k, v in self.counter_snapshot().items() if v}
        if counters:
            lines.append("")
            lines.append(f"{'counter':<32} {'value':>7}")
            lines.append("-" * 40)
            for name, value in sorted(counters.items()):
                lines.append(f"{name:<32} {value:>7}")
        return "\n".join(lines)

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event format (load in chrome://tracing or Perfetto)."""
        return {
            "displayTimeUnit": "ns",
            "counters": self.counter_snapshot(),
            "traceEvents": [
                {
                    "name": event.name,
                    "ph": "X",
                    "ts": event.start_ns / 1e3,  # microseconds
                    "dur": event.duration_ns / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "args_bytes": event.args_bytes,
                        "result_bytes": event.result_bytes,
                    },
                }
                for event in self.events
            ],
        }

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


def attach_tracer(
    rpc_client, clock: SimClock, proc_names: Mapping[int, str] | None = None
) -> Tracer:
    """Instrument an :class:`~repro.oncrpc.client.RpcClient` in place.

    Wraps ``call_raw`` so every RPC is recorded against ``clock``; returns
    the tracer.  ``proc_names`` maps procedure numbers to display names
    (derived from the RPCL signatures when available).
    """
    tracer = Tracer(clock)
    names = dict(proc_names or {})
    original = rpc_client.call_raw

    def traced_call_raw(proc: int, args, land=None):
        args_bytes = 0 if callable(args) else len(args)

        def measured(encoder) -> None:
            # ``args`` is a writer packing straight into the record: its
            # size is what it appends (the last attempt's, under retry).
            nonlocal args_bytes
            before = len(encoder)
            args(encoder)
            args_bytes = len(encoder) - before

        start = clock.now_ns
        result = original(proc, measured if callable(args) else args, land)
        tracer.record(
            names.get(proc, f"proc_{proc}"), start, clock.now_ns, args_bytes, len(result)
        )
        return result

    rpc_client.call_raw = traced_call_raw
    return tracer
