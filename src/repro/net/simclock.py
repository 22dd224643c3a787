"""Virtual time for the simulation.

A :class:`SimClock` is a monotonic counter of simulated nanoseconds.  Every
component that would consume real time on the paper's testbed (guest network
stack, virtio device, physical link, Cricket server CPU, GPU engines)
*advances* a SimClock instead.  Wall-clock time never enters any reported
number, so the reproduced figures are exactly repeatable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class SimClock:
    """A thread-safe monotonically advancing virtual clock (nanoseconds)."""

    _now_ns: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds.

        Read without the lock: loading one attribute is atomic, and the
        lock serialises the advances, each of which stores its new time
        in one assignment.
        """
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self.now_ns / 1e9

    def advance_ns(self, delta_ns: float) -> int:
        """Advance by ``delta_ns`` (fractions are rounded); returns new time.

        Negative advances are rejected -- virtual time is monotonic.
        """
        delta = int(round(delta_ns))
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ns} ns")
        with self._lock:
            self._now_ns += delta
            return self._now_ns

    def advance_s(self, delta_s: float) -> int:
        """Advance by ``delta_s`` seconds; returns new time in ns."""
        return self.advance_ns(delta_s * 1e9)

    def advance_to_ns(self, t_ns: int) -> int:
        """Advance to an absolute time, ignoring targets in the past."""
        with self._lock:
            if t_ns > self._now_ns:
                self._now_ns = int(t_ns)
            return self._now_ns

    def reset(self) -> None:
        """Rewind to zero (only meaningful between experiments)."""
        with self._lock:
            self._now_ns = 0


class WallClock:
    """A :class:`SimClock`-compatible clock backed by real time.

    Real-socket clients (no virtual-time metering) use this so that the
    resilience machinery written against the SimClock interface -- retry
    backoff, circuit-breaker open windows, per-call deadlines -- holds in
    *wall* time: :meth:`advance_s` actually sleeps, and :attr:`now_ns` is
    monotonic nanoseconds since construction (matching SimClock's
    starts-at-zero semantics for deadline arithmetic).
    """

    def __init__(self) -> None:
        self._epoch_ns = time.monotonic_ns()

    @property
    def now_ns(self) -> int:
        """Monotonic wall time since construction, in nanoseconds."""
        return time.monotonic_ns() - self._epoch_ns

    @property
    def now_s(self) -> float:
        """Monotonic wall time since construction, in seconds."""
        return self.now_ns / 1e9

    def advance_ns(self, delta_ns: float) -> int:
        """Sleep for ``delta_ns`` of real time; returns the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ns} ns")
        if delta_ns > 0:
            time.sleep(delta_ns / 1e9)
        return self.now_ns

    def advance_s(self, delta_s: float) -> int:
        """Sleep for ``delta_s`` real seconds; returns the new time in ns."""
        return self.advance_ns(delta_s * 1e9)

    def advance_to_ns(self, t_ns: int) -> int:
        """Sleep until the absolute time ``t_ns``, ignoring past targets."""
        remaining = t_ns - self.now_ns
        if remaining > 0:
            time.sleep(remaining / 1e9)
        return self.now_ns

    def reset(self) -> None:
        """Re-zero the epoch (wall time itself cannot rewind)."""
        self._epoch_ns = time.monotonic_ns()


@dataclass
class StopwatchSpan:
    """Result of a :meth:`Stopwatch.measure` context: start/stop/elapsed ns."""

    start_ns: int = 0
    stop_ns: int = 0

    @property
    def elapsed_ns(self) -> int:
        """Nanoseconds between start and stop."""
        return self.stop_ns - self.start_ns

    @property
    def elapsed_s(self) -> float:
        """Seconds between start and stop."""
        return self.elapsed_ns / 1e9


class Stopwatch:
    """Measures spans of virtual time on a :class:`SimClock`.

    This plays the role of the GNU ``time`` command in the paper's
    methodology: it brackets a whole application run.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock

    def measure(self) -> "_SpanContext":
        """Context manager capturing a virtual-time span."""
        return _SpanContext(self.clock)


class _SpanContext:
    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self.span = StopwatchSpan()

    def __enter__(self) -> StopwatchSpan:
        self.span.start_ns = self._clock.now_ns
        return self.span

    def __exit__(self, *exc: object) -> None:
        self.span.stop_ns = self._clock.now_ns
