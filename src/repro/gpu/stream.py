"""CUDA-style streams and events on virtual time.

Streams order device work; events mark points in a stream's timeline.  The
simulator executes work eagerly (the numerics happen at launch time) but
tracks *completion times* in simulated nanoseconds, so
``cudaEventElapsedTime`` and stream synchronization report meaningful
virtual durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.gpu.errors import InvalidStreamError

#: Handle of the implicit default (NULL) stream.
DEFAULT_STREAM = 0


@dataclass
class Stream:
    """One ordered queue of device work."""

    handle: int
    #: virtual time at which all submitted work completes
    tail_ns: int = 0
    #: number of operations submitted over the stream's lifetime
    ops_submitted: int = 0
    #: outstanding hang verdict from the kernel watchdog ("spin", "budget"
    #: or "fused" -- see :mod:`repro.gpu.watchdog`), or None when healthy.
    #: While set, synchronizing on the stream returns
    #: ``cudaErrorLaunchTimeout`` instead of advancing virtual time.
    hang: str | None = None

    def submit(self, start_ns: int, duration_ns: float) -> int:
        """Queue an operation; returns its completion time.

        Work cannot start before previously queued work completes
        (streams are FIFO) nor before ``start_ns`` (submission time).
        """
        begin = max(start_ns, self.tail_ns)
        self.tail_ns = begin + int(round(duration_ns))
        self.ops_submitted += 1
        return self.tail_ns


@dataclass
class Event:
    """A recorded marker in a stream's timeline."""

    handle: int
    #: completion time of the work preceding the record, or None if unrecorded
    timestamp_ns: int | None = None

    @property
    def recorded(self) -> bool:
        """True once the event has been recorded on a stream."""
        return self.timestamp_ns is not None


class StreamTable:
    """Device-owned registry of streams and events."""

    def __init__(self) -> None:
        self._streams: dict[int, Stream] = {DEFAULT_STREAM: Stream(DEFAULT_STREAM)}
        self._events: dict[int, Event] = {}
        self._next_stream = count(1)
        self._next_event = count(1)

    # -- streams --------------------------------------------------------------

    def create_stream(self) -> int:
        """Create a stream; returns its handle."""
        handle = next(self._next_stream)
        self._streams[handle] = Stream(handle)
        return handle

    def destroy_stream(self, handle: int) -> None:
        """Destroy a stream (the default stream is protected)."""
        if handle == DEFAULT_STREAM:
            raise InvalidStreamError("cannot destroy the default stream")
        if self._streams.pop(handle, None) is None:
            raise InvalidStreamError(f"unknown stream handle {handle}")

    def stream(self, handle: int) -> Stream:
        """Look up a stream by handle."""
        try:
            return self._streams[handle]
        except KeyError:
            raise InvalidStreamError(f"unknown stream handle {handle}") from None

    def streams(self) -> tuple[Stream, ...]:
        """All live streams."""
        return tuple(self._streams.values())

    def device_tail_ns(self) -> int:
        """Completion time of all work on all streams (device sync point)."""
        return max(s.tail_ns for s in self._streams.values())

    def hung_streams(self) -> tuple[Stream, ...]:
        """Streams currently flagged hung by the watchdog."""
        return tuple(s for s in self._streams.values() if s.hang is not None)

    # -- events --------------------------------------------------------------

    def create_event(self) -> int:
        """Create an event; returns its handle."""
        handle = next(self._next_event)
        self._events[handle] = Event(handle)
        return handle

    def destroy_event(self, handle: int) -> None:
        """Destroy an event."""
        if self._events.pop(handle, None) is None:
            raise InvalidStreamError(f"unknown event handle {handle}")

    def event(self, handle: int) -> Event:
        """Look up an event by handle."""
        try:
            return self._events[handle]
        except KeyError:
            raise InvalidStreamError(f"unknown event handle {handle}") from None

    def record_event(self, event_handle: int, stream_handle: int) -> None:
        """Record ``event`` at the current tail of ``stream``."""
        self.event(event_handle).timestamp_ns = self.stream(stream_handle).tail_ns

    def wait_event(self, stream_handle: int, event_handle: int) -> None:
        """Make a stream wait for a recorded event (cudaStreamWaitEvent).

        Subsequent work on the stream cannot start before the event's
        timestamp.  Waiting on an unrecorded event is a no-op, matching
        CUDA semantics.
        """
        event = self.event(event_handle)
        stream = self.stream(stream_handle)
        if event.recorded and event.timestamp_ns > stream.tail_ns:
            stream.tail_ns = event.timestamp_ns

    # -- checkpoint ------------------------------------------------------------

    def capture_state(self) -> dict:
        """Both tables with their virtual-time tails, as plain data: a
        checkpoint's ``streams`` and ``events`` keys."""
        return {
            "streams": {s.handle: (s.tail_ns, s.ops_submitted) for s in self._streams.values()},
            "events": {e.handle: e.timestamp_ns for e in self._events.values()},
        }

    def restore_state(self, state: dict) -> None:
        """Replace both tables with the ones :meth:`capture_state` took
        (``state`` may be a whole server state: only those keys are read).
        Each counter restarts after the largest restored handle."""
        self._streams = {
            handle: Stream(handle, tail_ns, ops)
            for handle, (tail_ns, ops) in state["streams"].items()
        }
        self._next_stream = count(max(state["streams"], default=0) + 1)
        self._events = {
            handle: Event(handle, timestamp) for handle, timestamp in state["events"].items()
        }
        self._next_event = count(max(state["events"], default=0) + 1)

    def elapsed_ms(self, start_handle: int, stop_handle: int) -> float:
        """Milliseconds between two recorded events (cudaEventElapsedTime)."""
        start = self.event(start_handle)
        stop = self.event(stop_handle)
        if not start.recorded or not stop.recorded:
            raise InvalidStreamError("event not recorded")
        return (stop.timestamp_ns - start.timestamp_ns) / 1e6
