"""Span tracing from outside the program.

All tracing lives in this file.  :class:`Tracer` wraps the callables at
each layer boundary with ``setattr`` (a span per call: name, lane, start,
end, parent, request id, thread), keeps the spans in memory, restores
every original afterwards and writes the spans out at the end.  Timed
runs never import this module, so they execute with nothing patched; the
ratio of the traced run to the timed one is ``trace.overhead_ratio``.

A lane's **self time** is its spans' duration minus the part their child
spans cover.  On the socket workloads the client thread blocks in
``TcpTransport._recv`` while the server thread works; that blocked time
is handed to whatever lane the server thread was in, and only what no
traced span covers (kernel socket path, thread wake-up) stays as
``oncrpc.transport.wait_us_per_op``.  So the lanes plus the wait add up
to the root spans exactly: nothing overlaps in a one-client closed loop.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: the 15 lanes, outermost first
LANES = (
    "app", "resilience.simulation", "cricket.client", "rpcl", "oncrpc.client",
    "oncrpc.message", "resilience", "oncrpc.transport", "oncrpc.record",
    "unikernel", "oncrpc.server", "cricket.server", "cricket.replication",
    "cuda", "gpu",
)
#: pseudo-lane of a thread blocked on its socket
WAIT = "wait"
#: spans written to the trace file (the metrics use every span)
WRITE_SPANS = 5000


def _public_methods(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _boundaries() -> Iterator[tuple[str, Any, list[str]]]:
    """(lane, class or module, attribute names): where the layers meet.

    ``rpcl`` includes ``xdr``, which is too hot to wrap per field.
    """
    from repro.cricket.client import CricketClient
    from repro.cricket.replication import ReplicationLink
    from repro.cricket.server import CricketImplementation
    from repro.cuda.cublas import CublasContext
    from repro.cuda.cufft import CufftContext
    from repro.cuda.cusolver import CusolverContext
    from repro.cuda.driver import CudaDriver
    from repro.cuda.runtime import CudaRuntime
    from repro.gpu.device import GpuDevice
    from repro.gpu.memory import DeviceAllocator
    from repro.oncrpc import record
    from repro.oncrpc.client import RpcClient
    from repro.oncrpc.message import RpcMessage
    from repro.oncrpc.server import RpcServer
    from repro.oncrpc.transport import ChecksummedTransport, LoopbackTransport, TcpTransport
    from repro.resilience.failover import FailoverTransport
    from repro.resilience.faults import FaultInjectingTransport, SlowTransport
    from repro.resilience.overload import OverloadController
    from repro.resilience.reconnect import ReconnectingTransport
    from repro.resilience.simulation import checker, history, nemesis
    from repro.rpcl.compiler import ProcedureSignature
    from repro.unikernel.platform import PlatformMeter

    wire = ["send_record", "recv_record"]
    yield "cricket.client", CricketClient, _public_methods(CricketClient)
    yield "rpcl", ProcedureSignature, [
        "encode_args", "decode_args", "encode_result", "decode_result"]
    yield "oncrpc.client", RpcClient, ["call_raw"]
    yield "oncrpc.message", RpcMessage, ["encode", "decode"]
    yield "oncrpc.record", record, ["encode_record", "append_crc", "verify_crc"]
    yield "oncrpc.record", record.RecordReader, ["read_record"]
    for transport in (TcpTransport, LoopbackTransport, ChecksummedTransport):
        yield "oncrpc.transport", transport, wire
    yield WAIT, TcpTransport, ["_recv"]
    yield WAIT, RpcServer, ["_recv"]
    yield "oncrpc.server", RpcServer, ["dispatch_record"]
    yield "cricket.server", CricketImplementation, [
        name for name in _public_methods(CricketImplementation) if name.startswith("rpc_")]
    for context in (CudaRuntime, CudaDriver, CublasContext, CusolverContext, CufftContext):
        yield "cuda", context, _public_methods(context)
    yield "gpu", GpuDevice, _public_methods(GpuDevice)
    yield "gpu", DeviceAllocator, _public_methods(DeviceAllocator)
    yield "unikernel", PlatformMeter, ["on_send", "on_recv"]
    for transport in (FaultInjectingTransport, SlowTransport, ReconnectingTransport):
        yield "resilience", transport, wire
    yield "resilience", FailoverTransport, [
        name for name in wire if name in vars(FailoverTransport)]
    yield "resilience", OverloadController, ["acquire", "release"]
    yield "cricket.replication", ReplicationLink, [
        "_on_executed", "_apply_pending", "full_sync", "flush"]  # ship / apply
    yield "resilience.simulation", nemesis, ["generate_schedule"]
    yield "resilience.simulation", history.HistoryRecorder, _public_methods(
        history.HistoryRecorder)
    yield "resilience.simulation", checker.HistoryChecker, ["check"]


def _xid_of_record(args: tuple) -> int:
    """First four bytes of the record handed to ``RpcServer.dispatch_record``."""
    return int.from_bytes(args[1][:4], "big")


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        #: [name_id, start_ns, end_ns, parent index or -1, request id or None]
        self.spans: list[list] = []
        self.stack: list[int] = []


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self.lane_of: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: list[_ThreadLog] = []
        #: (owner, attribute, original raw attribute) for every setattr made
        self.patched: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Any] = {}  # id(wrapper) -> original function
        self._roots: dict[tuple, Callable] = {}
        self.main_thread = threading.get_ident()

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = _ThreadLog(threading.get_ident())
        self._local.log = log
        with self._lock:
            self.logs.append(log)
        return log

    def _wrap(self, fn: Callable, name: str, lane: str,
              rid_of: Callable[[tuple], int] | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.lane_of.append(lane)
        local, now, tracer = self._local, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            try:
                log = local.log
            except AttributeError:
                log = tracer._log()
            spans, stack = log.spans, log.stack
            span = [name_id, 0, 0, stack[-1] if stack else -1,
                    rid_of(args) if rid_of is not None else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()

        return traced

    def root(self, name: str, fn: Callable, lane: str = "app") -> Callable:
        """Wrap a root call that is not a patched boundary (an app's ``run``)."""
        key = (name, fn)
        if key not in self._roots:
            self._roots[key] = self._wrap(fn, name, lane)
        return self._roots[key]

    def note_xid(self, xid: int) -> None:
        """``RpcClient.xid_observer``: tag the enclosing API call's span."""
        log = getattr(self._local, "log", None)
        if log is None or not log.stack:
            return
        for index in reversed(log.stack):
            if self.lane_of[log.spans[index][0]] == "cricket.client":
                log.spans[index][4] = xid
                return
        log.spans[log.stack[0]][4] = xid

    def start(self) -> None:
        self.main_thread = threading.get_ident()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary.  Call before the objects under test exist:
        handler tables and readers bind methods when they are built."""
        for lane, owner, names in _boundaries():
            for name in names:
                if inspect.ismodule(owner):
                    self._patch_function(owner, name, lane)
                else:
                    self._patch_method(owner, name, lane)

    def _patch_method(self, cls: type, name: str, lane: str) -> None:
        raw = vars(cls)[name]
        label = f"{cls.__name__}.{name}"
        rid_of = _xid_of_record if name == "dispatch_record" else None
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._wrap(raw.__func__, label, lane))
        else:
            wrapped = self._wrap(raw, label, lane, rid_of)
        setattr(cls, name, wrapped)
        self.patched.append((cls, name, raw))

    def _patch_function(self, module: Any, name: str, lane: str) -> None:
        """Rebind a module-level function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapped = self._wrap(original, name, lane)
        self._wrappers[id(wrapped)] = original
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro") and (
                vars(holder).get(name) is original
            ):
                setattr(holder, name, wrapped)
                self.patched.append((holder, name, original))

    def uninstall(self) -> None:
        """Put every original back (checked by identity in the tests)."""
        self.recording = False
        for owner, name, raw in reversed(self.patched):
            setattr(owner, name, raw)
        # a module first imported while patched copied a wrapper by name
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("repro"):
                for name, value in list(vars(holder).items()):
                    original = self._wrappers.get(id(value))
                    if original is not None:
                        setattr(holder, name, original)

    def restored(self) -> bool:
        return all(vars(owner).get(name) is raw for owner, name, raw in self.patched)

    # -- analysis ------------------------------------------------------------

    def _children(self, log: _ThreadLog) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in log.spans]
        for index, span in enumerate(log.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        return children

    def _self_segments(self, log: _ThreadLog) -> list[tuple[int, int, int]]:
        """(start, end, name_id) pieces of each span no child covers, in time order."""
        children = self._children(log)
        pieces: list[tuple[int, int, int]] = []
        for index, span in enumerate(log.spans):
            cursor = span[1]
            for child in children[index]:
                start = log.spans[child][1]
                if start > cursor:
                    pieces.append((cursor, start, span[0]))
                cursor = log.spans[child][2]
            if span[2] > cursor:
                pieces.append((cursor, span[2], span[0]))
        pieces.sort()
        return pieces

    @functools.cached_property
    def lane_totals(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(self ns by lane incl. WAIT, span count by lane, root ns).

        Time on the blocking path only: the main thread's own self time,
        and, while it waits on its socket, the other threads' self time.
        Read it once recording has stopped.
        """
        self_ns = {lane: 0 for lane in (*LANES, WAIT)}
        calls = {lane: 0 for lane in (*LANES, WAIT)}
        waits: list[tuple[int, int]] = []
        others: list[tuple[int, int, int]] = []
        root_ns = 0
        for log in self.logs:
            for span in log.spans:
                calls[self.lane_of[span[0]]] += 1
            pieces = self._self_segments(log)
            if log.thread != self.main_thread:
                others += [p for p in pieces if self.lane_of[p[2]] != WAIT]
                continue
            root_ns += sum(s[2] - s[1] for s in log.spans if s[3] < 0)
            for start, end, name_id in pieces:
                lane = self.lane_of[name_id]
                if lane == WAIT:
                    waits.append((start, end))
                else:
                    self_ns[lane] += end - start
        others.sort()
        cursor = 0
        for start, end in waits:
            covered = 0
            while cursor < len(others) and others[cursor][1] <= start:
                cursor += 1
            probe = cursor
            while probe < len(others) and others[probe][0] < end:
                o_start, o_end, name_id = others[probe]
                overlap = min(end, o_end) - max(start, o_start)
                if overlap > 0:
                    self_ns[self.lane_of[name_id]] += overlap
                    covered += overlap
                probe += 1
            self_ns[WAIT] += (end - start) - covered
        return self_ns, calls, root_ns

    def tree_check(self) -> dict[str, int | float]:
        """Well-formedness: children inside parents; lanes add up to roots."""
        malformed = 0
        spans = 0
        for log in self.logs:
            for span in log.spans:
                spans += 1
                if span[2] < span[1]:
                    malformed += 1
                elif span[3] >= 0:
                    parent = log.spans[span[3]]
                    if span[1] < parent[1] or span[2] > parent[2]:
                        malformed += 1
        self_ns, _, root_ns = self.lane_totals
        return {
            "spans": spans,
            "malformed": malformed,
            "root_us": root_ns / 1e3,
            "lanes_us": sum(self_ns.values()) / 1e3,
            "restored": self.restored(),
        }

    # -- output --------------------------------------------------------------

    def _request_ids(self, log: _ThreadLog) -> list[int | None]:
        """Spread request ids: down from a tagged span, up to an API call,
        and sideways to a server thread's framing spans around a dispatch."""
        rids = [span[4] for span in log.spans]
        for index in range(len(rids) - 1, -1, -1):  # up: first tagged child
            parent = log.spans[index][3]
            if rids[index] is not None and parent >= 0 and log.spans[parent][3] >= 0:
                if rids[parent] is None:
                    rids[parent] = rids[index]
        for index, span in enumerate(log.spans):  # down
            if rids[index] is None and span[3] >= 0:
                rids[index] = rids[span[3]]
        if log.thread != self.main_thread:
            tops = [i for i, span in enumerate(log.spans) if span[3] < 0]
            for position, index in enumerate(tops):
                if rids[index] is not None:
                    continue
                reading = self.names[log.spans[index][0]].endswith("read_record")
                near = tops[position + 1:] if reading else reversed(tops[:position])
                rids[index] = next((rids[i] for i in near if rids[i] is not None), None)
            for index, span in enumerate(log.spans):
                if rids[index] is None and span[3] >= 0:
                    rids[index] = rids[span[3]]
        return rids

    def write(self, path: Path) -> None:
        """The first ``WRITE_SPANS`` spans by start time, all threads."""
        starts = sorted(span[1] for log in self.logs for span in log.spans)
        if not starts:
            path.write_text(json.dumps({"spans": []}) + "\n")
            return
        origin, horizon = starts[0], starts[min(len(starts), WRITE_SPANS) - 1]
        lanes = [*LANES, WAIT]
        rows = []
        for thread, log in enumerate(self.logs):
            rids = self._request_ids(log)
            index_of: dict[int, int] = {}
            for index, span in enumerate(log.spans):
                if span[1] > horizon:
                    break  # spans are logged in start order
                index_of[index] = len(rows)
                rows.append([
                    span[0], lanes.index(self.lane_of[span[0]]), span[1] - origin,
                    span[2] - origin, index_of.get(span[3], -1), rids[index], thread,
                ])
        path.write_text(json.dumps({
            "columns": ["name", "lane", "start_ns", "end_ns", "parent", "request_id", "thread"],
            "names": self.names,
            "lanes": lanes,
            "spans_written": len(rows),
            "spans_traced": len(starts),
            "spans": rows,
        }, separators=(",", ":")) + "\n")


def lane_metrics(tracer: Tracer, *, ops: int) -> dict[str, float]:
    """``<lane>.self_us_per_op`` / ``.calls_per_op`` and the socket wait."""
    self_ns, calls, _ = tracer.lane_totals
    metrics: dict[str, float] = {}
    for lane in LANES:
        metrics[f"{lane}.self_us_per_op"] = self_ns[lane] / 1e3 / ops
        metrics[f"{lane}.calls_per_op"] = calls[lane] / ops
    metrics["oncrpc.transport.wait_us_per_op"] = self_ns[WAIT] / 1e3 / ops
    return metrics
