"""CUDA runtime API executor (the ``cudart`` surface Cricket forwards).

:class:`CudaRuntime` implements the runtime-API subset used by the paper's
proxy applications against a set of simulated devices.  Semantics follow
the C API:

* every call returns a ``cudaError_t`` first (plus out-values),
* memcpy/memset are synchronous -- the experiment clock advances by the
  PCIe/device time before the call returns,
* kernel launches are asynchronous -- work is queued on a stream and the
  clock only advances at synchronization points,
* errors are sticky per call but never raise into the RPC layer.

The runtime owns the mapping of handles (streams, events) to device
resources, exactly the state the real Cricket server keeps per context.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cuda import constants as C
from repro.cuda.errors import CudaError, code_for_exception
from repro.gpu.device import GpuDevice
from repro.gpu.memory import PinnedSpan
from repro.gpu.stream import DEFAULT_STREAM
from repro.net.simclock import SimClock
from repro.xdr.encoder import Buffer, flat_view


def _host_bytes(src: object, count: int) -> memoryview | None:
    """The first ``count`` bytes of the host buffer ``src``, as a flat view
    (the device write is the copy); None unless ``src`` is a C-contiguous
    buffer holding at least ``count`` bytes."""
    try:
        view = memoryview(src)
    except TypeError:
        return None
    if not view.c_contiguous:
        return None
    payload = flat_view(view)[:count]
    return payload if len(payload) == count else None


@dataclass(frozen=True)
class DeviceProperties:
    """Subset of ``cudaDeviceProp`` fields used by the samples."""

    name: str
    total_global_mem: int
    multi_processor_count: int
    clock_rate_khz: int
    memory_bus_bandwidth_Bps: float


class CudaRuntime:
    """Runtime-API executor over one or more simulated GPUs."""

    def __init__(self, devices: list[GpuDevice], clock: SimClock | None = None) -> None:
        if not devices:
            raise ValueError("CudaRuntime needs at least one device")
        self.devices = list(devices)
        self.clock = clock if clock is not None else SimClock()
        self._current = 0
        #: total number of runtime API invocations (paper counts these)
        self.api_call_count = 0
        #: cumulative virtual time this runtime charged (PCIe copies, GPU
        #: waits, allocator bookkeeping), nanoseconds -- used for the cost
        #: attribution analysis
        self.time_charged_ns = 0
        #: sticky error for cudaGetLastError/cudaPeekAtLastError semantics
        self._last_error = C.cudaSuccess

    # -- plumbing ----------------------------------------------------------

    def _device(self) -> GpuDevice:
        return self.devices[self._current]

    def _count(self) -> None:
        self.api_call_count += 1

    def _advance(self, seconds: float) -> None:
        self.clock.advance_s(seconds)
        self.time_charged_ns += int(seconds * 1e9)

    def _advance_to(self, t_ns: int) -> None:
        before = self.clock.now_ns
        after = self.clock.advance_to_ns(t_ns)
        self.time_charged_ns += after - before

    def _record(self, err: int) -> int:
        """Record a sticky error (CUDA last-error semantics) and pass it on."""
        if err != C.cudaSuccess:
            self._last_error = err
        return err

    def _fault_code(self) -> int:
        """The current device's sticky fault code, or ``cudaSuccess``.

        Entry points that touch device state (streams, events, memory,
        launches) check this first: on a poisoned context *every* such
        call reports the same fault until ``cudaDeviceReset`` -- real CUDA
        sticky semantics.  Device management, property queries and the
        error peeks stay answerable, as on real hardware.
        """
        fault = self._device().fault
        return fault.code if fault is not None else C.cudaSuccess

    # -- error state -----------------------------------------------------------

    def cudaGetLastError(self) -> int:
        """Return and clear the sticky error (cudaGetLastError)."""
        self._count()
        err, self._last_error = self._last_error, C.cudaSuccess
        return err

    def cudaPeekAtLastError(self) -> int:
        """Return the sticky error without clearing it."""
        self._count()
        return self._last_error

    # -- device management ----------------------------------------------------

    def cudaGetDeviceCount(self) -> tuple[int, int]:
        """Return (err, device count)."""
        self._count()
        return C.cudaSuccess, len(self.devices)

    def cudaSetDevice(self, ordinal: int) -> int:
        """Select the current device."""
        self._count()
        if not 0 <= ordinal < len(self.devices):
            return C.cudaErrorInvalidDevice
        self._current = ordinal
        return C.cudaSuccess

    def cudaGetDevice(self) -> tuple[int, int]:
        """Return (err, current device ordinal)."""
        self._count()
        return C.cudaSuccess, self._current

    def cudaGetDeviceProperties(self, ordinal: int) -> tuple[int, DeviceProperties | None]:
        """Return (err, properties) for a device."""
        self._count()
        if not 0 <= ordinal < len(self.devices):
            return C.cudaErrorInvalidDevice, None
        spec = self.devices[ordinal].spec
        props = DeviceProperties(
            name=spec.name,
            total_global_mem=spec.mem_bytes,
            multi_processor_count=spec.sm_count,
            clock_rate_khz=1_410_000,
            memory_bus_bandwidth_Bps=spec.mem_bandwidth_Bps,
        )
        return C.cudaSuccess, props

    def cudaDeviceSynchronize(self) -> int:
        """Block until all device work completes (advances virtual time).

        A sticky device fault (ECC / corrupted context) surfaces here just
        like in real CUDA: synchronization reports the fault's error code.
        A stream flagged hung by the watchdog reports
        ``cudaErrorLaunchTimeout`` *without* advancing virtual time -- the
        device never reaches its queued tail.
        """
        self._count()
        device = self._device()
        if device.streams.hung_streams():
            return self._record(C.cudaErrorLaunchTimeout)
        self._advance_to(device.synchronize_ns())
        if device.fault is not None:
            return self._record(device.fault.code)
        return C.cudaSuccess

    def cudaDeviceReset(self) -> int:
        """Destroy all device state."""
        self._count()
        self._device().reset()
        return C.cudaSuccess

    # -- memory ------------------------------------------------------------

    #: driver-side bookkeeping cost of an allocation or free -- the reason
    #: Figure 6b sits above the trivial cudaGetDeviceCount of Figure 6a
    ALLOC_BOOKKEEPING_S = 1.0e-6

    def cudaMalloc(self, size: int) -> tuple[int, int]:
        """Return (err, device pointer)."""
        self._count()
        self._advance(self.ALLOC_BOOKKEEPING_S)
        try:
            return C.cudaSuccess, self._device().alloc(int(size))
        except Exception as exc:
            return self._record(code_for_exception(exc)), 0

    def cudaFree(self, ptr: int) -> int:
        """Free a device pointer."""
        self._count()
        self._advance(self.ALLOC_BOOKKEEPING_S)
        try:
            self._device().free(int(ptr))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def memcpy_d2h_pinned(
        self, src: int, count: int, stream: int | None = None
    ) -> tuple[int, PinnedSpan | None]:
        """The one device-to-host copy: ``(err, span)``, ``span`` pinned device memory.

        With ``stream`` None it is ``cudaMemcpy``: default-stream semantics,
        so the copy waits for all launched work (a hung stream times it out
        before any data moves) and the clock advances by the copy.  With a
        stream it is ``cudaMemcpyAsync``: queued on that stream, the clock
        left alone.  Every check -- sticky fault, hung stream, bounds and
        sanitizer -- and every charge -- the API call, virtual time -- is
        made here, once, before the span exists.  :meth:`cudaMemcpy` and
        :meth:`cudaMemcpyAsync` copy the span out for in-process callers;
        the Cricket server sends it as it is.
        """
        self._count()
        device = self._device()
        if stream is None:
            if device.streams.hung_streams():
                return self._record(C.cudaErrorLaunchTimeout), None
            self._advance_to(device.synchronize_ns())
        try:
            submit_ns = self.clock.now_ns
            if not isinstance(src, int):
                return C.cudaErrorInvalidValue, None
            span, seconds = device.memcpy_d2h_pinned(int(src), int(count))
            if stream is None:
                self._advance(seconds)
            else:
                device.streams.stream(int(stream)).submit(submit_ns, seconds * 1e9)
            return C.cudaSuccess, span
        except Exception as exc:
            return self._record(code_for_exception(exc)), None

    def cudaMemcpy(
        self, dst: int, src: int | Buffer, count: int, kind: int
    ) -> tuple[int, bytes | None]:
        """Synchronous memcpy.

        For H2D, ``src`` is the host payload, any C-contiguous buffer; for
        D2H the return carries the payload.  D2D copies between device
        pointers.  This is exactly the shape of Cricket's memcpy RPCs, where
        host memory lives on the client and travels inside the message.
        """
        if kind == C.cudaMemcpyDeviceToHost:
            err, span = self.memcpy_d2h_pinned(src, count)
            return err, None if span is None else span.take()
        self._count()
        device = self._device()
        # Default-stream semantics: a synchronous memcpy waits for all
        # previously launched work before the copy begins -- so a hung
        # stream times the copy out before any data moves.
        if device.streams.hung_streams():
            return self._record(C.cudaErrorLaunchTimeout), None
        self._advance_to(device.synchronize_ns())
        try:
            if kind == C.cudaMemcpyHostToDevice:
                payload = _host_bytes(src, count)
                if payload is None:
                    return C.cudaErrorInvalidValue, None
                self._advance(device.memcpy_h2d(int(dst), payload))
                return C.cudaSuccess, None
            if kind == C.cudaMemcpyDeviceToDevice:
                if not isinstance(src, int):
                    return C.cudaErrorInvalidValue, None
                self._advance(device.memcpy_d2d(int(dst), int(src), int(count)))
                return C.cudaSuccess, None
            return C.cudaErrorInvalidMemcpyDirection, None
        except Exception as exc:
            return self._record(code_for_exception(exc)), None

    def cudaMemset(self, ptr: int, value: int, count: int) -> int:
        """Fill device memory (synchronous)."""
        self._count()
        try:
            self._advance(self._device().memset(int(ptr), int(value), int(count)))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    # -- streams and events -------------------------------------------------------

    def cudaStreamCreate(self) -> tuple[int, int]:
        """Return (err, stream handle)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault), 0
        return C.cudaSuccess, self._device().streams.create_stream()

    def cudaStreamDestroy(self, handle: int) -> int:
        """Destroy a stream (cudaStreamDestroy)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            self._device().streams.destroy_stream(int(handle))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaStreamSynchronize(self, handle: int) -> int:
        """Wait for one stream's work (advances virtual time).

        A hung stream reports ``cudaErrorLaunchTimeout`` without the clock
        ever reaching the (unreachable) queued tail.
        """
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            stream = self._device().streams.stream(int(handle))
            if stream.hang is not None:
                return self._record(C.cudaErrorLaunchTimeout)
            self._advance_to(stream.tail_ns)
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaStreamWaitEvent(self, stream: int, event: int) -> int:
        """Make a stream wait for an event (asynchronous, no clock charge)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            self._device().streams.wait_event(int(stream), int(event))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaEventCreate(self) -> tuple[int, int]:
        """Create an event; returns (err, handle)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault), 0
        return C.cudaSuccess, self._device().streams.create_event()

    def cudaEventDestroy(self, handle: int) -> int:
        """Destroy an event."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            self._device().streams.destroy_event(int(handle))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaEventRecord(self, event: int, stream: int = DEFAULT_STREAM) -> int:
        """Record an event on a stream."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            self._device().streams.record_event(int(event), int(stream))
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaEventSynchronize(self, event: int) -> int:
        """Wait for a recorded event (advances virtual time)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault)
        try:
            ev = self._device().streams.event(int(event))
            if not ev.recorded:
                return self._record(C.cudaErrorInvalidResourceHandle)
            self._advance_to(ev.timestamp_ns)
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def cudaEventElapsedTime(self, start: int, stop: int) -> tuple[int, float]:
        """Return (err, milliseconds between events)."""
        self._count()
        fault = self._fault_code()
        if fault:
            return self._record(fault), 0.0
        try:
            return C.cudaSuccess, self._device().streams.elapsed_ms(int(start), int(stop))
        except Exception as exc:
            return self._record(code_for_exception(exc)), 0.0

    # -- asynchronous memcpy ------------------------------------------------------

    def cudaMemcpyAsync(
        self, dst: int, src: int | Buffer, count: int, kind: int, stream: int
    ) -> tuple[int, bytes | None]:
        """Stream-ordered memcpy: the copy is queued on ``stream`` and the
        caller does not wait (the clock is not advanced).

        Numerically the data moves eagerly -- stream ordering affects only
        virtual time, which is what the evaluation measures.  For D2H the
        payload is returned immediately, modelling a copy into pinned host
        memory that the application will not touch before synchronizing.
        """
        if kind == C.cudaMemcpyDeviceToHost:
            err, span = self.memcpy_d2h_pinned(src, count, stream)
            return err, None if span is None else span.take()
        self._count()
        device = self._device()
        try:
            submit_ns = self.clock.now_ns
            if kind == C.cudaMemcpyHostToDevice:
                payload = _host_bytes(src, count)
                if payload is None:
                    return C.cudaErrorInvalidValue, None
                seconds = device.memcpy_h2d(int(dst), payload)
                device.streams.stream(int(stream)).submit(submit_ns, seconds * 1e9)
                return C.cudaSuccess, None
            if kind == C.cudaMemcpyDeviceToDevice:
                if not isinstance(src, int):
                    return C.cudaErrorInvalidValue, None
                seconds = device.memcpy_d2d(int(dst), int(src), int(count))
                device.streams.stream(int(stream)).submit(submit_ns, seconds * 1e9)
                return C.cudaSuccess, None
            return C.cudaErrorInvalidMemcpyDirection, None
        except Exception as exc:
            return self._record(code_for_exception(exc)), None

    # -- launching (runtime-style, by kernel name) ---------------------------------

    def cudaLaunchKernel(
        self,
        kernel_name: str,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: tuple,
        shared_mem: int = 0,
        stream: int = DEFAULT_STREAM,
    ) -> int:
        """Queue a kernel launch on a stream (asynchronous)."""
        self._count()
        device = self._device()
        try:
            device.launch(
                kernel_name,
                grid,
                block,
                tuple(params),
                shared_mem=shared_mem,
                stream=int(stream),
                submit_ns=self.clock.now_ns,
            )
            return C.cudaSuccess
        except Exception as exc:
            return self._record(code_for_exception(exc))

    def raise_on_error(self, code: int, what: str = "") -> None:
        """Convenience for tests/examples: raise if ``code`` is an error."""
        if code != C.cudaSuccess:
            raise CudaError(code, what)
