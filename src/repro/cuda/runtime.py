"""CUDA runtime API executor (the ``cudart`` surface Cricket forwards).

:class:`CudaRuntime` implements the runtime-API subset used by the paper's
proxy applications against a set of simulated devices.  Semantics follow
the C API:

* every call returns a ``cudaError_t`` first (plus out-values),
* memcpy/memset are synchronous -- the experiment clock advances by the
  PCIe/device time before the call returns -- and ``cudaMemcpyAsync`` is
  the same copy queued on a stream (one primitive, :meth:`CudaRuntime.memcpy`),
* kernel launches are asynchronous -- work is queued on a stream and the
  clock only advances at synchronization points,
* errors are sticky per call but never raise into the RPC layer: every
  entry point runs in one call shell (:func:`_api`) that counts the call
  and turns an exception into its CUDA code.

The runtime owns the mapping of handles (streams, events) to device
resources, exactly the state the real Cricket server keeps per context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.cuda import constants as C
from repro.cuda.errors import code_for_exception
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


def _api(*out, sticky: bool = False):
    """The call shell every runtime entry point runs in.

    Each call steps ``api_call_count`` once, and an exception from the body
    becomes its CUDA code (:func:`~repro.cuda.errors.code_for_exception`),
    recorded as the sticky error and returned -- followed by ``out``, the
    out-values a failed call returns, when the call returns a tuple.  With
    ``sticky`` the device's sticky fault answers before the body runs: on a
    poisoned context every stream and event call reports the same fault
    until ``cudaDeviceReset`` -- real CUDA sticky semantics.  Device
    management, property queries and the error peeks stay answerable, as on
    real hardware; memory calls and launches reach the device, which raises
    its fault itself.
    """

    def shell(body):
        @functools.wraps(body)
        def entry(self, *args, **kwargs):
            self.api_call_count += 1
            fault = self.devices[self._current].fault if sticky else None
            if fault is None:
                try:
                    return body(self, *args, **kwargs)
                except Exception as exc:
                    fault = exc
            err = self._record(code_for_exception(fault))
            return (err, *out) if out else err

        return entry

    return shell


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

    # -- error state -----------------------------------------------------------

    @_api()
    def cudaGetLastError(self) -> int:
        """Return and clear the sticky error (cudaGetLastError)."""
        err, self._last_error = self._last_error, C.cudaSuccess
        return err

    @_api()
    def cudaPeekAtLastError(self) -> int:
        """Return the sticky error without clearing it."""
        return self._last_error

    # -- device management ----------------------------------------------------

    @_api(0)
    def cudaGetDeviceCount(self) -> tuple[int, int]:
        """Return (err, device count)."""
        return C.cudaSuccess, len(self.devices)

    @_api()
    def cudaSetDevice(self, ordinal: int) -> int:
        """Select the current device."""
        if not 0 <= ordinal < len(self.devices):
            return C.cudaErrorInvalidDevice
        self._current = ordinal
        return C.cudaSuccess

    @_api(0)
    def cudaGetDevice(self) -> tuple[int, int]:
        """Return (err, current device ordinal)."""
        return C.cudaSuccess, self._current

    @_api(None)
    def cudaGetDeviceProperties(self, ordinal: int) -> tuple[int, DeviceProperties | None]:
        """Return (err, properties) for a device."""
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

    @_api()
    def cudaDeviceSynchronize(self) -> int:
        """Block until all device work completes (advances virtual time).

        A sticky device fault (ECC / corrupted context) surfaces here just
        like in real CUDA: synchronization reports the fault's error code.
        A stream flagged hung by the watchdog reports
        ``cudaErrorLaunchTimeout`` *without* advancing virtual time -- the
        device never reaches its queued tail.
        """
        device = self._device()
        if device.streams.hung_streams():
            return self._record(C.cudaErrorLaunchTimeout)
        self._advance_to(device.synchronize_ns())
        if device.fault is not None:
            return self._record(device.fault.code)
        return C.cudaSuccess

    @_api()
    def cudaDeviceReset(self) -> int:
        """Destroy all device state."""
        self._device().reset()
        return C.cudaSuccess

    # -- memory ------------------------------------------------------------

    #: driver-side bookkeeping cost of an allocation or free -- the reason
    #: Figure 6b sits above the trivial cudaGetDeviceCount of Figure 6a
    ALLOC_BOOKKEEPING_S = 1.0e-6

    @_api(0)
    def cudaMalloc(self, size: int) -> tuple[int, int]:
        """Return (err, device pointer)."""
        self._advance(self.ALLOC_BOOKKEEPING_S)
        return C.cudaSuccess, self._device().alloc(int(size))

    @_api()
    def cudaFree(self, ptr: int) -> int:
        """Free a device pointer."""
        self._advance(self.ALLOC_BOOKKEEPING_S)
        self._device().free(int(ptr))
        return C.cudaSuccess

    @_api(None)
    def memcpy(
        self, dst: int, src: int | Buffer, count: int, kind: int, stream: int | None = None
    ) -> tuple[int, PinnedSpan | None]:
        """The one memcpy: ``(err, span)``, ``span`` the pinned device memory
        a D2H copy reads (None for H2D and D2D).

        For H2D, ``src`` is the host payload, any C-contiguous buffer of at
        least ``count`` bytes; D2H and D2D read the device pointer ``src``.
        With ``stream`` None the copy is synchronous (``cudaMemcpy``):
        default-stream semantics, so it waits for all launched work (a hung
        stream times it out before any data moves) and the clock advances
        by the copy.  With a stream it is ``cudaMemcpyAsync``: queued on
        that stream (an unknown one refuses the copy before any data
        moves), the clock left alone; the data moves eagerly -- stream
        ordering affects only virtual time, which is what the evaluation
        measures.  :meth:`cudaMemcpy` and :meth:`cudaMemcpyAsync` copy a
        D2H span out for in-process callers; the Cricket server sends it as
        it is.
        """
        device = self._device()
        if stream is None:
            if device.streams.hung_streams():
                return self._record(C.cudaErrorLaunchTimeout), None
            self._advance_to(device.synchronize_ns())
        else:
            queue = device.streams.stream(int(stream))
        span = None
        if kind == C.cudaMemcpyHostToDevice:
            payload = _host_bytes(src, count)
            if payload is None:
                return C.cudaErrorInvalidValue, None
            seconds = device.memcpy_h2d(int(dst), payload)
        elif kind == C.cudaMemcpyDeviceToHost or kind == C.cudaMemcpyDeviceToDevice:
            if not isinstance(src, int):
                return C.cudaErrorInvalidValue, None
            if kind == C.cudaMemcpyDeviceToHost:
                span, seconds = device.memcpy_d2h_pinned(int(src), int(count))
            else:
                seconds = device.memcpy_d2d(int(dst), int(src), int(count))
        else:
            return C.cudaErrorInvalidMemcpyDirection, None
        if stream is None:
            self._advance(seconds)
        else:
            queue.submit(self.clock.now_ns, seconds * 1e9)
        return C.cudaSuccess, span

    def cudaMemcpy(
        self, dst: int, src: int | Buffer, count: int, kind: int
    ) -> tuple[int, bytes | None]:
        """Synchronous :meth:`memcpy`; a D2H copy returns its payload.

        This is exactly the shape of Cricket's memcpy RPCs, where host
        memory lives on the client and travels inside the message.
        """
        err, span = self.memcpy(dst, src, count, kind)
        return err, None if span is None else span.take()

    def cudaMemcpyAsync(
        self, dst: int, src: int | Buffer, count: int, kind: int, stream: int
    ) -> tuple[int, bytes | None]:
        """Stream-ordered :meth:`memcpy`; the caller does not wait.

        For D2H the payload is returned immediately, modelling a copy into
        pinned host memory that the application will not touch before
        synchronizing.
        """
        err, span = self.memcpy(dst, src, count, kind, stream)
        return err, None if span is None else span.take()

    @_api()
    def cudaMemset(self, ptr: int, value: int, count: int) -> int:
        """Fill device memory (synchronous)."""
        self._advance(self._device().memset(int(ptr), int(value), int(count)))
        return C.cudaSuccess

    # -- streams and events -------------------------------------------------------

    @_api(0, sticky=True)
    def cudaStreamCreate(self) -> tuple[int, int]:
        """Return (err, stream handle)."""
        return C.cudaSuccess, self._device().streams.create_stream()

    @_api(sticky=True)
    def cudaStreamDestroy(self, handle: int) -> int:
        """Destroy a stream (cudaStreamDestroy)."""
        self._device().streams.destroy_stream(int(handle))
        return C.cudaSuccess

    @_api(sticky=True)
    def cudaStreamSynchronize(self, handle: int) -> int:
        """Wait for one stream's work (advances virtual time).

        A hung stream reports ``cudaErrorLaunchTimeout`` without the clock
        ever reaching the (unreachable) queued tail.
        """
        stream = self._device().streams.stream(int(handle))
        if stream.hang is not None:
            return self._record(C.cudaErrorLaunchTimeout)
        self._advance_to(stream.tail_ns)
        return C.cudaSuccess

    @_api(sticky=True)
    def cudaStreamWaitEvent(self, stream: int, event: int) -> int:
        """Make a stream wait for an event (asynchronous, no clock charge)."""
        self._device().streams.wait_event(int(stream), int(event))
        return C.cudaSuccess

    @_api(0, sticky=True)
    def cudaEventCreate(self) -> tuple[int, int]:
        """Create an event; returns (err, handle)."""
        return C.cudaSuccess, self._device().streams.create_event()

    @_api(sticky=True)
    def cudaEventDestroy(self, handle: int) -> int:
        """Destroy an event."""
        self._device().streams.destroy_event(int(handle))
        return C.cudaSuccess

    @_api(sticky=True)
    def cudaEventRecord(self, event: int, stream: int = DEFAULT_STREAM) -> int:
        """Record an event on a stream."""
        self._device().streams.record_event(int(event), int(stream))
        return C.cudaSuccess

    @_api(sticky=True)
    def cudaEventSynchronize(self, event: int) -> int:
        """Wait for a recorded event (advances virtual time)."""
        ev = self._device().streams.event(int(event))
        if not ev.recorded:
            return self._record(C.cudaErrorInvalidResourceHandle)
        self._advance_to(ev.timestamp_ns)
        return C.cudaSuccess

    @_api(0.0, sticky=True)
    def cudaEventElapsedTime(self, start: int, stop: int) -> tuple[int, float]:
        """Return (err, milliseconds between events)."""
        return C.cudaSuccess, self._device().streams.elapsed_ms(int(start), int(stop))

    # -- launching (runtime-style, by kernel name) ---------------------------------

    @_api()
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
        self._device().launch(
            kernel_name,
            grid,
            block,
            tuple(params),
            shared_mem=shared_mem,
            stream=int(stream),
            submit_ns=self.clock.now_ns,
        )
        return C.cudaSuccess
