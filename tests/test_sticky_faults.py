"""Sticky-fault error mapping across every CUDA runtime entry point.

A poisoned context (injected ECC/context fault, or a sticky sanitizer
violation) must surface the same error from *every* state-touching call --
real CUDA sticky semantics -- until ``cudaDeviceReset`` clears it, while
device management and error peeks stay answerable.
"""

import pytest

from repro.cuda import constants as C
from repro.cuda.runtime import CudaRuntime
from repro.gpu import A100, GpuDevice
from repro.gpu.errors import OutOfBoundsError
from repro.net import SimClock

MIB = 1024 * 1024


def make_runtime(sanitizer=False):
    device = GpuDevice(A100, mem_bytes=16 * MIB, sanitizer=sanitizer)
    return CudaRuntime([device], SimClock()), device


def poisoned_runtime(kind="context"):
    """A runtime with resources created *before* the fault lands."""
    rt, device = make_runtime()
    _, ptr = rt.cudaMalloc(256)
    _, stream = rt.cudaStreamCreate()
    _, event = rt.cudaEventCreate()
    rt.cudaEventRecord(event, stream)
    _, event2 = rt.cudaEventCreate()
    rt.cudaEventRecord(event2, stream)
    device.inject_fault(kind)
    return rt, device, ptr, stream, event, event2


FAULT_CODES = {"context": C.cudaErrorIllegalAddress, "ecc": C.cudaErrorECCUncorrectable}


class TestStickyAcrossEntryPoints:
    @pytest.mark.parametrize("kind", ["context", "ecc"])
    def test_every_state_touching_call_reports_the_fault(self, kind):
        rt, device, ptr, stream, event, event2 = poisoned_runtime(kind)
        code = FAULT_CODES[kind]
        calls = [
            lambda: rt.cudaDeviceSynchronize(),
            lambda: rt.cudaMalloc(64)[0],
            lambda: rt.cudaFree(ptr),
            lambda: rt.cudaMemcpy(ptr, b"x" * 64, 64, C.cudaMemcpyHostToDevice)[0],
            lambda: rt.cudaMemcpy(0, ptr, 64, C.cudaMemcpyDeviceToHost)[0],
            lambda: rt.cudaMemcpy(ptr, ptr, 64, C.cudaMemcpyDeviceToDevice)[0],
            lambda: rt.cudaMemset(ptr, 0, 64),
            lambda: rt.cudaMemcpyAsync(
                ptr, b"x" * 64, 64, C.cudaMemcpyHostToDevice, stream
            )[0],
            lambda: rt.cudaStreamCreate()[0],
            lambda: rt.cudaStreamDestroy(stream),
            lambda: rt.cudaStreamSynchronize(stream),
            lambda: rt.cudaStreamWaitEvent(stream, event),
            lambda: rt.cudaEventCreate()[0],
            lambda: rt.cudaEventDestroy(event),
            lambda: rt.cudaEventRecord(event, stream),
            lambda: rt.cudaEventSynchronize(event),
            lambda: rt.cudaEventElapsedTime(event, event2)[0],
            lambda: rt.cudaLaunchKernel(
                "_Z9nopKernelv", (1, 1, 1), (1, 1, 1), ()
            ),
        ]
        for call in calls:
            assert call() == code

    def test_management_and_peek_calls_stay_answerable(self):
        rt, device, *_ = poisoned_runtime("context")
        assert rt.cudaGetDeviceCount() == (C.cudaSuccess, 1)
        assert rt.cudaGetDevice() == (C.cudaSuccess, 0)
        assert rt.cudaGetDeviceProperties(0)[0] == C.cudaSuccess
        assert rt.cudaSetDevice(0) == C.cudaSuccess

    def test_last_error_is_recorded_and_clears_on_read(self):
        rt, *_ = poisoned_runtime("context")
        rt.cudaDeviceSynchronize()
        assert rt.cudaPeekAtLastError() == C.cudaErrorIllegalAddress
        assert rt.cudaGetLastError() == C.cudaErrorIllegalAddress
        assert rt.cudaPeekAtLastError() == C.cudaSuccess

    def test_reset_clears_the_fault_everywhere(self):
        rt, device, *_ = poisoned_runtime("context")
        assert rt.cudaDeviceSynchronize() == C.cudaErrorIllegalAddress
        assert rt.cudaDeviceReset() == C.cudaSuccess
        assert device.healthy
        err, ptr = rt.cudaMalloc(64)
        assert err == C.cudaSuccess
        assert rt.cudaMemset(ptr, 0, 64) == C.cudaSuccess
        assert rt.cudaStreamCreate()[0] == C.cudaSuccess
        assert rt.cudaDeviceSynchronize() == C.cudaSuccess

    def test_sanitizer_violation_is_sticky_across_entry_points(self):
        rt, device = make_runtime(sanitizer=True)
        _, ptr = rt.cudaMalloc(64)
        err, _ = rt.cudaMemcpy(ptr, b"x" * 65, 65, C.cudaMemcpyHostToDevice)
        assert err == C.cudaErrorIllegalAddress
        assert device.fault is not None and device.fault.origin == "sanitizer"
        # the poison is sticky for unrelated calls too
        assert rt.cudaMalloc(64)[0] == C.cudaErrorIllegalAddress
        assert rt.cudaStreamCreate()[0] == C.cudaErrorIllegalAddress
        assert rt.cudaEventCreate()[0] == C.cudaErrorIllegalAddress
        assert rt.cudaDeviceSynchronize() == C.cudaErrorIllegalAddress
        # reset clears it and re-arms detection
        assert rt.cudaDeviceReset() == C.cudaSuccess
        _, ptr = rt.cudaMalloc(64)
        with_device = device.allocator
        assert with_device.sanitizer is not None
        err, _ = rt.cudaMemcpy(ptr, b"x" * 65, 65, C.cudaMemcpyHostToDevice)
        assert err == C.cudaErrorIllegalAddress

    def test_sanitizer_violation_raises_typed_error_at_device_layer(self):
        _, device = make_runtime(sanitizer=True)
        ptr = device.alloc(64)
        with pytest.raises(OutOfBoundsError):
            device.memcpy_h2d(ptr, b"x" * 65)

    def test_fault_faithful_after_failed_entry_points(self):
        # errors recorded via sticky last-error on every path
        rt, device, ptr, stream, event, _ = poisoned_runtime("ecc")
        rt.cudaEventElapsedTime(event, event)
        assert rt.cudaPeekAtLastError() == C.cudaErrorECCUncorrectable
