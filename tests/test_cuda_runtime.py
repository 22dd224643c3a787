"""Unit tests for the CUDA runtime API executor."""

import numpy as np
import pytest

from repro.cuda import constants as C
from repro.cuda.runtime import CudaRuntime
from repro.gpu import A100, T4, GpuDevice
from repro.net import SimClock

MIB = 1024 * 1024


@pytest.fixture()
def rt():
    clock = SimClock()
    devices = [GpuDevice(A100, ordinal=0, mem_bytes=64 * MIB)]
    return CudaRuntime(devices, clock)


class TestDeviceManagement:
    def test_get_device_count(self, rt):
        assert rt.cudaGetDeviceCount() == (C.cudaSuccess, 1)

    def test_multi_device(self):
        rt = CudaRuntime(
            [GpuDevice(A100, ordinal=0, mem_bytes=MIB), GpuDevice(T4, ordinal=1, mem_bytes=MIB)]
        )
        assert rt.cudaGetDeviceCount()[1] == 2
        assert rt.cudaSetDevice(1) == C.cudaSuccess
        assert rt.cudaGetDevice() == (C.cudaSuccess, 1)

    def test_set_invalid_device(self, rt):
        assert rt.cudaSetDevice(5) == C.cudaErrorInvalidDevice

    def test_properties(self, rt):
        err, props = rt.cudaGetDeviceProperties(0)
        assert err == C.cudaSuccess
        assert "A100" in props.name
        assert props.multi_processor_count == 108

    def test_properties_invalid(self, rt):
        err, props = rt.cudaGetDeviceProperties(3)
        assert err == C.cudaErrorInvalidDevice
        assert props is None

    def test_empty_device_list_rejected(self):
        with pytest.raises(ValueError):
            CudaRuntime([])

    def test_api_call_counter(self, rt):
        rt.cudaGetDeviceCount()
        rt.cudaGetDevice()
        assert rt.api_call_count == 2


class TestMemory:
    def test_malloc_free(self, rt):
        err, ptr = rt.cudaMalloc(4096)
        assert err == C.cudaSuccess and ptr != 0
        assert rt.cudaFree(ptr) == C.cudaSuccess

    def test_double_free_reports_error_code(self, rt):
        _, ptr = rt.cudaMalloc(64)
        rt.cudaFree(ptr)
        assert rt.cudaFree(ptr) == C.cudaErrorInvalidDevicePointer

    def test_oom_reports_code(self, rt):
        err, ptr = rt.cudaMalloc(1 << 40)
        assert err == C.cudaErrorMemoryAllocation
        assert ptr == 0

    def test_memcpy_h2d_d2h(self, rt):
        payload = bytes(range(256))
        _, ptr = rt.cudaMalloc(256)
        err, _ = rt.cudaMemcpy(ptr, payload, 256, C.cudaMemcpyHostToDevice)
        assert err == C.cudaSuccess
        err, data = rt.cudaMemcpy(0, ptr, 256, C.cudaMemcpyDeviceToHost)
        assert err == C.cudaSuccess
        assert data == payload

    def test_memcpy_advances_clock(self, rt):
        _, ptr = rt.cudaMalloc(MIB)
        before = rt.clock.now_ns
        rt.cudaMemcpy(ptr, b"\x00" * MIB, MIB, C.cudaMemcpyHostToDevice)
        assert rt.clock.now_ns > before

    def test_memcpy_d2d(self, rt):
        _, a = rt.cudaMalloc(64)
        _, b = rt.cudaMalloc(64)
        rt.cudaMemcpy(a, b"y" * 64, 64, C.cudaMemcpyHostToDevice)
        err, _ = rt.cudaMemcpy(b, a, 64, C.cudaMemcpyDeviceToDevice)
        assert err == C.cudaSuccess
        _, out = rt.cudaMemcpy(0, b, 64, C.cudaMemcpyDeviceToHost)
        assert out == b"y" * 64

    def test_memcpy_invalid_direction(self, rt):
        err, _ = rt.cudaMemcpy(1, 2, 4, 9)
        assert err == C.cudaErrorInvalidMemcpyDirection

    def test_memcpy_h2d_wrong_src_type(self, rt):
        _, ptr = rt.cudaMalloc(16)
        err, _ = rt.cudaMemcpy(ptr, 12345, 16, C.cudaMemcpyHostToDevice)
        assert err == C.cudaErrorInvalidValue

    def test_memcpy_short_payload(self, rt):
        _, ptr = rt.cudaMalloc(16)
        err, _ = rt.cudaMemcpy(ptr, b"ab", 16, C.cudaMemcpyHostToDevice)
        assert err == C.cudaErrorInvalidValue

    def test_memcpy_bad_pointer(self, rt):
        err, _ = rt.cudaMemcpy(0, 0xDEAD, 4, C.cudaMemcpyDeviceToHost)
        assert err == C.cudaErrorInvalidDevicePointer

    def test_memset(self, rt):
        _, ptr = rt.cudaMalloc(32)
        assert rt.cudaMemset(ptr, 0x5A, 32) == C.cudaSuccess
        _, data = rt.cudaMemcpy(0, ptr, 32, C.cudaMemcpyDeviceToHost)
        assert data == b"\x5a" * 32


def _float_sources():
    """1 KiB of float32s as every contiguous host buffer a caller may hold."""
    values = np.arange(256, dtype=np.float32)
    return {
        "memoryview": memoryview(values),
        "2-D memoryview": memoryview(values.reshape(16, 16)),
        "ndarray": values,
        "2-D ndarray": values.reshape(16, 16),
    }


class TestH2DTakesAnyContiguousBuffer:
    """``count`` is bytes, whatever the buffer's item size or shape."""

    @pytest.mark.parametrize("name", sorted(_float_sources()))
    def test_sync(self, rt, name):
        _, ptr = rt.cudaMalloc(1024)
        err, _ = rt.cudaMemcpy(ptr, _float_sources()[name], 1024, C.cudaMemcpyHostToDevice)
        assert err == C.cudaSuccess
        _, data = rt.cudaMemcpy(0, ptr, 1024, C.cudaMemcpyDeviceToHost)
        assert data == np.arange(256, dtype=np.float32).tobytes()

    @pytest.mark.parametrize("name", sorted(_float_sources()))
    def test_async(self, rt, name):
        _, ptr = rt.cudaMalloc(1024)
        _, stream = rt.cudaStreamCreate()
        err, _ = rt.cudaMemcpyAsync(
            ptr, _float_sources()[name], 1024, C.cudaMemcpyHostToDevice, stream
        )
        assert err == C.cudaSuccess
        err, data = rt.cudaMemcpyAsync(0, ptr, 1024, C.cudaMemcpyDeviceToHost, stream)
        assert (err, data) == (C.cudaSuccess, np.arange(256, dtype=np.float32).tobytes())

    def test_a_prefix_of_a_longer_buffer(self, rt):
        _, ptr = rt.cudaMalloc(8)
        values = np.arange(4, dtype=np.float32)
        assert rt.cudaMemcpy(ptr, values, 8, C.cudaMemcpyHostToDevice)[0] == C.cudaSuccess
        assert rt.cudaMemcpy(0, ptr, 8, C.cudaMemcpyDeviceToHost)[1] == values[:2].tobytes()

    def test_non_contiguous_and_short_buffers_are_invalid(self, rt):
        _, ptr = rt.cudaMalloc(1024)
        strided = np.arange(512, dtype=np.float32)[::2]
        for src, count in ((strided, 1024), (memoryview(strided), 1024), (np.zeros(4), 64)):
            for err in (
                rt.cudaMemcpy(ptr, src, count, C.cudaMemcpyHostToDevice)[0],
                rt.cudaMemcpyAsync(ptr, src, count, C.cudaMemcpyHostToDevice, 0)[0],
            ):
                assert err == C.cudaErrorInvalidValue


class TestStreamsEvents:
    def test_stream_lifecycle(self, rt):
        err, stream = rt.cudaStreamCreate()
        assert err == C.cudaSuccess and stream > 0
        assert rt.cudaStreamSynchronize(stream) == C.cudaSuccess
        assert rt.cudaStreamDestroy(stream) == C.cudaSuccess
        assert rt.cudaStreamDestroy(stream) == C.cudaErrorInvalidResourceHandle

    def test_event_elapsed_time(self, rt):
        _, ev0 = rt.cudaEventCreate()
        _, ev1 = rt.cudaEventCreate()
        rt.cudaEventRecord(ev0)
        n = 1 << 20
        _, a = rt.cudaMalloc(4 * n)
        _, b = rt.cudaMalloc(4 * n)
        _, c = rt.cudaMalloc(4 * n)
        rt.cudaLaunchKernel("vectorAdd", (n // 256, 1, 1), (256, 1, 1), (a, b, c, n))
        rt.cudaEventRecord(ev1)
        err, ms = rt.cudaEventElapsedTime(ev0, ev1)
        assert err == C.cudaSuccess
        assert ms > 0

    def test_unrecorded_event_sync(self, rt):
        _, ev = rt.cudaEventCreate()
        assert rt.cudaEventSynchronize(ev) == C.cudaErrorInvalidResourceHandle

    def test_event_destroy(self, rt):
        _, ev = rt.cudaEventCreate()
        assert rt.cudaEventDestroy(ev) == C.cudaSuccess
        assert rt.cudaEventDestroy(ev) == C.cudaErrorInvalidResourceHandle


class TestLaunchAndSync:
    def test_launch_and_synchronize_advances_clock(self, rt):
        n = 4096
        _, a = rt.cudaMalloc(4 * n)
        _, b = rt.cudaMalloc(4 * n)
        _, c = rt.cudaMalloc(4 * n)
        assert (
            rt.cudaLaunchKernel("vectorAdd", (16, 1, 1), (256, 1, 1), (a, b, c, n))
            == C.cudaSuccess
        )
        before = rt.clock.now_ns
        assert rt.cudaDeviceSynchronize() == C.cudaSuccess
        assert rt.clock.now_ns > before

    def test_launch_is_async(self, rt):
        before = rt.clock.now_ns
        rt.cudaLaunchKernel("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), ())
        # Launch queues work; clock does not advance until a sync point.
        assert rt.clock.now_ns == before

    def test_launch_unknown_kernel(self, rt):
        assert (
            rt.cudaLaunchKernel("ghost", (1, 1, 1), (1, 1, 1), ())
            == C.cudaErrorInvalidKernelImage
        )

    def test_launch_computes(self, rt):
        n = 128
        host = np.arange(n, dtype=np.float32)
        _, a = rt.cudaMalloc(4 * n)
        _, b = rt.cudaMalloc(4 * n)
        _, c = rt.cudaMalloc(4 * n)
        rt.cudaMemcpy(a, host.tobytes(), 4 * n, C.cudaMemcpyHostToDevice)
        rt.cudaMemcpy(b, host.tobytes(), 4 * n, C.cudaMemcpyHostToDevice)
        rt.cudaLaunchKernel("vectorAdd", (1, 1, 1), (128, 1, 1), (a, b, c, n))
        rt.cudaDeviceSynchronize()
        _, out = rt.cudaMemcpy(0, c, 4 * n, C.cudaMemcpyDeviceToHost)
        np.testing.assert_allclose(np.frombuffer(out, np.float32), 2 * host)

    def test_device_reset(self, rt):
        rt.cudaMalloc(4096)
        assert rt.cudaDeviceReset() == C.cudaSuccess
        assert rt.devices[0].allocator.used_bytes == 0
