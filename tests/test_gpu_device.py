"""Unit tests for the GPU device: kernels, streams, timing, checkpointing."""

import numpy as np
import pytest

from repro.gpu import (
    A100,
    T4,
    DEFAULT_STREAM,
    GpuDevice,
    GpuError,
    KernelParamError,
    UnknownKernelError,
)
from repro.gpu.catalog import by_name
from repro.gpu.errors import InvalidStreamError
from repro.gpu.kernels import KernelCost
from repro.gpu.timing import GpuTimingModel

MIB = 1024 * 1024


@pytest.fixture()
def device():
    return GpuDevice(A100, mem_bytes=64 * MIB)


class TestCatalog:
    def test_lookup(self):
        assert by_name("NVIDIA T4") is T4

    def test_unknown(self):
        with pytest.raises(KeyError):
            by_name("NVIDIA H100")


class TestKernelExecution:
    def test_vector_add(self, device):
        n = 1024
        a = device.alloc(4 * n)
        b = device.alloc(4 * n)
        c = device.alloc(4 * n)
        device.allocator.view(a, 4 * n).view(np.float32)[:] = np.arange(n)
        device.allocator.view(b, 4 * n).view(np.float32)[:] = 1.0
        device.launch("vectorAdd", (4, 1, 1), (256, 1, 1), (a, b, c, n))
        out = device.allocator.view(c, 4 * n).view(np.float32)
        np.testing.assert_allclose(out, np.arange(n) + 1.0)

    def test_matrix_mul_matches_numpy(self, device):
        block = 16
        h, w, k = 32, 48, 64
        rng = np.random.default_rng(1)
        a_host = rng.random((h, k), dtype=np.float32)
        b_host = rng.random((k, w), dtype=np.float32)
        a = device.alloc(a_host.nbytes)
        b = device.alloc(b_host.nbytes)
        c = device.alloc(4 * h * w)
        device.allocator.write(a, a_host.tobytes())
        device.allocator.write(b, b_host.tobytes())
        device.launch(
            "matrixMulCUDA",
            (w // block, h // block, 1),
            (block, block, 1),
            (c, a, b, k, w),
        )
        out = device.allocator.view(c, 4 * h * w).view(np.float32).reshape(h, w)
        np.testing.assert_allclose(out, a_host @ b_host, rtol=1e-5)

    def test_histogram256(self, device):
        rng = np.random.default_rng(2)
        data_host = rng.integers(0, 256, size=100_000, dtype=np.uint8)
        data = device.alloc(data_host.nbytes)
        hist = device.alloc(256 * 4)
        device.allocator.write(data, data_host.tobytes())
        device.launch("histogram256Kernel", (64, 1, 1), (256, 1, 1), (hist, data, data_host.size))
        out = device.allocator.view(hist, 256 * 4).view(np.uint32)
        np.testing.assert_array_equal(out, np.bincount(data_host, minlength=256))

    def test_reduce_sum(self, device):
        n = 4096
        src = device.alloc(4 * n)
        out = device.alloc(8)
        device.allocator.view(src, 4 * n).view(np.float32)[:] = 0.5
        device.launch("reduceSum", (16, 1, 1), (256, 1, 1), (out, src, n))
        total = device.allocator.view(out, 8).view(np.float64)[0]
        assert total == pytest.approx(n * 0.5)

    def test_saxpy(self, device):
        n = 100
        x = device.alloc(4 * n)
        y = device.alloc(4 * n)
        device.allocator.view(x, 4 * n).view(np.float32)[:] = 2.0
        device.allocator.view(y, 4 * n).view(np.float32)[:] = 3.0
        device.launch("saxpy", (1, 1, 1), (128, 1, 1), (y, x, 4.0, n))
        np.testing.assert_allclose(
            device.allocator.view(y, 4 * n).view(np.float32), 11.0
        )

    def test_transpose(self, device):
        w, h = 8, 4
        src_host = np.arange(w * h, dtype=np.float32).reshape(h, w)
        src = device.alloc(src_host.nbytes)
        dst = device.alloc(src_host.nbytes)
        device.allocator.write(src, src_host.tobytes())
        device.launch("transposeCoalesced", (1, 1, 1), (32, 1, 1), (dst, src, w, h))
        out = device.allocator.view(dst, src_host.nbytes).view(np.float32).reshape(w, h)
        np.testing.assert_array_equal(out, src_host.T)

    def test_unknown_kernel(self, device):
        with pytest.raises(UnknownKernelError):
            device.launch("missingKernel", (1, 1, 1), (1, 1, 1), ())

    def test_param_count_checked(self, device):
        with pytest.raises(KernelParamError):
            device.launch("vectorAdd", (1, 1, 1), (32, 1, 1), (1, 2))

    def test_param_type_checked(self, device):
        with pytest.raises(KernelParamError):
            device.launch("vectorAdd", (1, 1, 1), (32, 1, 1), ("a", 0, 0, 4))

    def test_degenerate_geometry(self, device):
        with pytest.raises(GpuError):
            device.launch("_Z9nopKernelv", (0, 1, 1), (1, 1, 1), ())

    @pytest.mark.parametrize(
        "grid, block",
        [((-1, -1, 1), (256, 1, 1)), ((1, 1, 1), (-2, -3, 1)), ((2, -1, -1), (-1, 1, 1))],
    )
    def test_negative_dimensions_are_degenerate_too(self, device, grid, block):
        """Each of the six dimensions is checked, not only their product
        (positive here: two negatives cancel)."""
        with pytest.raises(GpuError, match="degenerate launch geometry"):
            device.launch("_Z9nopKernelv", grid, block, ())
        assert device.launch_count == 0

    def test_negative_dimensions_through_the_runtime(self, device):
        from repro.cuda import constants as C
        from repro.cuda.runtime import CudaRuntime

        runtime = CudaRuntime([device])
        code = runtime.cudaLaunchKernel("_Z9nopKernelv", (-1, -1, 1), (256, 1, 1), ())
        assert code != C.cudaSuccess
        assert device.launch_count == 0

    def test_execute_false_skips_numerics_but_charges_time(self):
        device = GpuDevice(A100, execute=False, mem_bytes=MIB)
        n = 64
        a = device.alloc(4 * n)
        b = device.alloc(4 * n)
        c = device.alloc(4 * n)
        result = device.launch("vectorAdd", (1, 1, 1), (64, 1, 1), (a, b, c, n))
        assert result.duration_ns > 0
        # numerics skipped: c stays zero
        assert not device.allocator.view(c, 4 * n).any()

    def test_launch_count(self, device):
        device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), ())
        device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), ())
        assert device.launch_count == 2


class TestStreamsAndTiming:
    def test_stream_ordering(self, device):
        stream = device.streams.create_stream()
        r1 = device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), (), stream=stream)
        r2 = device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), (), stream=stream)
        assert r2.done_ns >= r1.done_ns + r2.duration_ns

    def test_default_stream_exists(self, device):
        result = device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), ())
        assert result.done_ns > 0

    def test_unknown_stream(self, device):
        with pytest.raises(InvalidStreamError):
            device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), (), stream=99)

    def test_synchronize_covers_all_streams(self, device):
        s1 = device.streams.create_stream()
        device.launch("_Z9nopKernelv", (1, 1, 1), (1, 1, 1), (), stream=s1)
        assert device.synchronize_ns() == device.streams.stream(s1).tail_ns

    def test_event_elapsed(self, device):
        ev0 = device.streams.create_event()
        ev1 = device.streams.create_event()
        device.streams.record_event(ev0, DEFAULT_STREAM)
        device.launch("vectorAdd", (1024, 1, 1), (256, 1, 1), (
            device.alloc(4 * 256 * 1024), device.alloc(4 * 256 * 1024),
            device.alloc(4 * 256 * 1024), 256 * 1024,
        ))
        device.streams.record_event(ev1, DEFAULT_STREAM)
        assert device.streams.elapsed_ms(ev0, ev1) > 0

    def test_timing_roofline(self):
        timing = GpuTimingModel(A100)
        compute_bound = KernelCost(flops=1e12, bytes_read=1e6, bytes_written=1e6)
        memory_bound = KernelCost(flops=1e6, bytes_read=1e12, bytes_written=0)
        assert timing.kernel_time_s(compute_bound) > timing.kernel_time_s(
            KernelCost(flops=1e9)
        )
        assert timing.kernel_time_s(memory_bound) > timing.kernel_time_s(
            KernelCost(bytes_read=1e9)
        )

    def test_fp64_slower_than_fp32(self):
        timing = GpuTimingModel(A100)
        cost = KernelCost(flops=1e12)
        assert timing.kernel_time_s(cost, fp64=True) > timing.kernel_time_s(cost)

    def test_memcpy_time_monotonic(self):
        timing = GpuTimingModel(A100)
        assert timing.memcpy_time_s(MIB) < timing.memcpy_time_s(64 * MIB)
        with pytest.raises(ValueError):
            timing.memcpy_time_s(-1)


class TestMemcpy:
    def test_h2d_d2h_roundtrip(self, device):
        payload = bytes(range(256)) * 4
        ptr = device.alloc(len(payload))
        seconds = device.memcpy_h2d(ptr, payload)
        assert seconds > 0
        data, seconds2 = device.memcpy_d2h(ptr, len(payload))
        assert data == payload
        assert seconds2 > 0

    def test_d2d(self, device):
        a = device.alloc(128)
        b = device.alloc(128)
        device.memcpy_h2d(a, b"x" * 128)
        device.memcpy_d2d(b, a, 128)
        assert device.allocator.read(b, 128) == b"x" * 128

    def test_reset_clears_allocations(self, device):
        device.alloc(1024)
        device.reset()
        assert device.allocator.used_bytes == 0


class TestCheckpoint:
    def test_snapshot_restore_roundtrip(self, device):
        a = device.alloc(512)
        b = device.alloc(2048)
        device.allocator.write(a, bytes(range(256)) * 2)
        device.allocator.write(b, b"\xaa" * 2048)
        blob = device.snapshot()

        target = GpuDevice(A100, mem_bytes=64 * MIB)
        target.restore(blob)
        assert target.allocator.read(a, 512) == bytes(range(256)) * 2
        assert target.allocator.read(b, 2048) == b"\xaa" * 2048

    def test_restore_preserves_addresses_after_fragmentation(self, device):
        ptrs = [device.alloc(1024) for _ in range(4)]
        device.free(ptrs[1])  # leave a hole: replay order != address order
        device.allocator.write(ptrs[2], b"z" * 1024)
        blob = device.snapshot()
        target = GpuDevice(A100, mem_bytes=64 * MIB)
        target.restore(blob)
        assert target.allocator.read(ptrs[2], 1024) == b"z" * 1024
        assert target.allocator.is_live(ptrs[0])
        assert not target.allocator.is_live(ptrs[1])

    def test_restore_wrong_model_rejected(self, device):
        blob = device.snapshot()
        target = GpuDevice(T4)
        with pytest.raises(GpuError):
            target.restore(blob)

    def test_restored_allocator_still_usable(self, device):
        device.alloc(512)
        blob = device.snapshot()
        target = GpuDevice(A100, mem_bytes=64 * MIB)
        target.restore(blob)
        ptr = target.alloc(4096)
        target.allocator.write(ptr, b"k" * 4096)
        assert target.allocator.read(ptr, 4096) == b"k" * 4096
        target.allocator.check_invariants()


class TestNegativeSizes:
    """A negative size once read as a Python negative slice: most of the
    allocation, from the end."""

    @pytest.fixture()
    def buffer(self, device):
        ptr = device.alloc(1024)
        device.allocator.write(ptr, bytes(range(256)) * 4)
        return ptr

    @pytest.mark.parametrize("access", ["view", "read", "pin"])
    def test_every_access_refuses_it(self, device, buffer, access):
        from repro.gpu.errors import InvalidSizeError

        with pytest.raises(InvalidSizeError):
            getattr(device.allocator, access)(buffer, -8)
        assert device.allocator.read(buffer, 1024) == bytes(range(256)) * 4
        assert device.allocator.pinned_spans == 0

    def test_it_maps_to_invalid_value(self):
        from repro.cuda import constants as C
        from repro.cuda.errors import code_for_exception
        from repro.gpu.errors import InvalidSizeError

        assert code_for_exception(InvalidSizeError("x")) == C.cudaErrorInvalidValue

