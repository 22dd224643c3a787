"""Integration tests: CricketClient against CricketServer (loopback + TCP)."""

import numpy as np
import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.cuda.errors import CudaError
from repro.unikernel import native_rust, rustyhermit

MIB = 1 << 20


@pytest.fixture()
def server():
    from repro.gpu import A100, GpuDevice

    return CricketServer([GpuDevice(A100, mem_bytes=256 * MIB)])


@pytest.fixture()
def client(server):
    c = CricketClient.loopback(server)
    yield c
    c.close()


class TestDeviceManagement:
    def test_device_count(self, client):
        assert client.get_device_count() == 1

    def test_get_set_device(self, client):
        client.set_device(0)
        assert client.get_device() == 0

    def test_set_invalid_device_raises(self, client):
        with pytest.raises(CudaError):
            client.set_device(7)

    def test_properties(self, client):
        props = client.get_device_properties(0)
        assert "A100" in props["name"]
        assert props["multi_processor_count"] == 108

    def test_device_reset(self, client, server):
        client.malloc(4096)
        client.device_reset()
        assert server.device.allocator.used_bytes == 0


class TestMemoryOverRpc:
    def test_malloc_free(self, client):
        ptr = client.malloc(1024)
        assert ptr != 0
        client.free(ptr)

    def test_double_free_surfaces_cuda_error(self, client):
        ptr = client.malloc(64)
        client.free(ptr)
        with pytest.raises(CudaError):
            client.free(ptr)

    def test_memcpy_roundtrip(self, client):
        ptr = client.malloc(4096)
        payload = bytes(range(256)) * 16
        client.memcpy_h2d(ptr, payload)
        assert client.memcpy_d2h(ptr, 4096) == payload

    def test_large_transfer_fragments(self, server):
        client = CricketClient.loopback(server, fragment_size=64 * 1024)
        ptr = client.malloc(8 * MIB)
        payload = np.random.default_rng(0).integers(0, 256, 8 * MIB, dtype=np.uint8).tobytes()
        client.memcpy_h2d(ptr, payload)
        assert client.memcpy_d2h(ptr, 8 * MIB) == payload

    def test_memset(self, client):
        ptr = client.malloc(128)
        client.memset(ptr, 0x3C, 128)
        assert client.memcpy_d2h(ptr, 128) == b"\x3c" * 128

    def test_d2d(self, client):
        a = client.malloc(256)
        b = client.malloc(256)
        client.memcpy_h2d(a, b"q" * 256)
        client.memcpy_d2d(b, a, 256)
        assert client.memcpy_d2h(b, 256) == b"q" * 256

    def test_oom_raises(self, client):
        with pytest.raises(CudaError):
            client.malloc(1 << 40)


class TestStreamsEventsOverRpc:
    def test_stream_lifecycle(self, client):
        stream = client.stream_create()
        client.stream_synchronize(stream)
        client.stream_destroy(stream)
        with pytest.raises(CudaError):
            client.stream_destroy(stream)

    def test_events_measure_gpu_time(self, client, server):
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        fn = client.get_function(module, "vectorAdd", meta)
        n = 1 << 18
        a, b, c = (client.malloc(4 * n) for _ in range(3))
        ev0, ev1 = client.event_create(), client.event_create()
        client.event_record(ev0)
        client.launch_kernel(fn, (n // 256, 1, 1), (256, 1, 1), (a, b, c, n))
        client.event_record(ev1)
        client.event_synchronize(ev1)
        assert client.event_elapsed_ms(ev0, ev1) > 0
        client.event_destroy(ev0)
        client.event_destroy(ev1)


class TestModulesOverRpc:
    def test_full_kernel_flow(self, client, server):
        cubin = build_cubin_for_registry(server.device.registry, ["saxpy"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("saxpy", ("ptr", "ptr", "f32", "i32"))
        fn = client.get_function(module, "saxpy", meta)
        n = 512
        x = client.malloc(4 * n)
        y = client.malloc(4 * n)
        client.memcpy_h2d(x, np.full(n, 2.0, np.float32).tobytes())
        client.memcpy_h2d(y, np.full(n, 1.0, np.float32).tobytes())
        client.launch_kernel(fn, (2, 1, 1), (256, 1, 1), (y, x, 3.0, n))
        client.device_synchronize()
        out = np.frombuffer(client.memcpy_d2h(y, 4 * n), np.float32)
        np.testing.assert_allclose(out, 7.0)
        client.module_unload(module)

    def test_a_negative_count_is_refused_and_writes_nothing(self, client, server):
        """saxpy with n = -5 once rewrote 251 of y's 256 floats: its views
        of 4 * n bytes sliced from the end of the allocations."""
        cubin = build_cubin_for_registry(server.device.registry, ["saxpy"])
        meta = KernelMeta.from_kinds("saxpy", ("ptr", "ptr", "f32", "i32"))
        fn = client.get_function(client.module_load(cubin), "saxpy", meta)
        x, y = client.malloc(1024), client.malloc(1024)
        client.memcpy_h2d(x, np.ones(256, np.float32).tobytes())
        before = np.arange(256, dtype=np.float32).tobytes()
        client.memcpy_h2d(y, before)
        with pytest.raises(CudaError):
            client.launch_kernel(fn, (1, 1, 1), (256, 1, 1), (y, x, 1.0, -5))
        client.device_synchronize()
        assert client.memcpy_d2h(y, 1024) == before

    def test_launch_without_module_meta(self, client):
        with pytest.raises(CudaError):
            client.launch_kernel(999, (1, 1, 1), (1, 1, 1), ())

    def test_bad_cubin_raises(self, client):
        with pytest.raises(CudaError):
            client.module_load(b"garbage bytes here")

    def test_module_load_file(self, client, server, tmp_path):
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        path = tmp_path / "kernels.cubin"
        path.write_bytes(cubin)
        module = client.module_load_file(str(path))
        assert module > 0

    def test_compressed_cubin_over_rpc(self, client, server):
        """Client ships a compressed cubin; server decompresses (paper §3.3)."""
        from repro.cubin import compress

        cubin = build_cubin_for_registry(
            server.device.registry, ["vectorAdd"], compress_text=True
        )
        module = client.module_load(compress(cubin))
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        assert client.get_function(module, "vectorAdd", meta) > 0


class TestCublasCusolverOverRpc:
    def test_sgemm(self, client, server):
        handle = client.cublas_create()
        n = 8
        ident = np.eye(n, dtype=np.float32)
        a = client.malloc(4 * n * n)
        b = client.malloc(4 * n * n)
        c = client.malloc(4 * n * n)
        client.memcpy_h2d(a, ident.tobytes())
        client.memcpy_h2d(b, (2 * ident).tobytes())
        client.cublas_sgemm(
            handle=handle, transa=0, transb=0, m=n, n=n, k=n,
            alpha=1.0, a_ptr=a, lda=n, b_ptr=b, ldb=n, beta=0.0, c_ptr=c, ldc=n,
        )
        out = np.frombuffer(client.memcpy_d2h(c, 4 * n * n), np.float32).reshape(n, n)
        np.testing.assert_allclose(out, 2 * np.eye(n))
        client.cublas_destroy(handle)

    def test_cusolver_lifecycle(self, client):
        handle = client.cusolver_create()
        client.cusolver_destroy(handle)
        with pytest.raises(CudaError):
            client.cusolver_destroy(handle)


class TestVirtualTime:
    def test_metered_client_advances_clock(self, server):
        client = CricketClient.loopback(server, platform=rustyhermit())
        before = server.clock.now_ns
        client.get_device_count()
        assert server.clock.now_ns > before

    def test_hermit_slower_than_native_per_call(self):
        def time_calls(platform):
            server = CricketServer()
            client = CricketClient.loopback(server, platform=platform)
            start = server.clock.now_ns
            for _ in range(100):
                client.get_device_count()
            return server.clock.now_ns - start

        assert time_calls(rustyhermit()) > 2 * time_calls(native_rust())

    def test_call_and_byte_counters(self, server):
        client = CricketClient.loopback(server, platform=native_rust())
        client.get_device_count()
        ptr = client.malloc(1024)
        client.memcpy_h2d(ptr, b"\x00" * 1024)
        assert client.calls_made == 3
        assert client.bytes_transferred > 1024


class TestOverRealTcp:
    def test_cricket_over_tcp(self):
        server = CricketServer()
        host, port = server.serve_tcp("127.0.0.1", 0)
        try:
            client = CricketClient.connect_tcp(host, port)
            assert client.get_device_count() == 1
            ptr = client.malloc(2 * MIB)
            payload = bytes(range(256)) * (2 * MIB // 256)
            client.memcpy_h2d(ptr, payload)
            assert client.memcpy_d2h(ptr, 2 * MIB) == payload
            client.close()
        finally:
            server.shutdown()
