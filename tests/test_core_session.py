"""Unit and integration tests for the core public API (GpuSession)."""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    DoubleFreeClientError,
    GpuSession,
    SessionConfig,
    UseAfterFreeError,
)
from repro.unikernel import linux_vm, native_rust, rustyhermit

MIB = 1 << 20


@pytest.fixture()
def session():
    with GpuSession(SessionConfig(device_mem_bytes=128 * MIB)) as s:
        yield s


class TestSessionBasics:
    def test_default_config_is_native_rust(self, session):
        assert session.config.platform.name == "Rust"
        assert session.client.get_device_count() == 1

    def test_platform_selection(self):
        with GpuSession(SessionConfig(platform=rustyhermit(), device_mem_bytes=MIB)) as s:
            assert s.config.platform.os_name == "Hermit"
            s.client.get_device_count()
            assert s.clock.now_ns > 0

    def test_api_call_counter(self, session):
        session.client.get_device_count()
        session.client.get_device_count()
        assert session.api_calls == 2

    def test_measure_spans_virtual_time(self, session):
        with session.measure() as span:
            session.client.get_device_count()
        assert span.elapsed_ns > 0

    def test_charge_host_cpu(self, session):
        before = session.clock.now_ns
        session.charge_host_cpu(1e-3)
        assert session.clock.now_ns - before == pytest.approx(1e6)
        with pytest.raises(ValueError):
            session.charge_host_cpu(-1)

    def test_generate_input_uses_language_rate(self):
        from repro.unikernel import native_c

        times = {}
        for platform in (native_c(), native_rust()):
            with GpuSession(SessionConfig(platform=platform, device_mem_bytes=MIB)) as s:
                before = s.clock.now_ns
                s.generate_input(64 * MIB)
                times[platform.language.name] = s.clock.now_ns - before
        assert times["C"] > 3 * times["Rust"]


class TestClose:
    def test_a_closed_session_frees_its_server_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            session = GpuSession(SessionConfig(platform=rustyhermit(), device_mem_bytes=MIB))
            session.upload(b"x" * 1024)
            session.load_builtin_module(["vectorAdd"])
            session.close()
            server = weakref.ref(session.server)
            del session
            assert server() is None
        finally:
            gc.enable()

    def test_a_closed_session_frees_its_client_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            session = GpuSession(SessionConfig(platform=rustyhermit(), device_mem_bytes=MIB))
            session.upload(b"x" * 1024)
            session.close()
            rpc = session.client.stub.client
            held = [weakref.ref(o) for o in (session.client, rpc, rpc.transport)]
            del session, rpc
            assert [ref() for ref in held] == [None, None, None]
        finally:
            gc.enable()

    def test_the_counters_stay_readable_after_close(self):
        with GpuSession(SessionConfig(platform=rustyhermit(), device_mem_bytes=MIB)) as s:
            s.upload(b"x" * 1024)
        assert s.server.dispatch_time_charged_ns > 0
        assert s.server.runtime.time_charged_ns > 0
        assert s.server.server_stats.reply_cache_bytes > 0

    def test_a_server_passed_in_outlives_the_session(self):
        server = GpuSession(SessionConfig(device_mem_bytes=MIB)).server
        with GpuSession(server=server) as s:
            s.client.get_device_count()
        with GpuSession(server=server) as s:
            assert s.client.get_device_count() == 1


class TestDeviceBufferLifetimes:
    def test_alloc_write_read(self, session):
        buffer = session.alloc(1024)
        buffer.write(b"\xab" * 1024)
        assert buffer.read() == b"\xab" * 1024
        buffer.free()

    def test_upload_helper(self, session):
        data = np.arange(100, dtype=np.float32)
        buffer = session.upload(data)
        np.testing.assert_array_equal(buffer.read_array(np.float32), data)

    def test_use_after_free(self, session):
        buffer = session.alloc(64)
        buffer.free()
        with pytest.raises(UseAfterFreeError):
            buffer.read()
        with pytest.raises(UseAfterFreeError):
            buffer.write(b"x" * 64)
        with pytest.raises(UseAfterFreeError):
            _ = buffer.ptr

    def test_double_free(self, session):
        buffer = session.alloc(64)
        buffer.free()
        with pytest.raises(DoubleFreeClientError):
            buffer.free()

    def test_lifetime_errors_raised_client_side(self, session):
        """No RPC reaches the server for a lifetime violation."""
        buffer = session.alloc(64)
        buffer.free()
        calls = session.api_calls
        with pytest.raises(UseAfterFreeError):
            buffer.read()
        assert session.api_calls == calls

    def test_context_manager_frees(self, session):
        with session.alloc(64) as buffer:
            buffer.write(b"y" * 64)
        assert buffer.freed

    def test_context_manager_no_double_free_after_explicit(self, session):
        with session.alloc(64) as buffer:
            buffer.free()
        assert buffer.freed

    def test_offset_bounds_checked(self, session):
        buffer = session.alloc(100)
        with pytest.raises(ValueError):
            buffer.write(b"x" * 50, offset=60)
        with pytest.raises(ValueError):
            buffer.read(50, offset=60)

    def test_fill_and_copy_to(self, session):
        a = session.alloc(256)
        b = session.alloc(256)
        a.fill(0x5A)
        a.copy_to(b)
        assert b.read() == b"\x5a" * 256

    def test_size_readable_after_free(self, session):
        buffer = session.alloc(128)
        buffer.free()
        assert buffer.size == 128
        assert buffer.freed


class TestModules:
    def test_builtin_module_flow(self, session):
        module = session.load_builtin_module(["vectorAdd", "saxpy"])
        assert set(module.kernel_names()) == {"vectorAdd", "saxpy"}
        kernel = module.function("vectorAdd")
        n = 128
        a = session.upload(np.full(n, 2.0, np.float32))
        b = session.upload(np.full(n, 5.0, np.float32))
        c = session.alloc(4 * n)
        kernel.launch((1, 1, 1), (128, 1, 1), a, b, c, n)
        session.synchronize()
        np.testing.assert_allclose(c.read_array(np.float32), 7.0)

    def test_function_cache(self, session):
        module = session.load_builtin_module(["vectorAdd"])
        assert module.function("vectorAdd") is module.function("vectorAdd")

    def test_missing_kernel(self, session):
        module = session.load_builtin_module(["vectorAdd"])
        with pytest.raises(KeyError):
            module.function("nope")

    def test_unload(self, session):
        module = session.load_builtin_module(["vectorAdd"])
        module.unload()
        from repro.cuda.errors import CudaError

        with pytest.raises(CudaError):
            session.client.get_function(
                module.handle, "vectorAdd", module.image.metadata.kernel("vectorAdd")
            )

    def test_buffers_accepted_as_launch_args(self, session):
        module = session.load_builtin_module(["fillValue"])
        kernel = module.function("fillValue")
        buffer = session.alloc(4 * 64)
        kernel.launch((1, 1, 1), (64, 1, 1), buffer, 9.0, 64)
        session.synchronize()
        np.testing.assert_allclose(buffer.read_array(np.float32), 9.0)


class TestTimingOnlySessions:
    def test_execute_false_still_counts_time_and_calls(self):
        config = SessionConfig(platform=linux_vm(), execute=False, device_mem_bytes=MIB)
        with GpuSession(config) as s:
            module = s.load_builtin_module(["_Z9nopKernelv"])
            kernel = module.function("_Z9nopKernelv")
            for _ in range(10):
                kernel.launch((1, 1, 1), (1, 1, 1))
            s.synchronize()
            assert s.api_calls >= 12
            assert s.clock.now_ns > 0
