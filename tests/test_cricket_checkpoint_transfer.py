"""Integration tests for checkpoint/restart and memory-transfer methods."""

import numpy as np
import pytest

from repro.cricket import (
    CricketClient,
    CheckpointStore,
    CricketServer,
    TransferMethod,
    TransferTimingModel,
    make_ha_pair,
    supported_on,
)
from repro.cricket.spec import cricket_interface
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.cuda.cufft import CUFFT_C2C
from repro.gpu import A100, GpuDevice
from repro.net.simclock import SimClock
from repro.oncrpc import message as msg
from repro.resilience import RetryPolicy
from repro.unikernel import EVAL_LINK, linux_vm, native_c, rustyhermit, unikraft

MIB = 1 << 20


def small_server() -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=128 * MIB)])


class TestCheckpointRestart:
    def _populate(self, client, server):
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        fn = client.get_function(module, "vectorAdd", meta)
        n = 256
        a, b, c = (client.malloc(4 * n) for _ in range(3))
        client.memcpy_h2d(a, np.full(n, 1.5, np.float32).tobytes())
        client.memcpy_h2d(b, np.full(n, 2.5, np.float32).tobytes())
        client.launch_kernel(fn, (1, 1, 1), (256, 1, 1), (a, b, c, n))
        client.device_synchronize()
        return module, fn, (a, b, c, n)

    def test_resume_on_fresh_server(self):
        server = small_server()
        client = CricketClient.loopback(server)
        _module, fn, (a, b, c, n) = self._populate(client, server)
        blob = client.checkpoint()

        # new GPU node, same device model
        server2 = small_server()
        client2 = CricketClient.loopback(server2)
        client2.restore(blob)
        # resume: read results computed before the checkpoint
        out = np.frombuffer(client2.memcpy_d2h(c, 4 * n), np.float32)
        np.testing.assert_allclose(out, 4.0)
        # resume: launch with the *old* function handle -- it must survive
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        client2._function_meta[fn] = meta
        client2.launch_kernel(fn, (1, 1, 1), (256, 1, 1), (c, a, b, n))
        client2.device_synchronize()
        out2 = np.frombuffer(client2.memcpy_d2h(b, 4 * n), np.float32)
        np.testing.assert_allclose(out2, 5.5)  # c (4.0) + a (1.5)

    def test_allocations_after_restore_dont_collide(self):
        server = small_server()
        client = CricketClient.loopback(server)
        old_ptr = client.malloc(4096)
        client.memcpy_h2d(old_ptr, b"\x11" * 4096)
        blob = client.checkpoint()

        server2 = small_server()
        client2 = CricketClient.loopback(server2)
        client2.restore(blob)
        new_ptr = client2.malloc(4096)
        assert new_ptr != old_ptr
        client2.memcpy_h2d(new_ptr, b"\x22" * 4096)
        assert client2.memcpy_d2h(old_ptr, 4096) == b"\x11" * 4096

    def test_checkpoint_file_roundtrip(self, tmp_path):
        server = small_server()
        client = CricketClient.loopback(server)
        ptr = client.malloc(1024)
        client.memcpy_h2d(ptr, b"\x42" * 1024)
        generation = CheckpointStore(directory=str(tmp_path)).save_full(server)

        server2 = small_server()
        assert CheckpointStore(directory=str(tmp_path)).restore_latest(server2) == generation
        client2 = CricketClient.loopback(server2)
        assert client2.memcpy_d2h(ptr, 1024) == b"\x42" * 1024

    def test_streams_survive(self):
        server = small_server()
        client = CricketClient.loopback(server)
        stream = client.stream_create()
        blob = client.checkpoint()
        server2 = small_server()
        client2 = CricketClient.loopback(server2)
        client2.restore(blob)
        client2.stream_synchronize(stream)  # handle still valid
        client2.stream_destroy(stream)

    def test_restore_rejects_garbage(self):
        server = small_server()
        client = CricketClient.loopback(server)
        from repro.cuda.errors import CudaError

        with pytest.raises(CudaError):
            client.restore(b"not a checkpoint")

    def test_a_restore_keeps_nothing_of_its_request_record(self):
        """The restored device memory and reply cache own their bytes:
        overwriting the request record afterwards changes neither."""
        source = small_server()
        client = CricketClient.loopback(source)
        ptr = client.malloc(MIB)
        client.memcpy_h2d(ptr, b"\xab" * MIB)
        blob = client.checkpoint()
        target = small_server()
        iface = cricket_interface()
        sig = iface.signatures["rpc_restore"]
        record = msg.RpcMessage(9, msg.CallBody(
            iface.prog_number, iface.vers_number, sig.number,
            args=bytes(sig.encode_args((blob,))),
        )).encode()
        reply = target.dispatch_record(record)
        assert sig.decode_result(msg.RpcMessage.decode(reply).body.results) == 0
        cache = {key: bytes(reply) for key, reply in target._reply_cache.items()}
        assert len(cache) > 1  # the source's replies came with the state
        record[:] = bytes(len(record))
        assert {key: bytes(reply) for key, reply in target._reply_cache.items()} == cache
        assert bytes(target.device.allocator.view(ptr, MIB)) == b"\xab" * MIB

    def test_library_handles_after_restore_dont_collide(self):
        server = small_server()
        client = CricketClient.loopback(server)
        blas, solver = client.cublas_create(), client.cusolver_create()
        blob = client.checkpoint()

        server2 = small_server()
        client2 = CricketClient.loopback(server2)
        client2.restore(blob)
        assert client2.cublas_create() != blas
        assert client2.cusolver_create() != solver
        client2.cublas_destroy(blas)  # the restored handles stay live
        client2.cusolver_destroy(solver)

    def test_full_sync_standby_continues_handle_counters(self):
        primary, standby = CricketServer(clock=SimClock()), CricketServer(clock=SimClock())
        CricketClient.loopback(primary).cublas_create()  # before the pair exists
        _link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        client = CricketClient.failover(endpoints, retry_policy=RetryPolicy(max_attempts=8))
        handle = client.cublas_create()  # replayed on the standby
        assert sorted(standby.blas._handles) == sorted(primary.blas._handles) == [1, 2]
        primary.kill()
        client.cublas_destroy(handle)  # served by the promoted standby


class TestCheckpointHoles:
    """What a checkpoint does not carry yet (ROADMAP item 3's typed state)."""

    @pytest.mark.xfail(strict=True, reason="cuFFT plans are not captured (ROADMAP item 3)")
    def test_fft_plans_survive(self):
        server = small_server()
        client = CricketClient.loopback(server)
        plan = client.cufft_plan1d(64, CUFFT_C2C, 1)
        blob = client.checkpoint()
        server2 = small_server()
        client2 = CricketClient.loopback(server2)
        client2.restore(blob)
        client2.cufft_destroy(plan)

    @pytest.mark.xfail(
        strict=True, reason="only the current device is captured (ROADMAP item 3)"
    )
    def test_every_device_survives(self):
        def two_devices():
            return CricketServer([GpuDevice(A100, mem_bytes=64 * MIB) for _ in range(2)])

        server = two_devices()
        client = CricketClient.loopback(server)
        on0 = client.malloc(4096)
        client.set_device(1)
        on1 = client.malloc(8192)
        blob = client.checkpoint()
        server2 = two_devices()
        CricketClient.loopback(server2).restore(blob)
        assert [
            [(a.addr, a.size) for a in device.allocator.live_allocations()]
            for device in server2.devices
        ] == [[(on0, 4096)], [(on1, 8192)]]


class TestSupportMatrix:
    @pytest.mark.parametrize("platform_fn", [rustyhermit, unikraft])
    def test_unikernels_only_rpc_args(self, platform_fn):
        platform = platform_fn()
        assert supported_on(TransferMethod.RPC_ARGS, platform)
        for method in (
            TransferMethod.PARALLEL_SOCKETS,
            TransferMethod.IB_GPUDIRECT,
            TransferMethod.SHARED_MEMORY,
        ):
            assert not supported_on(method, platform)

    def test_native_supports_everything(self):
        for method in TransferMethod:
            assert supported_on(method, native_c())

    def test_vm_no_ib_or_shm(self):
        vm = linux_vm()
        assert supported_on(TransferMethod.PARALLEL_SOCKETS, vm)
        assert not supported_on(TransferMethod.IB_GPUDIRECT, vm)
        assert not supported_on(TransferMethod.SHARED_MEMORY, vm)


class TestTransferEngine:
    def test_parallel_sockets_scale_with_threads(self):
        timing = TransferTimingModel(link=EVAL_LINK)
        one = timing.parallel_sockets_s(64 * MIB, 5e9, threads=1)
        four = timing.parallel_sockets_s(64 * MIB, 5e9, threads=4)
        assert four < one

    def test_parallel_sockets_validates_threads(self):
        timing = TransferTimingModel(link=EVAL_LINK)
        with pytest.raises(ValueError):
            timing.parallel_sockets_s(1024, 5e9, threads=0)

    def test_method_ordering_matches_paper(self):
        """RPC args < parallel sockets < shared memory <= GPUDirect."""
        timing = TransferTimingModel(link=EVAL_LINK)
        n = 256 * MIB
        rpc_rate = n / (
            timing.parallel_sockets_s(n, 5e9, threads=1)
        )  # 1 thread ~ RPC args upper bound
        psock = n / timing.parallel_sockets_s(n, 5e9, threads=4)
        ib = n / timing.ib_gpudirect_s(n)
        shm = n / timing.shared_memory_s(n)
        assert rpc_rate < psock < ib
        assert psock < shm
