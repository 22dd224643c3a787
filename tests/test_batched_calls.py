"""Tests for ONC RPC batching and batched kernel launches."""

import numpy as np
import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.cuda.errors import CudaError
from repro.gpu import A100, GpuDevice
from repro.oncrpc import LoopbackTransport, RpcClient, RpcServer
from repro.unikernel import rustyhermit
from repro.xdr import XdrDecoder, XdrEncoder

MIB = 1 << 20

PROG, VERS = 0x20000042, 1


@pytest.fixture()
def counter_client():
    server = RpcServer()
    state = {"count": 0}

    def bump(args, ctx):
        dec = XdrDecoder(args)
        state["count"] += dec.unpack_int()
        return b""

    def get(args, ctx):
        enc = XdrEncoder()
        enc.pack_int(state["count"])
        return enc.getvalue()

    server.register_program(PROG, VERS, {1: bump, 2: get})
    return RpcClient(LoopbackTransport(server.dispatch_record), PROG, VERS)


class TestRpcBatching:
    def test_batched_calls_execute_in_order(self, counter_client):
        for value in (1, 2, 3):
            enc = XdrEncoder()
            enc.pack_int(value)
            counter_client.call_batched(1, enc.getvalue())
        assert counter_client.pending_batched == 3
        counter_client.flush_batch()
        assert counter_client.pending_batched == 0
        raw = counter_client.call_raw(2, b"")
        assert XdrDecoder(raw).unpack_int() == 6

    def test_synchronous_call_flushes_pending(self, counter_client):
        enc = XdrEncoder()
        enc.pack_int(10)
        counter_client.call_batched(1, enc.getvalue())
        # synchronous call must drain the outstanding reply first
        raw = counter_client.call_raw(2, b"")
        assert XdrDecoder(raw).unpack_int() == 10
        assert counter_client.pending_batched == 0

    def test_flush_returns_results_in_order(self, counter_client):
        enc = XdrEncoder()
        enc.pack_int(5)
        counter_client.call_batched(1, enc.getvalue())
        counter_client.call_batched(2, b"")
        results = counter_client.flush_batch()
        assert results[0] == b""
        assert XdrDecoder(results[1]).unpack_int() == 5

    def test_flush_empty_is_noop(self, counter_client):
        assert counter_client.flush_batch() == []

    def test_batched_error_raises_at_flush(self, counter_client):
        from repro.oncrpc import RpcProcUnavailable

        counter_client.call_batched(99, b"")
        with pytest.raises(RpcProcUnavailable):
            counter_client.flush_batch()


class TestBatchedLaunches:
    def _setup(self, platform=None):
        server = CricketServer([GpuDevice(A100, mem_bytes=64 * MIB)])
        client = CricketClient.loopback(server, platform=platform)
        cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
        module = client.module_load(cubin)
        meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
        fn = client.get_function(module, "vectorAdd", meta)
        return server, client, fn

    def test_batched_launches_compute_correctly(self):
        server, client, fn = self._setup()
        n = 128
        a, b, c = (client.malloc(4 * n) for _ in range(3))
        client.memcpy_h2d(a, np.full(n, 1.0, np.float32).tobytes())
        client.memcpy_h2d(b, np.full(n, 1.0, np.float32).tobytes())
        for _ in range(10):
            # c = a + b, then a = b + c, alternating: still deterministic
            client.launch_kernel_batched(fn, (1, 1, 1), (128, 1, 1), (a, b, c, n))
        client.flush()
        client.device_synchronize()
        out = np.frombuffer(client.memcpy_d2h(c, 4 * n), np.float32)
        np.testing.assert_allclose(out, 2.0)

    def test_batching_cuts_unikernel_launch_latency(self):
        calls = 200

        def run(batched: bool) -> int:
            server, client, fn = self._setup(platform=rustyhermit())
            n = 64
            a, b, c = (client.malloc(4 * n) for _ in range(3))
            start = server.clock.now_ns
            for _ in range(calls):
                if batched:
                    client.launch_kernel_batched(fn, (1, 1, 1), (64, 1, 1), (a, b, c, n))
                else:
                    client.launch_kernel(fn, (1, 1, 1), (64, 1, 1), (a, b, c, n))
            if batched:
                client.flush()
            return server.clock.now_ns - start

        sync_ns = run(batched=False)
        batched_ns = run(batched=True)
        assert batched_ns < 0.6 * sync_ns

    def test_batched_launch_unknown_function(self):
        _server, client, _fn = self._setup()
        with pytest.raises(CudaError):
            client.launch_kernel_batched(999, (1, 1, 1), (1, 1, 1), ())

    def test_flush_surfaces_cuda_launch_error(self):
        server, client, fn = self._setup()
        # bad geometry -> launch fails on the server; flush must raise
        client._function_meta[fn] = client._function_meta[fn]
        client.launch_kernel_batched(fn, (0, 1, 1), (1, 1, 1), (1, 2, 3, 4))
        with pytest.raises(CudaError):
            client.flush()

    def test_flush_checks_replies_a_synchronous_call_drained(self):
        """A synchronous call drains the batched replies off the wire before
        it is sent; their statuses still reach flush()."""
        server, client, fn = self._setup()
        n = 128
        a, b, c = (client.malloc(4 * n) for _ in range(3))
        client.launch_kernel_batched(fn, (1, 1, 1), (128, 1, 1), (a, b, c, 1 << 20))
        assert client.get_device_count() == 1  # drains the failed launch's reply
        assert client.stub.client.pending_batched == 0
        with pytest.raises(CudaError, match="batched cuLaunchKernel"):
            client.flush()
        client.flush()  # checked once: nothing left
        client.device_synchronize()

    def test_drained_replies_are_not_kept(self):
        """Batched launches each followed by a synchronous call, and never a
        flush(): the clients keep one failed status, not the replies, however
        long that runs."""
        _server, client, fn = self._setup()
        n = 16
        a, b, c = (client.malloc(4 * n) for _ in range(3))
        rpc = client.stub.client

        def held() -> int:
            return sum(
                len(value)
                for obj in (client, client.stub, rpc)
                for value in vars(obj).values()
                if isinstance(value, (list, dict, set, tuple))
            )

        client.launch_kernel_batched(fn, (1, 1, 1), (16, 1, 1), (a, b, c, 1 << 20))
        client.get_device_count()
        before = held()
        for _ in range(10_000):
            client.launch_kernel_batched(fn, (1, 1, 1), (16, 1, 1), (a, b, c, n))
            client.get_device_count()
        assert held() == before
        with pytest.raises(CudaError, match="batched cuLaunchKernel"):
            client.flush()
        client.flush()

    def test_flush_noop_without_pending(self):
        _server, client, _fn = self._setup()
        client.flush()  # nothing batched: no error
