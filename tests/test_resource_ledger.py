"""The server's one resource ledger, keyed ``(kind, ordinal, key)``.

Every device hands out the same first pointer and stream handle 1, so a
tenant working on two devices holds two resources under one key: the
ledger keeps both, reclaims both, forgets only the destroyed one and counts
both against a quota.  A caller refused admission creates nothing.  And the
``sessions`` section of a capture, which migration charges its pause from,
keeps its bytes.
"""

import hashlib

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.checkpoint import capture_server_state, encode_state
from repro.cubin import build_cubin_for_registry
from repro.cuda import constants as C
from repro.cuda.cufft import CUFFT_C2C
from repro.cuda.errors import CudaError
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.gpu.stream import DEFAULT_STREAM
from repro.oncrpc.auth import client_token_auth

MB = 1 << 20


def tenant(server, name: bytes) -> CricketClient:
    client = CricketClient.loopback(server)
    client.stub.client.cred = client_token_auth(name)
    return client


def two_device_server(**kwargs) -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=64 * MB) for _ in range(2)], **kwargs)


#: SHA-256 of the ``sessions`` section of :func:`two_tenant_capture`'s state
SESSIONS_SECTION_SHA256 = "ad76bd9951cf8fcf770dd8f6a2756937e9f24cd37541186c3a5ea92c2495d172"


def two_tenant_capture() -> dict:
    """Two tenants interleave creates of every kind on one device, then
    each destroys one resource."""
    server = CricketServer(lease_s=10.0)
    alice, bob = tenant(server, b"alice"), tenant(server, b"bob")
    p = alice.malloc(MB)
    bob.malloc(2 * MB)
    alice.stream_create()
    s = bob.stream_create()
    alice.event_create()
    bob.module_load(build_cubin_for_registry(server.device.registry, ["vectorAdd"]))
    alice.cublas_create()
    bob.cusolver_create()
    alice.cufft_plan1d(64, CUFFT_C2C, 1)
    alice.malloc(3 * MB)
    bob.event_create()
    alice.malloc(4 * MB)
    alice.free(p)
    bob.stream_destroy(s)
    return capture_server_state(server)


def test_the_sessions_section_keeps_its_bytes():
    section = encode_state(two_tenant_capture()["sessions"])
    assert hashlib.sha256(section).hexdigest() == SESSIONS_SECTION_SHA256


def two_device_tenant(server, name: bytes = b"tenant"):
    """A tenant holding one malloc and one stream on each of two devices:
    the same pointer and the same stream handle on both."""
    client = tenant(server, name)
    held = []
    for ordinal in (0, 1):
        client.set_device(ordinal)
        held.append((client.malloc(MB), client.stream_create()))
    assert held[0] == held[1]  # every device hands out the same first ones
    return client, held


class TestTwoDevices:
    def test_reclaim_frees_both_devices(self):
        server = two_device_server(lease_s=1.0, grace_s=0.5)
        client, _held = two_device_tenant(server)
        server.clock.advance_s(1.5)
        server.reap_sessions()  # orphaned
        server.clock.advance_s(1.0)
        assert server.reap_sessions() == 2 * MB
        for device in server.devices:
            assert device.allocator.used_bytes == 0
            assert [s.handle for s in device.streams.streams()] == [DEFAULT_STREAM]
        assert server.sessions.ledger.held_by(client.session_identity) == {}

    def test_destroying_device_0s_stream_leaves_device_1s_entry(self):
        server = two_device_server()
        client, [(_, stream), _] = two_device_tenant(server)
        client.set_device(0)
        client.stream_destroy(stream)
        ledger = server.sessions.ledger
        assert ledger.owner_of("streams", 0, stream) == ""
        assert ledger.owner_of("streams", 1, stream) == client.session_identity
        assert ledger.state_of(client.session_identity, 1)["streams"] == {stream: 1}

    def test_a_quota_counts_both_devices(self):
        server = two_device_server(memory_quota_bytes=2 * MB + MB // 2)
        client = tenant(server, b"tenant")
        client.malloc(MB)
        client.set_device(1)
        client.malloc(MB)  # the same pointer as device 0's
        with pytest.raises(CudaError) as excinfo:
            client.malloc(MB)
        assert excinfo.value.code == C.cudaErrorMemoryAllocation
        assert server.devices[1].allocator.used_bytes == MB


def test_a_caller_refused_admission_creates_nothing():
    server = CricketServer(max_sessions=1)
    tenant(server, b"first").get_device_count()
    refused = tenant(server, b"second")
    image = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
    creates = {
        "malloc": lambda: refused.malloc(MB),
        "stream_create": refused.stream_create,
        "event_create": refused.event_create,
        "module_load": lambda: refused.module_load(image),
        "cublas_create": refused.cublas_create,
        "cusolver_create": refused.cusolver_create,
        "cufft_plan1d": lambda: refused.cufft_plan1d(64, CUFFT_C2C, 1),
    }
    for name, create in creates.items():
        with pytest.raises(CudaError) as excinfo:
            create()
        assert excinfo.value.code == C.cudaErrorDevicesUnavailable, name
    assert server.server_stats.admission_denied == len(creates)
    assert server.device.allocator.used_bytes == 0
    assert [s.handle for s in server.device.streams.streams()] == [DEFAULT_STREAM]
    assert server.device.streams._events == {}
    assert server.driver._modules == {}
    assert server.blas._handles == server.solver._handles == set()
    assert server.fft._plans == {}
    # the lease heartbeat keeps its answer
    with pytest.raises(CudaError) as excinfo:
        refused.renew_lease()
    assert excinfo.value.code == C.cudaErrorDevicesUnavailable
