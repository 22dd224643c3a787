"""Byte pins on every form a captured server state takes.

A fixed workload -- two tenants, a loaded module with a function, a
stream, an event and the replies they cached -- is captured four ways:
the encoded capture, a ``snapshot_server`` container, the delta container
a ``CheckpointStore`` writes, and the fingerprint of a standby after the
op-log replayed.  Migration charges its stop-and-copy pause from these
bytes and the nemesis oracle fingerprints them, so a refactor of who
captures what must leave every digest where it is.  ``pickle`` writes one
shared object where it would write two equal ones: a capture that hands
the same object to two places moves these pins.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.cricket import CheckpointStore, CricketClient, CricketServer
from repro.cricket.checkpoint import (
    capture_server_state,
    encode_state,
    snapshot_server,
)
from repro.cricket.ckptstore import MemoryStorage
from repro.cricket.replication import ReplicationLink, state_fingerprint
from repro.cubin import build_cubin_for_registry
from repro.cubin.metadata import KernelMeta
from repro.gpu import A100, GpuDevice
from repro.net.simclock import SimClock
from repro.oncrpc import client as rpc_client
from repro.oncrpc.auth import client_token_auth

MIB = 1 << 20
N = 256


def _server() -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=16 * MIB)], clock=SimClock())


def _tenant(server: CricketServer, name: bytes) -> CricketClient:
    client = CricketClient.loopback(server)
    client.stub.client.cred = client_token_auth(name)  # a stable identity
    return client


def _workload(server: CricketServer) -> tuple[CricketClient, CricketClient]:
    """Two tenants' state on ``server``; every call leaves a cached reply."""
    a, b = _tenant(server, b"tenant-a"), _tenant(server, b"tenant-b")
    cubin = build_cubin_for_registry(server.device.registry, ["vectorAdd"])
    module = a.module_load(cubin)
    meta = KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))
    fn = a.get_function(module, "vectorAdd", meta)
    x, y, z = (a.malloc(4 * N) for _ in range(3))
    a.memcpy_h2d(x, np.arange(N, dtype=np.float32).tobytes())
    a.memcpy_h2d(y, np.full(N, 2.5, np.float32).tobytes())
    stream = a.stream_create()
    event = a.event_create()
    a.launch_kernel(fn, (1, 1, 1), (N, 1, 1), (x, y, z, N), stream=stream)
    a.event_record(event, stream)
    p = b.malloc(8192)
    b.memcpy_h2d(p, b"\x5a" * 8192)
    b.cublas_create()
    return a, b


@pytest.fixture
def fixed_xids(monkeypatch):
    # xids come from one process-wide counter; the cached replies carry them
    monkeypatch.setattr(rpc_client, "_xid_counter", itertools.count(0x10000000))


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


@pytest.mark.usefixtures("fixed_xids")
class TestStateBytePins:
    def test_encoded_capture(self):
        server = _server()
        _workload(server)
        assert _sha(encode_state(capture_server_state(server))) == (
            "7c606b9143e17baf2fd3d0159fa8c7830d4229fddca2de98f05e1f9375ec3ff8"
        )

    def test_snapshot_container(self):
        server = _server()
        _workload(server)
        assert _sha(snapshot_server(server)) == (
            "6d84a78b81a99e780a4acf9e849806c87ea4e230a53dd983a068a4b710421fe8"
        )

    def test_delta_container(self):
        server = _server()
        _a, b = _workload(server)
        storage = MemoryStorage()
        store = CheckpointStore(storage=storage)
        store.save_full(server)
        q = b.malloc(4096)
        b.memcpy_h2d(q, b"\x33" * 4096)
        generation = store.save_delta(server)
        blob = storage.read(f"ckpt-{generation:08d}.ckpt")
        assert _sha(blob) == (
            "0553cbceec16582ea06b94c8bec215aa3b7aafe4f9d76ced829366f3b389d8cb"
        )

    def test_standby_fingerprint_after_replay(self):
        primary, standby = _server(), _server()
        link = ReplicationLink(primary, standby)
        _workload(primary)
        link.flush()
        assert state_fingerprint(standby) == state_fingerprint(primary) == (
            "ee72fbd2719b669e4b4e45c8c36898f0018c7d0a15a95546d9419a5ba411601c"
        )
