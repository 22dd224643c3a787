"""The loopback hand-over held to the reassembled reference.

``LoopbackTransport`` hands a contiguous request to the server as one copy
(the copy a socket makes) instead of framing it and reassembling it through
a ``RecordReader``; a ``GatherRecord`` still takes the reader.  The
reference here is the same transport given every record as a one-segment
``GatherRecord``, so every request is framed by ``gather_fragments`` and
reassembled by the reader, as before the hand-over: the server must see the
same bytes and answer the same, the meter must be charged the same wire
bytes, and what the op-log observer keeps must belong to the server.
"""

from __future__ import annotations

import itertools
import mmap

import numpy as np
import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket import client as cricket_client
from repro.gpu import A100, GpuDevice
from repro.oncrpc import client as rpc_client
from repro.oncrpc.auth import client_token_auth
from repro.oncrpc.errors import RpcProtocolError
from repro.oncrpc.record import DEFAULT_MAX_FRAGMENT, encode_record
from repro.oncrpc.transport import LoopbackTransport
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.unikernel import rustyhermit
from repro.xdr.encoder import BY_REFERENCE_BYTES, GatherRecord

MIB = 1 << 20


class ReassemblingLoopback(LoopbackTransport):
    """The reference: every request framed and reassembled by the reader."""

    def send_record(self, record):
        if type(record) is not GatherRecord:
            record = GatherRecord((record,), (), len(record))
        super().send_record(record)


class SpyLoopback(LoopbackTransport):
    """The transport under test, keeping every record it was given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.given: list = []

    def send_record(self, record):
        self.given.append(record)
        super().send_record(record)


def _session(monkeypatch, transport_class, *, crc: bool, faults: FaultPlan | None):
    """Run one mixed session; return what the server saw and the client got."""
    made: list = []

    def make(*args, **kwargs):
        made.append(transport_class(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cricket_client, "LoopbackTransport", make)
    monkeypatch.setattr(rpc_client, "_xid_counter", itertools.count(0x10000000))
    server = CricketServer([GpuDevice(A100, mem_bytes=8 * MIB)], crc_records=crc)
    observed: list[tuple[bytearray, bytes]] = []
    server.on_executed = lambda record, call, reply: observed.append((record, bytes(record)))
    client = CricketClient.loopback(
        server,
        platform=rustyhermit(),
        faults=faults,
        retry_policy=RetryPolicy(max_attempts=12) if faults is not None else None,
    )
    client.stub.client.cred = client_token_auth(b"twin")  # the same identity
    rng = np.random.default_rng(7)
    small = rng.integers(0, 256, 3000, dtype=np.uint8).tobytes()
    bulk = rng.integers(0, 256, 2 * BY_REFERENCE_BYTES + 5, dtype=np.uint8).tobytes()
    results: list = []
    try:
        results.append(client.get_device_count())
        a, b = client.malloc(len(small)), client.malloc(len(bulk))
        for _ in range(3):
            client.memcpy_h2d(a, small)
            client.memcpy_h2d(b, bulk)
            results.append(client.memcpy_d2h(a, len(small)))
            results.append(client.memcpy_d2h(b, len(bulk)))
        client.free(a)
        client.free(b)
    except Exception as exc:  # without CRC a cut reply may not decode
        results.append((type(exc), str(exc)))
    client.close()
    meter = client.meter
    return {
        "results": results,
        "observed": [snapshot for _, snapshot in observed],
        "sent": meter.bytes_sent,
        "received": meter.bytes_received,
        "now_ns": server.clock.now_ns,
        "breakdown": dict(meter.breakdown_s),
    }, observed, made


FAULTS = {
    "clean": None,
    "truncate": FaultPlan(truncate_rate=0.3, seed=5),
    "duplicate": FaultPlan(duplicate_rate=0.3, seed=6),
    "corrupt-request": FaultPlan(corrupt_rate=0.2, seed=7),
}


#: (fault, crc): a corrupted request is only caught with CRC trailers
CASES = [
    (fault, crc) for fault in FAULTS for crc in (False, True)
    if crc or fault != "corrupt-request"
]


@pytest.mark.parametrize(
    "fault, crc", CASES, ids=[f"{f}-crc-{'on' if c else 'off'}" for f, c in CASES]
)
def test_handover_matches_reassembled_reference(monkeypatch, fault, crc):
    got, observed, made = _session(monkeypatch, SpyLoopback, crc=crc, faults=FAULTS[fault])
    want, _, _ = _session(monkeypatch, ReassemblingLoopback, crc=crc, faults=FAULTS[fault])
    assert got == want
    # Both kinds of request went by: the hand-over and the reader.
    (transport,) = made
    kinds = {type(record) is GatherRecord for record in transport.given}
    assert kinds == {False, True}
    # What the observer keeps is the server's own: overwrite every
    # contiguous record the transport was given, and nothing it kept moves.
    for record in transport.given:
        if type(record) is bytearray:
            record[:] = bytes(len(record))
    assert observed
    assert all(bytes(record) == snapshot for record, snapshot in observed)


def test_handover_charges_the_framed_size():
    """A contiguous record is charged what the reader counts on the wire."""
    charged: list[int] = []

    class Meter:
        def on_send(self, nbytes):
            charged.append(nbytes)

        def on_recv(self, nbytes):
            pass

    seen: list = []
    transport = LoopbackTransport(seen.append, fragment_size=1000, meter=Meter())
    for size in (0, 1, 999, 1000, 1001, 2000, 2001, 5 * 1000 + 3):
        record = bytearray(range(256)) * (size // 256) + bytearray(size % 256)
        transport.send_record(record)
        assert seen[-1] == record and seen[-1] is not record
        assert charged[-1] == len(encode_record(record, 1000))


class TestLimits:
    @pytest.mark.parametrize("size", [0, -1, DEFAULT_MAX_FRAGMENT + 1, 1 << 31])
    def test_fragment_size_checked_when_built(self, size):
        with pytest.raises(ValueError, match="fragment size"):
            LoopbackTransport(lambda record: None, fragment_size=size)

    def test_largest_fragment_the_reader_takes(self):
        LoopbackTransport(lambda record: None, fragment_size=DEFAULT_MAX_FRAGMENT)

    def test_record_over_the_reader_limit_refused_as_the_reader_does(self):
        """A 2 GiB + 1 record: refused before a byte is copied (the map is
        never touched), with the error the reader raises at the fragment
        that crosses its limit."""
        seen: list = []
        transport = LoopbackTransport(seen.append)
        limit = transport._reader._max_record_size
        with mmap.mmap(-1, limit + 1) as huge, memoryview(huge) as record:
            with pytest.raises(RpcProtocolError) as refused:
                transport.send_record(record)
        assert str(refused.value) == f"record exceeds maximum size ({limit + 1} > {limit})"
        assert str(refused.value) == str(transport._reader._refusal(1, limit))
        assert not seen
        transport.send_record(b"after")  # the transport is still usable
        assert seen == [b"after"]
