"""Contracts of the procedure table (``repro.cricket.spec.PROCEDURES``).

The table says what ``cricket.x`` cannot: which procedures mutate, which
skip the overload queue, which one runs outside the dispatch lock, and
which ledger kind each create/destroy procedure touches.  These tests pin
what the server does with it: the table and the interface agree, every
dispatched call is charged exactly once, and each of the seven ledger
kinds is recorded, forgotten, reclaimed and dropped on device reset.
"""

import inspect

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.server import CricketImplementation
from repro.cricket.spec import (
    LEDGER_KINDS,
    MUTATING_PROCS,
    OVERLOAD_EXEMPT_PROCS,
    PROCEDURES,
    _check_table,
    cricket_interface,
)
from repro.cubin import build_cubin_for_registry
from repro.cuda.cufft import CUFFT_C2C
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.xdr import types as xt

MB = 1 << 20
SIGNATURES = cricket_interface().signatures


def two_device_server(**kwargs) -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=64 * MB) for _ in range(2)], **kwargs)


class TestTableMatchesInterface:
    def test_every_table_entry_is_in_cricket_x(self):
        assert set(PROCEDURES) <= set(SIGNATURES)

    def test_every_cricket_x_procedure_is_in_the_table(self):
        assert set(SIGNATURES) <= set(PROCEDURES)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_disagreement_fails_loudly(self, change):
        signatures = dict(SIGNATURES)
        if change == "missing":
            del signatures["rpc_cudaMalloc"]
        else:
            signatures["rpc_cudaMallocManaged"] = signatures["rpc_cudaMalloc"]
        with pytest.raises(RuntimeError, match="disagree"):
            _check_table(signatures)

    def test_each_kind_has_one_creator_and_one_destroyer(self):
        creates = sorted(p.creates for p in PROCEDURES.values() if p.creates)
        destroys = sorted(p.destroys for p in PROCEDURES.values() if p.destroys)
        assert creates == destroys == sorted(LEDGER_KINDS)

    def test_numbers_resolve_by_name(self):
        assert OVERLOAD_EXEMPT_PROCS == {
            SIGNATURES["rpc_ping"].number, SIGNATURES["rpc_cancel"].number
        }
        assert CricketServer().overload_exempt_procs == {0} | OVERLOAD_EXEMPT_PROCS
        assert MUTATING_PROCS == {
            SIGNATURES[name].number for name, p in PROCEDURES.items() if p.mutating
        }

    def test_only_cancel_runs_unlocked(self):
        assert [name for name, p in PROCEDURES.items() if p.unlocked] == ["rpc_cancel"]

    @pytest.mark.parametrize("name", sorted(PROCEDURES))
    def test_procedures_stay_plain_functions_that_take_ctx(self, name):
        # bench/trace.py patches plain functions of the class dict, and
        # stubgen passes ctx only to callables whose signature names it
        fn = vars(CricketImplementation)[name]
        assert inspect.isfunction(fn)
        assert "ctx" in inspect.signature(fn).parameters

    def test_release_covers_every_kind_in_release_order(self):
        assert list(CricketServer._RELEASE) == [
            "modules", "blas_handles", "solver_handles", "fft_plans",
            "streams", "events", "allocations",
        ]
        assert sorted(CricketServer._RELEASE) == sorted(LEDGER_KINDS)


def zero_of(xdr_type):
    """The simplest value of ``xdr_type`` (arguments that merely decode)."""
    target = getattr(xdr_type, "_target", None)
    if target is not None:
        return zero_of(target())
    if isinstance(xdr_type, xt.StructType):
        return {f.name: zero_of(f.type) for f in xdr_type.fields}
    if isinstance(xdr_type, (xt.VarOpaque, xt.FixedOpaque)):
        return b""
    if isinstance(xdr_type, xt.StringType):
        return ""
    return 0


class TestDispatchCharge:
    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_each_procedure_charges_once(self, name):
        server = CricketServer()
        client = CricketClient.loopback(server)
        sig = SIGNATURES[name]
        before = server.dispatch_time_charged_ns
        try:
            client.stub.call(name, *(zero_of(t) for t in sig.arg_types))
        except Exception:
            pass  # a refused call is charged all the same
        expected = 0 if name == "rpc_cancel" else int(server.dispatch_cost_s * 1e9)
        assert server.dispatch_time_charged_ns - before == expected

    def test_nullproc_charges_once(self):
        server = CricketServer()
        client = CricketClient.loopback(server)
        before = server.dispatch_time_charged_ns
        client.stub.client.call_raw(0, b"")
        assert server.dispatch_time_charged_ns - before == int(server.dispatch_cost_s * 1e9)


#: kind -> (create on the client, destroy on the client, live in the executor?)
KINDS = {
    "allocations": (
        lambda c, s: c.malloc(MB),
        lambda c, k: c.free(k),
        lambda s, o, k: s.devices[o].allocator.is_live(k),
    ),
    "streams": (
        lambda c, s: c.stream_create(),
        lambda c, k: c.stream_destroy(k),
        lambda s, o, k: k in s.devices[o].streams._streams,
    ),
    "events": (
        lambda c, s: c.event_create(),
        lambda c, k: c.event_destroy(k),
        lambda s, o, k: k in s.devices[o].streams._events,
    ),
    "modules": (
        lambda c, s: c.module_load(build_cubin_for_registry(s.device.registry, ["vectorAdd"])),
        lambda c, k: c.module_unload(k),
        lambda s, o, k: k in s._drivers[o]._modules,
    ),
    "blas_handles": (
        lambda c, s: c.cublas_create(),
        lambda c, k: c.cublas_destroy(k),
        lambda s, o, k: k in s._blas[o]._handles,
    ),
    "solver_handles": (
        lambda c, s: c.cusolver_create(),
        lambda c, k: c.cusolver_destroy(k),
        lambda s, o, k: k in s._solvers[o]._handles,
    ),
    "fft_plans": (
        lambda c, s: c.cufft_plan1d(64, CUFFT_C2C, 1),
        lambda c, k: c.cufft_destroy(k),
        lambda s, o, k: k in s._ffts[o]._plans,
    ),
}


@pytest.mark.parametrize("kind", LEDGER_KINDS)
@pytest.mark.parametrize("ordinal", [0, 1])
class TestLedgerKinds:
    def created(self, kind, ordinal):
        server = two_device_server(lease_s=1.0, grace_s=0.5)
        client = CricketClient.loopback(server)
        if ordinal:
            client.set_device(ordinal)
        key = KINDS[kind][0](client, server)
        session = server.sessions.lookup(client.session_identity)
        return server, client, session, key

    def test_create_records_one_entry_on_the_current_device(self, kind, ordinal):
        server, _client, session, key = self.created(kind, ordinal)
        table = session.ledger.tables[kind]
        entry = (ordinal, MB) if kind == "allocations" else ordinal
        assert table == {key: entry}
        assert session.ledger.total_entries == 1
        assert KINDS[kind][2](server, ordinal, key)

    def test_destroy_forgets_the_entry(self, kind, ordinal):
        server, client, session, key = self.created(kind, ordinal)
        KINDS[kind][1](client, key)
        assert session.ledger.total_entries == 0
        assert not KINDS[kind][2](server, ordinal, key)

    def test_orphan_and_grace_reclaim_the_entry(self, kind, ordinal):
        server, client, _session, key = self.created(kind, ordinal)
        server.clock.advance_s(1.5)
        server.reap_sessions()  # orphaned
        server.clock.advance_s(1.0)
        freed = server.reap_sessions()  # reclaimed
        assert server.sessions.lookup(client.session_identity) is None
        assert not KINDS[kind][2](server, ordinal, key)
        assert freed == (MB if kind == "allocations" else 0)
        assert sum(d.allocator.used_bytes for d in server.devices) == 0

    def test_device_reset_drops_the_entry(self, kind, ordinal):
        _server, client, session, _key = self.created(kind, ordinal)
        client.device_reset()
        assert session.ledger.total_entries == 0


def test_expiry_reclaims_all_seven_kinds():
    server = two_device_server(lease_s=1.0, grace_s=0.5)
    client = CricketClient.loopback(server)
    keys = {kind: create(client, server) for kind, (create, _, _) in KINDS.items()}
    session = server.sessions.lookup(client.session_identity)
    assert session.ledger.total_entries == 7
    server.clock.advance_s(1.5)
    server.reap_sessions()
    server.clock.advance_s(1.0)
    assert server.reap_sessions() == MB
    for kind, key in keys.items():
        assert not KINDS[kind][2](server, 0, key), kind
    assert server._blas[0]._handles == server._solvers[0]._handles == set()
    assert server._ffts[0]._plans == server._drivers[0]._modules == {}
