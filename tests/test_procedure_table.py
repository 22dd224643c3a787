"""Contracts of the procedure table (``repro.cricket.spec.PROCEDURES``).

The table says what ``cricket.x`` cannot: each procedure's client method,
which procedures mutate, which skip the overload queue, which one runs
outside the dispatch lock, and which ledger kind each create/destroy
procedure touches.  These tests pin what the client and server derive
from it: the table, the interface, the client's methods and the server's
procedures name the same set; every dispatched call is charged exactly
once; each of the seven ledger kinds is recorded, forgotten, reclaimed and
dropped on device reset; a built forwarder passes its arguments, returns
its result fields and names its CUDA call; a derived server body calls the
executor method of its name, and only an executor method defined once can
be derived.  And each fact the generic paths derive is caught by a named
test when its table entry is corrupted.
"""

import inspect
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.client import _forwarder
from repro.cricket.server import CricketImplementation, _pass_through, _serialised
from repro.cricket.spec import (
    LEDGER_KINDS,
    MUTATING_PROCS,
    OVERLOAD_EXEMPT_PROCS,
    PROCEDURES,
    _check_table,
    client_method,
    cricket_interface,
    result_fields,
)
from repro.cubin import GlobalMeta, KernelMeta, build_cubin, build_cubin_for_registry
from repro.cuda import constants as C
from repro.cuda.cufft import CUFFT_C2C
from repro.cuda.driver import CudaDriver
from repro.cuda.errors import CudaError
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
        return server, client, client.session_identity, key

    def test_create_records_one_entry_on_the_current_device(self, kind, ordinal):
        server, _client, identity, key = self.created(kind, ordinal)
        table = server.sessions.ledger.state_of(identity, ordinal)[kind]
        entry = (ordinal, MB) if kind == "allocations" else ordinal
        assert table == {key: entry}
        assert len(server.sessions.ledger.held_by(identity)) == 1
        assert KINDS[kind][2](server, ordinal, key)

    def test_destroy_forgets_the_entry(self, kind, ordinal):
        server, client, identity, key = self.created(kind, ordinal)
        KINDS[kind][1](client, key)
        assert len(server.sessions.ledger.held_by(identity)) == 0
        assert not KINDS[kind][2](server, ordinal, key)

    def test_orphan_and_grace_reclaim_the_entry(self, kind, ordinal):
        server, client, _identity, key = self.created(kind, ordinal)
        server.clock.advance_s(1.5)
        server.reap_sessions()  # orphaned
        server.clock.advance_s(1.0)
        freed = server.reap_sessions()  # reclaimed
        assert server.sessions.lookup(client.session_identity) is None
        assert not KINDS[kind][2](server, ordinal, key)
        assert freed == (MB if kind == "allocations" else 0)
        assert sum(d.allocator.used_bytes for d in server.devices) == 0

    def test_device_reset_drops_the_entry(self, kind, ordinal):
        server, client, identity, _key = self.created(kind, ordinal)
        client.device_reset()
        assert len(server.sessions.ledger.held_by(identity)) == 0


def test_expiry_reclaims_all_seven_kinds():
    server = two_device_server(lease_s=1.0, grace_s=0.5)
    client = CricketClient.loopback(server)
    keys = {kind: create(client, server) for kind, (create, _, _) in KINDS.items()}
    assert len(server.sessions.ledger.held_by(client.session_identity)) == 7
    server.clock.advance_s(1.5)
    server.reap_sessions()
    server.clock.advance_s(1.0)
    assert server.reap_sessions() == MB
    for kind, key in keys.items():
        assert not KINDS[kind][2](server, 0, key), kind
    assert server._blas[0]._handles == server._solvers[0]._handles == set()
    assert server._ffts[0]._plans == server._drivers[0]._modules == {}


# -- one description: the table, cricket.x, the client and the server ---------

#: client methods with real logic around their one stub call, written by hand
HAND_WRITTEN = {
    "get_last_error", "peek_last_error", "memcpy_d2h", "memcpy_d2h_async", "get_function",
    "launch_kernel", "checkpoint", "restore", "renew_lease", "cancel",
}
BUILT = sorted(n for n, p in PROCEDURES.items() if client_method(p) not in HAND_WRITTEN)


def shape(fn):
    """Parameters as a caller sees them: names, kinds and defaults."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


class TestOneDescription:
    def test_every_procedure_has_its_public_client_method(self):
        public = {
            n for n, v in vars(CricketClient).items()
            if not n.startswith("_") and inspect.isfunction(v)
        }
        assert {client_method(p) for p in PROCEDURES.values()} <= public

    def test_the_table_builds_every_plain_forwarder_and_nothing_else(self):
        built = {n for n, v in vars(CricketClient).items() if hasattr(v, "source")}
        assert built == {client_method(PROCEDURES[n]) for n in BUILT}
        assert len(built) == 37

    @pytest.mark.parametrize(
        "name", sorted(set(PROCEDURES) - set(BUILT)), ids=lambda n: n.removeprefix("rpc_")
    )
    def test_a_hand_written_method_has_its_table_signature(self, name):
        written = vars(CricketClient)[client_method(PROCEDURES[name])]
        assert shape(written) == shape(_forwarder(name))

    def test_every_procedure_is_implemented_once(self):
        implemented = {n for n in vars(CricketImplementation) if n.startswith("rpc_")}
        assert implemented == set(PROCEDURES) == set(SIGNATURES)


#: server procedures whose body only calls the executor method of its name
DERIVED = sorted(
    ["rpc_cudaGetDeviceCount", "rpc_cudaSetDevice", "rpc_cudaGetDevice",
     "rpc_cudaDeviceSynchronize", "rpc_cudaGetLastError", "rpc_cudaPeekAtLastError",
     "rpc_cudaFree", "rpc_cudaMemset"]
    + ["rpc_cudaStream" + n for n in ("Create", "Destroy", "Synchronize", "WaitEvent")]
    + ["rpc_cudaEvent" + n for n in ("Create", "Destroy", "Record", "Synchronize", "ElapsedTime")]
    + ["rpc_cuModule" + n for n in ("Unload", "GetFunction", "GetGlobal")]
    + ["rpc_cublasCreate", "rpc_cublasDestroy", "rpc_cusolverDnCreate", "rpc_cusolverDnDestroy"]
    + ["rpc_cufft" + n for n in ("Plan1d", "Destroy", "ExecC2C", "ExecR2C")]
)


#: (method name prefix, the executor its procedures reach), first match wins
OWNERS = (
    ("cuModule", "driver"), ("cublas", "blas"), ("cufft", "fft"), ("cusolver", "solver"),
    ("cuda", "runtime"),
)


class Executor:
    """Records the one call a procedure body makes on it."""

    def __init__(self, label, calls):
        self.label, self.calls = label, calls

    def __getattr__(self, method):
        def call(*args):
            self.calls.append((self.label, method, args))
            return f"<{method} result>"

        return call


class TestPassThroughBodies:
    def test_the_table_derives_every_pass_through_and_nothing_else(self):
        derived = {
            name for name, fn in vars(CricketImplementation).items()
            if hasattr(getattr(fn, "body", None), "source")
        }
        assert sorted(derived) == DERIVED
        assert len(DERIVED) == 28

    @pytest.mark.parametrize("name", DERIVED, ids=lambda n: n.removeprefix("rpc_"))
    def test_a_derived_body_calls_its_namesake(self, name):
        """The body calls the method of its name, on the one executor that
        defines it, with its arguments in order, and returns what it returns."""
        calls = []
        impl = CricketImplementation.__new__(CricketImplementation)
        impl.runtime = Executor("runtime", calls)
        impl._server = SimpleNamespace(**{
            context: Executor(context, calls) for context in ("driver", "blas", "fft", "solver")
        })
        method = name.removeprefix("rpc_")
        executor = next(e for prefix, e in OWNERS if method.startswith(prefix))
        args = tuple(f"<arg{i}>" for i in range(len(SIGNATURES[name].arg_types)))
        returned = vars(CricketImplementation)[name].body(impl, *args)
        assert calls == [(executor, method, args)]
        assert returned == f"<{method} result>"

    def test_a_procedure_no_executor_defines_is_refused(self, monkeypatch):
        monkeypatch.setitem(SIGNATURES, "rpc_cudaNoSuchCall", SIGNATURES["rpc_cudaFree"])
        with pytest.raises(RuntimeError, match="0 executors define cudaNoSuchCall"):
            _pass_through("rpc_cudaNoSuchCall")

    def test_a_procedure_two_executors_define_is_refused(self, monkeypatch):
        monkeypatch.setattr(CudaDriver, "cudaFree", lambda self, ptr: 0, raising=False)
        with pytest.raises(RuntimeError, match="2 executors define cudaFree"):
            _pass_through("rpc_cudaFree")


class FakeStub:
    """Answers its one procedure with ``reply`` and records the arguments."""

    def __init__(self, name, reply):
        self.name, self.reply, self.args = name, reply, None

    def __getattr__(self, attr):
        assert attr == self.name

        def call(*args):
            self.args = args
            return self.reply

        return call


def forward(name, err):
    """Call procedure ``name``'s built client method against a stub that
    answers ``err`` (and ``<field>`` for each other result field).

    The method gets ``<parameter>`` for each parameter, or ``handle=7``
    when it takes keywords.  Returns ``(the arguments that gives the stub,
    the arguments the stub saw, the method's return value)``.
    """
    fields = result_fields(name)
    reply = err if fields is None else {f: err if f == "err" else f"<{f}>" for f in fields}
    client = CricketClient.__new__(CricketClient)
    client.stub = FakeStub(name, reply)
    method = getattr(client, client_method(PROCEDURES[name]))
    params = inspect.signature(method).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        sent, returned = ({"handle": 7},), method(handle=7)
    else:
        sent = tuple(f"<{p.name}>" for p in params)
        returned = method(*sent)
    return sent, client.stub.args, returned


#: the CUDA call a failure names, where it is not the procedure's own name
#: without ``rpc_`` (with ``<parameter>`` for each argument)
CALL_NAMES = {
    "rpc_cudaMalloc": "cudaMalloc(<size>)",
    "rpc_cudaMemcpyH2D": "cudaMemcpy H2D",
    "rpc_cudaMemcpyD2D": "cudaMemcpy D2D",
    "rpc_cudaMemcpyH2DAsync": "cudaMemcpyAsync H2D",
    "rpc_cuModuleGetGlobal": "cuModuleGetGlobal(<name>)",
    "rpc_cusolverDnDgetrfBufferSize": "cusolverDnDgetrf_bufferSize",
}


@pytest.mark.parametrize("name", BUILT, ids=lambda n: n.removeprefix("rpc_"))
class TestBuiltForwarders:
    def test_arguments_go_to_the_stub_in_order(self, name):
        sent, seen, _ = forward(name, 0)
        assert seen == sent

    def test_a_successful_call_returns_the_other_result_fields(self, name):
        _, _, returned = forward(name, 0)
        fields = result_fields(name)
        if fields is None:
            assert returned is None
        elif len(fields) == 2:
            assert returned == f"<{fields[1]}>"
        else:
            assert returned == tuple(f"<{f}>" for f in fields[1:])

    def test_a_failed_call_names_its_cuda_call(self, name):
        with pytest.raises(CudaError) as err:
            forward(name, C.cudaErrorInvalidValue)
        assert err.value.code == C.cudaErrorInvalidValue
        call = CALL_NAMES.get(name, name.removeprefix("rpc_"))
        assert str(err.value) == f"cudaErrorInvalidValue: {call}"


def test_get_global_returns_pointer_and_size():
    server = CricketServer()
    client = CricketClient.loopback(server)
    lut = bytes(range(1, 25))
    module = client.module_load(build_cubin(
        [KernelMeta.from_kinds("_Z9nopKernelv", ())], globals_=[GlobalMeta("lut", 24, lut)]
    ))
    ptr, size = client.get_global(module, "lut")
    assert size == 24
    assert client.memcpy_d2h(ptr, size) == lut


# -- a corrupted description fails a named test ---------------------------------


def reordered(sig):
    """``sig`` with its result struct's last two fields swapped."""
    struct = sig.result_type
    *head, a, b = struct.fields
    return replace(sig, result_type=xt.StructType(struct.name, [*head, b, a]))


def rebuild(monkeypatch, name, side, corruption):
    """Rebuild one side's code for procedure ``name`` from a corrupted
    description: ``corruption`` replaces table facts, is ``reordered`` for
    its ``cricket.x`` result struct, or (``side`` "body") names the wrong
    executor method for its derived body.  The description itself is
    restored right away; only the rebuilt code stays patched in."""
    with monkeypatch.context() as patch:
        if corruption is reordered:
            patch.setitem(SIGNATURES, name, reordered(SIGNATURES[name]))
        elif side != "body":
            patch.setitem(PROCEDURES, name, replace(PROCEDURES[name], **corruption))
        if side == "body":
            owner, attr = CricketImplementation, name
            built = _serialised(_pass_through(f"rpc_{corruption}"), name)
        elif side == "server":
            owner, attr = CricketImplementation, name
            built = _serialised(vars(CricketImplementation)[name].body, name)
        else:
            owner, attr = CricketClient, client_method(PROCEDURES[name])
            built = _forwarder(name)
    monkeypatch.setattr(owner, attr, built)


#: fact the generic paths derive -> (procedure, side rebuilt, corruption,
#: the named test that must fail)
CORRUPTIONS = {
    "ledger-create": (
        "rpc_cudaStreamCreate", "server", {"creates": None},
        lambda: TestLedgerKinds().test_create_records_one_entry_on_the_current_device(
            "streams", 1),
    ),
    "ledger-forget": (
        "rpc_cuModuleUnload", "server", {"destroys": None},
        lambda: TestLedgerKinds().test_destroy_forgets_the_entry("modules", 0),
    ),
    "result-struct": (
        "rpc_cuModuleGetGlobal", "server", reordered, test_get_global_returns_pointer_and_size,
    ),
    "result-unpacking": (
        "rpc_cuModuleGetGlobal", "client", reordered, test_get_global_returns_pointer_and_size,
    ),
    "executor-method": (
        "rpc_cudaStreamDestroy", "body", "cudaEventDestroy",
        lambda: TestPassThroughBodies().test_a_derived_body_calls_its_namesake(
            "rpc_cudaStreamDestroy"),
    ),
    "error-name": (
        "rpc_cudaMalloc", "client", {"call": "cudaFree"},
        lambda: TestBuiltForwarders().test_a_failed_call_names_its_cuda_call("rpc_cudaMalloc"),
    ),
}


@pytest.mark.parametrize("row", CORRUPTIONS)
def test_a_corrupted_table_entry_fails_its_named_test(monkeypatch, row):
    name, side, corruption, named_test = CORRUPTIONS[row]
    named_test()  # the control: the true description passes
    rebuild(monkeypatch, name, side, corruption)
    with pytest.raises(AssertionError):
        named_test()
