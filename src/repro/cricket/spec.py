"""The Cricket RPC interface specification (RPCL) and its procedure table.

Cricket describes its client<->server interface in an rpcgen ``.x`` file
(``cpu_rpc_prot.x`` upstream); RPC-Lib consumes the same file to generate
the Rust client.  Our equivalent specification ships as package data
(``cricket.x``) and covers the CUDA runtime API, the ``cuModule`` driver
API added by the paper, cuBLAS/cuSOLVER subsets used by the proxy
applications, and Cricket's checkpoint/restart entry points.

Results follow Cricket's convention of pairing every return value with the
CUDA error code in a small result struct (``int_result``, ``ptr_result``,
``mem_result``, ...).

``cricket.x`` and :data:`PROCEDURES` together are the one description of
each procedure.  The table says what the ``.x`` file cannot: the public
client method that calls it (its signature, defaults included) and the
CUDA call its errors name, whether it changes server state, may skip the
overload queue or runs outside the dispatch lock, which ledger entry it
creates or destroys, and whether its bulk argument goes to device memory.
:class:`~repro.cricket.client.CricketClient` builds every plain forwarder
from the two; the server's dispatch wrapper keeps each call's ledger entry
and builds its result struct, so an ``rpc_*`` body keeps only its executor
call, and the server generates every body that is nothing but the call of
the executor method of its name; replication and the leadership fence read
which procedures mutate.
Importing this module checks that the table and the compiled interface
agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from repro.xdr import INT, StructType

CRICKET_PROG_NAME = "RPC_CD_PROG"
CRICKET_VERS = 1

#: The interface definition, read from the packaged ``cricket.x`` file --
#: the same artifact rpcgen and RPC-Lib would consume.
CRICKET_SPEC: str = (
    resources.files("repro.cricket").joinpath("cricket.x").read_text("utf-8")
)

#: The seven kinds of server-side resource a session ledger tracks, in
#: checkpoint key order.  Each is created by one procedure and destroyed by
#: another (``Procedure.creates`` / ``Procedure.destroys``).
LEDGER_KINDS = (
    "allocations",
    "streams",
    "events",
    "modules",
    "blas_handles",
    "solver_handles",
    "fft_plans",
)


@dataclass(frozen=True)
class Procedure:
    """The facts about one Cricket procedure that ``cricket.x`` cannot say."""

    #: the public :class:`~repro.cricket.client.CricketClient` method that
    #: calls it, as the signature it is built or written with
    client: str
    #: the CUDA call a :class:`~repro.cuda.errors.CudaError` from that
    #: method names, an f-string over its parameters; empty for the
    #: procedure's own name without ``rpc_``
    call: str = ""
    #: changes server state: shipped to the standby, shed while fenced
    mutating: bool = False
    #: never queued behind the overload backlog
    overload_exempt: bool = False
    #: runs outside the dispatch lock and charges no dispatch
    unlocked: bool = False
    #: ledger kind of the resource a successful call creates / destroys
    creates: str | None = None
    destroys: str | None = None
    #: its bulk opaque is written to device memory at the pointer its first
    #: argument names, so the server receives it into a landing sized
    #: against that allocation (:class:`repro.gpu.memory.Landing`)
    lands: bool = False


def _read(client: str, call: str = "", **facts) -> Procedure:
    return Procedure(client, call, **facts)


def _write(client: str, call: str = "", **facts) -> Procedure:
    return Procedure(client, call, mutating=True, **facts)


#: Every procedure of ``cricket.x``, by name.  A read is safe to re-execute
#: after failover; everything else is shipped to the standby.
PROCEDURES: dict[str, Procedure] = {
    # device management: selection and reset change runtime state;
    # GetLastError reads *and clears* the sticky error code
    "rpc_cudaGetDeviceCount": _read("get_device_count()"),
    "rpc_cudaSetDevice": _write("set_device(ordinal)"),
    "rpc_cudaGetDevice": _read("get_device()"),
    "rpc_cudaDeviceSynchronize": _read("device_synchronize()"),
    "rpc_cudaDeviceReset": _write("device_reset()"),
    "rpc_cudaGetDeviceProperties": _read("get_device_properties(ordinal)"),
    "rpc_cudaGetLastError": _write("get_last_error()"),
    "rpc_cudaPeekAtLastError": _read("peek_last_error()"),
    # memory
    "rpc_cudaMalloc": _write("malloc(size)", "cudaMalloc({size})", creates="allocations"),
    "rpc_cudaFree": _write("free(ptr)", destroys="allocations"),
    "rpc_cudaMemcpyH2D": _write("memcpy_h2d(dst, data)", "cudaMemcpy H2D", lands=True),
    "rpc_cudaMemcpyD2H": _read("memcpy_d2h(src, size)"),
    "rpc_cudaMemcpyD2D": _write("memcpy_d2d(dst, src, size)", "cudaMemcpy D2D"),
    "rpc_cudaMemset": _write("memset(ptr, value, size)"),
    "rpc_cudaMemcpyH2DAsync": _write(
        "memcpy_h2d_async(dst, data, stream)", "cudaMemcpyAsync H2D", lands=True
    ),
    "rpc_cudaMemcpyD2HAsync": _read("memcpy_d2h_async(src, size, stream)"),
    # streams and events: record and wait-event mutate virtual-time state
    "rpc_cudaStreamCreate": _write("stream_create()", creates="streams"),
    "rpc_cudaStreamDestroy": _write("stream_destroy(handle)", destroys="streams"),
    "rpc_cudaStreamSynchronize": _read("stream_synchronize(handle)"),
    "rpc_cudaEventCreate": _write("event_create()", creates="events"),
    "rpc_cudaEventDestroy": _write("event_destroy(handle)", destroys="events"),
    "rpc_cudaEventRecord": _write("event_record(event, stream=0)"),
    "rpc_cudaEventSynchronize": _read("event_synchronize(event)"),
    "rpc_cudaEventElapsedTime": _read("event_elapsed_ms(start, stop)"),
    "rpc_cudaStreamWaitEvent": _write("stream_wait_event(stream, event)"),
    # modules and launches: GetFunction allocates a fresh handle per call
    "rpc_cuModuleLoadData": _write("module_load(image)", creates="modules"),
    "rpc_cuModuleUnload": _write("module_unload(module)", destroys="modules"),
    "rpc_cuModuleGetFunction": _write("get_function(module, name, meta)"),
    "rpc_cuModuleGetGlobal": _read("get_global(module, name)", "cuModuleGetGlobal({name})"),
    "rpc_cuLaunchKernel": _write(
        "launch_kernel(function, grid, block, args, *, shared_mem=0, stream=0)"
    ),
    # libraries: compute writes its results into device memory
    "rpc_cublasCreate": _write("cublas_create()", creates="blas_handles"),
    "rpc_cublasDestroy": _write("cublas_destroy(handle)", destroys="blas_handles"),
    "rpc_cublasSgemm": _write("cublas_sgemm(**kwargs)"),
    "rpc_cublasDgemm": _write("cublas_dgemm(**kwargs)"),
    "rpc_cufftPlan1d": _write("cufft_plan1d(nx, fft_type, batch=1)", creates="fft_plans"),
    "rpc_cufftDestroy": _write("cufft_destroy(plan)", destroys="fft_plans"),
    "rpc_cufftExecC2C": _write("cufft_exec_c2c(plan, idata, odata, direction)"),
    "rpc_cufftExecR2C": _write("cufft_exec_r2c(plan, idata, odata)"),
    "rpc_cusolverDnCreate": _write("cusolver_create()", creates="solver_handles"),
    "rpc_cusolverDnDestroy": _write("cusolver_destroy(handle)", destroys="solver_handles"),
    "rpc_cusolverDnDgetrfBufferSize": _read(
        "cusolver_getrf_buffer_size(handle, n, a_ptr, lda)", "cusolverDnDgetrf_bufferSize"
    ),
    "rpc_cusolverDnDgetrf": _write("cusolver_getrf(**kwargs)"),
    "rpc_cusolverDnDgetrs": _write("cusolver_getrs(**kwargs)"),
    # checkpoint / restart: restoring rewrites everything
    "rpc_checkpoint": _read("checkpoint()"),
    "rpc_restore": _write("restore(blob)"),
    # the idle-client lease heartbeat and the way overloaded work gets
    # aborted may not queue behind the backlog they exist to manage; a
    # cancel's target may be executing right now, holding the lock
    "rpc_ping": _read("renew_lease()", overload_exempt=True),
    "rpc_cancel": _read("cancel(xid)", overload_exempt=True, unlocked=True),
}

#: Names of the procedures shipped to the standby and fenced.
MUTATING_PROC_NAMES = frozenset(n for n, p in PROCEDURES.items() if p.mutating)


@functools.lru_cache(maxsize=None)
def cricket_interface():
    """The compiled Cricket program interface, parsed once per process.

    Clients and servers bind to the same
    :class:`~repro.rpcl.stubgen.ProgramInterface`: it is read-only after
    compilation (signatures and XDR types), so sharing it is safe.
    """
    from repro.rpcl.stubgen import ProgramInterface

    return ProgramInterface.from_source(CRICKET_SPEC, CRICKET_PROG_NAME, CRICKET_VERS)


def client_method(proc: Procedure) -> str:
    """The name of the client method ``proc.client`` describes."""
    return proc.client.partition("(")[0]


def result_fields(name: str) -> tuple[str, ...] | None:
    """The fields of procedure ``name``'s ``cricket.x`` result struct, in
    wire order (``err`` first), or None for a bare ``int`` result."""
    result = cricket_interface().signatures[name].result_type
    return tuple(f.name for f in result.fields) if type(result) is StructType else None


def _check_table(signatures) -> None:
    """The table and ``cricket.x`` agree, each kind has one creator and one
    destroyer, each client method is named once, and every result is an
    ``err`` or a struct that opens with it."""
    if set(PROCEDURES) != set(signatures):
        raise RuntimeError(
            "procedure table and cricket.x disagree: "
            f"only in the table {sorted(set(PROCEDURES) - set(signatures))}, "
            f"only in cricket.x {sorted(set(signatures) - set(PROCEDURES))}"
        )
    for side in ("creates", "destroys"):
        kinds = sorted(getattr(p, side) for p in PROCEDURES.values() if getattr(p, side))
        if kinds != sorted(LEDGER_KINDS):
            raise RuntimeError(f"procedure table {side} {kinds}, ledger kinds {LEDGER_KINDS}")
    methods = [client_method(p) for p in PROCEDURES.values()]
    if len(set(methods)) != len(methods):
        raise RuntimeError(f"procedure table names a client method twice: {sorted(methods)}")
    for name, proc in PROCEDURES.items():
        result = signatures[name].result_type
        if result is not INT and (
            type(result) is not StructType or result.fields[0].name != "err"
        ):
            raise RuntimeError(f"{name} returns neither an int nor a struct that opens with err")
        split = signatures[name].args_split
        if proc.lands and (split is None or split.prefix.format[:2] != ">Q"):
            raise RuntimeError(f"{name} lands, but its arguments do not open with a pointer")


_SIGNATURES = cricket_interface().signatures
_check_table(_SIGNATURES)

#: Numbers of the procedures shipped to the standby and fenced.
MUTATING_PROCS = frozenset(_SIGNATURES[n].number for n in MUTATING_PROC_NAMES)
#: Numbers of the procedures overload admission never queues.
OVERLOAD_EXEMPT_PROCS = frozenset(
    _SIGNATURES[n].number for n, p in PROCEDURES.items() if p.overload_exempt
)
