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

What the ``.x`` file cannot say about a procedure -- does it change server
state, may it skip the overload queue, does it run under the dispatch
lock, which ledger entry does it create or destroy -- is said once, in
:data:`PROCEDURES`.  The server, replication and the leadership fence read
it from there; importing this module checks that the table and the
compiled interface name exactly the same procedures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

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
    """The server-side facts about one Cricket procedure."""

    #: changes server state: shipped to the standby, shed while fenced
    mutating: bool = False
    #: never queued behind the overload backlog
    overload_exempt: bool = False
    #: runs outside the dispatch lock and charges no dispatch
    unlocked: bool = False
    #: ledger kind of the resource a successful call creates / destroys
    creates: str | None = None
    destroys: str | None = None


_READ = Procedure()
_WRITE = Procedure(mutating=True)


def _creates(kind: str) -> Procedure:
    return Procedure(mutating=True, creates=kind)


def _destroys(kind: str) -> Procedure:
    return Procedure(mutating=True, destroys=kind)


#: Every procedure of ``cricket.x``, by name.  A read is safe to re-execute
#: after failover; everything else is shipped to the standby.
PROCEDURES: dict[str, Procedure] = {
    # device management: selection and reset change runtime state;
    # GetLastError reads *and clears* the sticky error code
    "rpc_cudaGetDeviceCount": _READ,
    "rpc_cudaSetDevice": _WRITE,
    "rpc_cudaGetDevice": _READ,
    "rpc_cudaDeviceSynchronize": _READ,
    "rpc_cudaDeviceReset": _WRITE,
    "rpc_cudaGetDeviceProperties": _READ,
    "rpc_cudaGetLastError": _WRITE,
    "rpc_cudaPeekAtLastError": _READ,
    # memory
    "rpc_cudaMalloc": _creates("allocations"),
    "rpc_cudaFree": _destroys("allocations"),
    "rpc_cudaMemcpyH2D": _WRITE,
    "rpc_cudaMemcpyD2H": _READ,
    "rpc_cudaMemcpyD2D": _WRITE,
    "rpc_cudaMemset": _WRITE,
    "rpc_cudaMemcpyH2DAsync": _WRITE,
    "rpc_cudaMemcpyD2HAsync": _READ,
    # streams and events: record and wait-event mutate virtual-time state
    "rpc_cudaStreamCreate": _creates("streams"),
    "rpc_cudaStreamDestroy": _destroys("streams"),
    "rpc_cudaStreamSynchronize": _READ,
    "rpc_cudaEventCreate": _creates("events"),
    "rpc_cudaEventDestroy": _destroys("events"),
    "rpc_cudaEventRecord": _WRITE,
    "rpc_cudaEventSynchronize": _READ,
    "rpc_cudaEventElapsedTime": _READ,
    "rpc_cudaStreamWaitEvent": _WRITE,
    # modules and launches: GetFunction allocates a fresh handle per call
    "rpc_cuModuleLoadData": _creates("modules"),
    "rpc_cuModuleUnload": _destroys("modules"),
    "rpc_cuModuleGetFunction": _WRITE,
    "rpc_cuModuleGetGlobal": _READ,
    "rpc_cuLaunchKernel": _WRITE,
    # libraries: compute writes its results into device memory
    "rpc_cublasCreate": _creates("blas_handles"),
    "rpc_cublasDestroy": _destroys("blas_handles"),
    "rpc_cublasSgemm": _WRITE,
    "rpc_cublasDgemm": _WRITE,
    "rpc_cufftPlan1d": _creates("fft_plans"),
    "rpc_cufftDestroy": _destroys("fft_plans"),
    "rpc_cufftExecC2C": _WRITE,
    "rpc_cufftExecR2C": _WRITE,
    "rpc_cusolverDnCreate": _creates("solver_handles"),
    "rpc_cusolverDnDestroy": _destroys("solver_handles"),
    "rpc_cusolverDnDgetrfBufferSize": _READ,
    "rpc_cusolverDnDgetrf": _WRITE,
    "rpc_cusolverDnDgetrs": _WRITE,
    # checkpoint / restart: restoring rewrites everything
    "rpc_checkpoint": _READ,
    "rpc_restore": _WRITE,
    # the idle-client lease heartbeat and the way overloaded work gets
    # aborted may not queue behind the backlog they exist to manage; a
    # cancel's target may be executing right now, holding the lock
    "rpc_ping": Procedure(overload_exempt=True),
    "rpc_cancel": Procedure(overload_exempt=True, unlocked=True),
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


def _check_table(signatures) -> None:
    """The table and ``cricket.x`` agree, and each kind has one creator and one destroyer."""
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


_SIGNATURES = cricket_interface().signatures
_check_table(_SIGNATURES)

#: Numbers of the procedures shipped to the standby and fenced.
MUTATING_PROCS = frozenset(_SIGNATURES[n].number for n in MUTATING_PROC_NAMES)
#: Numbers of the procedures overload admission never queues.
OVERLOAD_EXEMPT_PROCS = frozenset(
    _SIGNATURES[n].number for n, p in PROCEDURES.items() if p.overload_exempt
)
