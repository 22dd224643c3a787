"""The Cricket RPC interface specification (RPCL).

Cricket describes its client<->server interface in an rpcgen ``.x`` file
(``cpu_rpc_prot.x`` upstream); RPC-Lib consumes the same file to generate
the Rust client.  Our equivalent specification ships as package data
(``cricket.x``) and covers the CUDA runtime API, the ``cuModule`` driver
API added by the paper, cuBLAS/cuSOLVER subsets used by the proxy
applications, and Cricket's checkpoint/restart entry points.

Results follow Cricket's convention of pairing every return value with the
CUDA error code in a small result struct (``int_result``, ``ptr_result``,
``mem_result``, ...).
"""

from __future__ import annotations

import functools
from importlib import resources

CRICKET_PROG_NAME = "RPC_CD_PROG"
CRICKET_VERS = 1

#: The interface definition, read from the packaged ``cricket.x`` file --
#: the same artifact rpcgen and RPC-Lib would consume.
CRICKET_SPEC: str = (
    resources.files("repro.cricket").joinpath("cricket.x").read_text("utf-8")
)


@functools.lru_cache(maxsize=None)
def cricket_interface():
    """The compiled Cricket program interface, parsed once per process.

    Clients and servers bind to the same
    :class:`~repro.rpcl.stubgen.ProgramInterface`: it is read-only after
    compilation (signatures and XDR types), so sharing it is safe.
    """
    from repro.rpcl.stubgen import ProgramInterface

    return ProgramInterface.from_source(CRICKET_SPEC, CRICKET_PROG_NAME, CRICKET_VERS)
