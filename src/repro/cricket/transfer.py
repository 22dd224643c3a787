"""Cricket's device-memory transfer methods.

§4.2 of the paper: Cricket implements four ways to move memory between
applications and devices --

1. **RPC arguments** -- data travels inside the RPC message over the one
   TCP connection.  Single-threaded, CPU-bound, and the only method the
   unikernels support; the whole evaluation uses it.
2. **Parallel sockets** -- N worker threads over N TCP connections; a
   staging buffer is still needed before the data moves to the GPU, so the
   full line rate remains out of reach.
3. **InfiniBand with GPUDirect RDMA** -- zero-copy straight into device
   memory, eliminating the staging buffer; highest bandwidth.
4. **Shared memory** -- for a client on the GPU node itself.

Only RPC arguments move real bytes here: that is
:class:`~repro.cricket.client.CricketClient`'s memcpy path.  The other
three methods are priced by :class:`TransferTimingModel` alone, which is
what the §4.2 ablation (:mod:`repro.harness.ablation`) compares.
``supported_on`` encodes the paper's support matrix (unikernels: RPC
arguments only).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.link import LinkModel
from repro.unikernel.platform import Platform


class TransferMethod(enum.Enum):
    """The four Cricket memory-transfer methods."""

    RPC_ARGS = "rpc-args"
    PARALLEL_SOCKETS = "parallel-sockets"
    IB_GPUDIRECT = "ib-gpudirect"
    SHARED_MEMORY = "shared-memory"


def supported_on(method: TransferMethod, platform: Platform) -> bool:
    """The paper's support matrix.

    Unikernels (and the Rust client generally, at the time of the paper)
    only support RPC-argument transfers: no InfiniBand drivers, no host
    shared memory, no multi-socket transfer threads.  Native C clients
    support everything; a Linux VM could use parallel sockets.
    """
    if method is TransferMethod.RPC_ARGS:
        return True
    if platform.os_name in ("Unikraft", "Hermit"):
        return False
    if method is TransferMethod.PARALLEL_SOCKETS:
        return True
    if method is TransferMethod.IB_GPUDIRECT:
        return not platform.virtualized  # needs the real HCA
    if method is TransferMethod.SHARED_MEMORY:
        return not platform.virtualized  # client must run on the GPU node
    return False


@dataclass(frozen=True)
class TransferTimingModel:
    """Analytic per-method timing used by the §4.2 ablation."""

    link: LinkModel
    #: single-core staging-copy rate on the server, bytes/s
    staging_rate_Bps: float = 5.0e9
    #: PCIe rate into the device, bytes/s
    pcie_Bps: float = 26e9
    #: host shared-memory copy rate, bytes/s
    shm_rate_Bps: float = 12e9
    #: InfiniBand verbs setup per transfer, seconds
    ib_setup_s: float = 15e-6

    def parallel_sockets_s(self, nbytes: int, client_rate_Bps: float, threads: int) -> float:
        """N sockets: per-byte work parallelized, but a staging buffer
        remains between socket receive and the GPU copy."""
        if threads < 1:
            raise ValueError("need at least one transfer thread")
        network_s = self.link.latency_s + nbytes / min(
            client_rate_Bps * threads, self.link.line_rate_Bps
        )
        staging_s = nbytes / self.staging_rate_Bps
        pcie_s = nbytes / self.pcie_Bps
        return network_s + staging_s + pcie_s

    def ib_gpudirect_s(self, nbytes: int) -> float:
        """GPUDirect RDMA: no staging buffer; bounded by wire and PCIe."""
        rate = min(self.link.line_rate_Bps, self.pcie_Bps)
        return self.ib_setup_s + self.link.latency_s + nbytes / rate

    def shared_memory_s(self, nbytes: int) -> float:
        """Same-host transfer through a shared segment plus PCIe."""
        return nbytes / self.shm_rate_Bps + nbytes / self.pcie_Bps

