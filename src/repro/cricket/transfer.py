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

Every method implements the same interface: functionally move bytes into
or out of device memory, and charge the virtual clock with its own timing
model.  ``supported_on`` encodes the paper's support matrix (unikernels:
RPC arguments only).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cricket.client import CricketClient
from repro.gpu.device import GpuDevice
from repro.net.link import LinkModel
from repro.net.simclock import SimClock
from repro.unikernel.platform import Platform
from repro.xdr.encoder import Buffer


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


class TransferEngine:
    """Functionally moves memory with per-method virtual-time charging.

    The RPC-argument method delegates to a live :class:`CricketClient`
    (real wire path, time charged by the platform meter).  The other
    methods write directly into the device (they bypass the RPC data path
    by design) and charge their analytic models.
    """

    def __init__(
        self,
        client: CricketClient,
        device: GpuDevice,
        clock: SimClock,
        timing: TransferTimingModel,
        *,
        client_rate_Bps: float = 5.0e9,
    ) -> None:
        self.client = client
        self.device = device
        self.clock = clock
        self.timing = timing
        self.client_rate_Bps = client_rate_Bps

    def h2d(
        self,
        method: TransferMethod,
        dst: int,
        data: Buffer,
        *,
        threads: int = 4,
    ) -> None:
        """Host-to-device transfer of the bytes of ``data`` (any buffer)
        with the chosen method."""
        platform = self.client.platform
        if platform is not None and not supported_on(method, platform):
            raise NotImplementedError(
                f"{method.value} transfers are not supported on {platform.name}"
            )
        if method is TransferMethod.RPC_ARGS:
            self.client.memcpy_h2d(dst, data)
            return
        nbytes = memoryview(data).nbytes
        if method is TransferMethod.PARALLEL_SOCKETS:
            seconds = self.timing.parallel_sockets_s(nbytes, self.client_rate_Bps, threads)
        elif method is TransferMethod.IB_GPUDIRECT:
            seconds = self.timing.ib_gpudirect_s(nbytes)
        else:
            seconds = self.timing.shared_memory_s(nbytes)
        self.device.allocator.write(dst, data)
        self.clock.advance_s(seconds)

    def d2h(
        self,
        method: TransferMethod,
        src: int,
        size: int,
        *,
        threads: int = 4,
    ) -> bytes:
        """Device-to-host transfer with the chosen method."""
        platform = self.client.platform
        if platform is not None and not supported_on(method, platform):
            raise NotImplementedError(
                f"{method.value} transfers are not supported on {platform.name}"
            )
        if method is TransferMethod.RPC_ARGS:
            return self.client.memcpy_d2h(src, size)
        if method is TransferMethod.PARALLEL_SOCKETS:
            seconds = self.timing.parallel_sockets_s(size, self.client_rate_Bps, threads)
        elif method is TransferMethod.IB_GPUDIRECT:
            seconds = self.timing.ib_gpudirect_s(size)
        else:
            seconds = self.timing.shared_memory_s(size)
        data = self.device.allocator.read(src, size)
        self.clock.advance_s(seconds)
        return data
