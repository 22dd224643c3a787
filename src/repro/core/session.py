"""GpuSession: the public API of the reproduction.

A :class:`GpuSession` is what a unikernel application holds in Figure 4:
the RPC-Lib client bound to a Cricket server, with Rust-style safe wrappers
on top.  One call stands up the whole simulated testbed -- GPU node,
Cricket server, platform-modelled client -- and exposes:

* lifetime-checked device buffers (:meth:`GpuSession.alloc`),
* cubin module loading and kernel launches (:meth:`GpuSession.load_module`),
* raw CUDA calls through :attr:`GpuSession.client`,
* virtual-time measurement (:meth:`GpuSession.measure`) standing in for
  the paper's GNU ``time`` methodology.

Example::

    from repro import GpuSession, SessionConfig
    from repro.unikernel import rustyhermit

    with GpuSession(SessionConfig(platform=rustyhermit())) as session:
        buf = session.alloc(4096)
        buf.write(b"\\x00" * 4096)
        print(session.client.get_device_count())
"""

from __future__ import annotations

from typing import Any

from repro.core.buffer import DeviceBuffer
from repro.core.config import SessionConfig
from repro.core.module import Module
from repro.cricket.client import CricketClient
from repro.cricket.server import CricketServer
from repro.cubin.loader import build_cubin_for_registry
from repro.gpu.device import GpuDevice
from repro.net.simclock import SimClock, Stopwatch


class GpuSession:
    """An application's connection to a (simulated) Cricket GPU cluster."""

    def __init__(
        self,
        config: SessionConfig | None = None,
        *,
        server: CricketServer | None = None,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        #: whether this session built its server (and so closes it)
        self._owns_server = server is None
        if server is None:
            device = GpuDevice(
                self.config.gpu,
                execute=self.config.execute,
                mem_bytes=self.config.device_mem_bytes,
            )
            server = CricketServer([device], clock=SimClock())
        self.server = server
        self.clock: SimClock = server.clock
        self.client = CricketClient.loopback(
            server,
            platform=self.config.platform,
            link=self.config.link,
            retry_policy=self.config.retry_policy,
            faults=self.config.faults,
        )
        self._stopwatch = Stopwatch(self.clock)

    # -- resources ----------------------------------------------------------

    def alloc(self, size: int) -> DeviceBuffer:
        """Allocate a lifetime-checked device buffer."""
        ptr = self.client.malloc(size)
        return DeviceBuffer(self, ptr, size)

    def upload(self, data: bytes | Any) -> DeviceBuffer:
        """Allocate a buffer sized to ``data``, any buffer, and upload its
        bytes (from where they are, unless the buffer is strided)."""
        buffer = self.alloc(memoryview(data).nbytes)
        buffer.write(data)
        return buffer

    def load_module(self, cubin_bytes: bytes) -> Module:
        """Ship a cubin to the server and return the module handle."""
        handle = self.client.module_load(cubin_bytes)
        return Module(self, handle, cubin_bytes)

    def load_builtin_module(self, kernel_names: list[str]) -> Module:
        """Build a cubin for kernels the server device already knows.

        Mirrors shipping a pre-compiled CUDA-samples cubin: the entry
        points exist as device code; the cubin carries names and parameter
        metadata.
        """
        cubin = build_cubin_for_registry(
            self.server.device.registry, kernel_names, arch=self.server.device.spec.arch
        )
        return self.load_module(cubin)

    # -- measurement --------------------------------------------------------------

    def measure(self):
        """Virtual-time stopwatch context (the GNU ``time`` of the harness)."""
        return self._stopwatch.measure()

    def charge_host_cpu(self, seconds: float) -> None:
        """Charge client-side host CPU time (input generation, parsing)."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.clock.advance_s(seconds)

    def generate_input(self, nbytes: int) -> None:
        """Charge the cost of generating ``nbytes`` of random input data.

        The rate comes from the platform's language profile -- this is the
        C-vs-Rust RNG difference the paper identifies in the histogram
        benchmark.
        """
        platform = self.config.platform
        self.charge_host_cpu(nbytes / platform.language.rng_rate_Bps)

    # -- tracing -----------------------------------------------------------------

    def enable_tracing(self):
        """Record every RPC with its virtual timing; returns the tracer.

        The tracer's :meth:`~repro.core.tracing.Tracer.summary` is the
        profile view the paper's §4 analysis relied on;
        :meth:`~repro.core.tracing.Tracer.save_chrome_trace` exports a
        timeline for chrome://tracing / Perfetto.
        """
        from repro.core.tracing import attach_tracer
        from repro.cricket.client import cricket_interface

        proc_names = {
            sig.number: name
            for name, sig in cricket_interface().signatures.items()
        }
        tracer = attach_tracer(self.client.stub.client, self.clock, proc_names)
        tracer.attach_counters(self.client.stats)
        server_stats = getattr(self.server, "server_stats", None)
        if server_stats is not None:
            # Both sides of the resilience story in one summary: client
            # retries/reconnects next to server reply-cache and session
            # lifecycle counters.
            tracer.attach_counters(server_stats)
        return tracer

    # -- stats -----------------------------------------------------------------

    @property
    def api_calls(self) -> int:
        """CUDA API calls issued so far (the paper's per-app call counts)."""
        return self.client.calls_made

    @property
    def bytes_transferred(self) -> int:
        """Bytes moved over the virtual wire, both directions."""
        return self.client.bytes_transferred

    def synchronize(self) -> None:
        """cudaDeviceSynchronize convenience."""
        self.client.device_synchronize()

    def close(self) -> None:
        """Tear down the client connection, and close the server if this
        session built it (:meth:`CricketServer.close`: freed as soon as the
        session is, its counters still readable)."""
        self.client.close()
        if self._owns_server:
            self.server.close()

    def __enter__(self) -> "GpuSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
