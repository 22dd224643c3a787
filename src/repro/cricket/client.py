"""Cricket client: the virtualization layer seen by applications.

:class:`CricketClient` binds the generated RPCL stub to a transport and
exposes the CUDA surface with Python ergonomics (raises
:class:`~repro.cuda.errors.CudaError` on failure codes, returns plain
values).  It corresponds to the client side of Figure 3: the application
calls what looks like CUDA; every call becomes an ONC RPC to the Cricket
server.

Connection modes:

* :meth:`CricketClient.connect_tcp` -- a real TCP connection to a
  :class:`~repro.cricket.server.CricketServer` serving on a socket.
* :meth:`CricketClient.loopback` -- in-process dispatch with full record
  framing; used by experiments.  When a platform model is supplied, every
  message charges the experiment's virtual clock through a
  :class:`~repro.unikernel.platform.PlatformMeter` -- this is where the
  unikernel/VM/native distinction enters the reproduction.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Iterator

from repro.cricket import params as kparams
from repro.cricket.errors import CheckpointError
from repro.cricket.spec import PROCEDURES, client_method, cricket_interface, result_fields
from repro.cubin.metadata import KernelMeta
from repro.cuda.errors import CudaError
from repro.net.link import LinkModel
from repro.net.simclock import SimClock, WallClock
from repro.oncrpc.auth import client_token_from
from repro.oncrpc.transport import (
    ChecksummedTransport,
    LoopbackTransport,
    Transport,
    reconnect_if_supported,
)
from repro.resilience.failover import FailoverTransport, TcpEndpoint
from repro.resilience.faults import FaultInjectingTransport, FaultPlan
from repro.resilience.reconnect import ReconnectingTransport, null_probe
from repro.resilience.retry import RetryPolicy
from repro.resilience.stats import ResilienceStats
from repro.rpcl.stubgen import ClientStub
from repro.unikernel.platform import Platform, PlatformMeter, RpcPathModel
from repro.unikernel.presets import CRICKET_SERVER_DISPATCH_S, EVAL_LINK, NATIVE_STACK
from repro.xdr import INT


@functools.lru_cache(maxsize=64)
def _dim3(v: tuple[int, int, int]) -> dict[str, int]:
    # Shared between launches of the same geometry: the encoder only reads it.
    return {"x": int(v[0]), "y": int(v[1]), "z": int(v[2])}


_FORWARDER = """\
def {method}({params}):
    res = self.stub.{name}({args})
    if {err}:
        raise CudaError({err}, f{call!r})
    return {result}
"""


def _forwarder(name: str):
    """The client method :data:`~repro.cricket.spec.PROCEDURES` describes
    for procedure ``name``: the stub call, one ``err`` check raising
    :class:`CudaError` with the CUDA call's name, and the result struct's
    remaining field (or fields, as a tuple)."""
    proc = PROCEDURES[name]
    method, _, params = proc.client.removesuffix(")").partition("(")
    fields = result_fields(name)
    names = [p.split("=")[0].strip(" *") for p in params.split(",")]
    source = _FORWARDER.format(
        method=method,
        params=", ".join(["self", params]) if params else "self",
        name=name,
        args=", ".join(filter(None, names)),
        err='res["err"]' if fields else "res",
        call=proc.call or name.removeprefix("rpc_"),
        result=", ".join(f'res["{f}"]' for f in fields[1:]) if fields else "None",
    )
    namespace = {"CudaError": CudaError}
    exec(compile(source, f"<{name} forwarder>", "exec"), namespace)
    fn = namespace[method]
    fn.__module__ = __name__
    fn.__qualname__ = f"CricketClient.{method}"
    returns = f"; returns its {', '.join(fields[1:])}" if fields else ""
    fn.__doc__ = f"Forward ``{name}``: raises :class:`CudaError` on failure{returns}."
    fn.source = source
    return fn


def _table_methods(cls):
    """Give ``cls`` the table's forwarder for every procedure whose client
    method it does not write itself."""
    for name, proc in PROCEDURES.items():
        if client_method(proc) not in vars(cls):
            setattr(cls, client_method(proc), _forwarder(name))
    return cls


class CancelScope:
    """Collects the xids issued inside a :meth:`CricketClient.cancel_scope`."""

    def __init__(self, client: "CricketClient") -> None:
        self._client = client
        #: xids issued while the scope was active, in order
        self.xids: list[int] = []

    def _note(self, xid: int) -> None:
        self.xids.append(xid)

    def cancel_all(self) -> int:
        """Cancel every tracked call; returns how many the server matched.

        Completed calls simply miss (the server finds nothing to cancel),
        so it is safe to call this unconditionally.
        """
        hits = 0
        for xid in self.xids:
            try:
                if self._client.cancel(xid):
                    hits += 1
            except Exception:
                continue  # best effort: the scope is already unwinding
        return hits


@_table_methods
class CricketClient:
    """CUDA-over-RPC client used by applications and the harness.

    Each procedure of :data:`~repro.cricket.spec.PROCEDURES` has one public
    method here.  The plain forwarders (``malloc``, ``memcpy_h2d``,
    ``stream_create``, ``cublas_sgemm(**kwargs)``, ...) are built from the
    table and ``cricket.x`` (:func:`_forwarder`); the class body writes only
    the methods with real logic.  A bulk argument (``memcpy_h2d``'s
    ``data``, any C-contiguous buffer) is not copied: the request record
    references it and the socket gathers it from where it lives, so it
    must not change until the call returns.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        platform: Platform | None = None,
        clock: SimClock | WallClock | None = None,
        meter: PlatformMeter | None = None,
        retry_policy: RetryPolicy | None = None,
        stats: ResilienceStats | None = None,
        priority: int = 0,
    ) -> None:
        self.platform = platform
        self.clock = clock if clock is not None else SimClock()
        self.meter = meter
        #: retry/recovery counters shared with the RPC layer and transports
        self.stats = stats if stats is not None else ResilienceStats()
        self.retry_policy = retry_policy
        self.stub: ClientStub = cricket_interface().bind_client(
            transport,
            retry_policy=retry_policy,
            clock=self.clock,
            stats=self.stats,
            priority=priority,
        )
        #: first failed CUDA status among the batched replies a synchronous
        #: call drained off the wire; :meth:`flush` raises it
        self._drained_error: int | None = None
        self.stub.client.drain_observer = self._note_drained
        #: kernel-function metadata by function handle (for param packing)
        self._function_meta: dict[int, KernelMeta] = {}
        #: most recent checkpoint blob (taken by :meth:`checkpoint`)
        self._last_checkpoint: bytes | None = None
        #: mutable [server] cell for loopback clients (enables recovery
        #: onto a replacement server object)
        self._server_ref: list[Any] | None = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def loopback(
        cls,
        server: Any,
        *,
        platform: Platform | None = None,
        clock: SimClock | None = None,
        link: LinkModel = EVAL_LINK,
        fragment_size: int = 1 << 20,
        retry_policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        crc: bool | None = None,
        priority: int = 0,
    ) -> "CricketClient":
        """In-process client; charges virtual time when ``platform`` is given.

        ``server`` must expose ``dispatch_record`` (a
        :class:`~repro.cricket.server.CricketServer`); its clock is shared.
        ``faults`` wraps the transport in a deterministic
        :class:`~repro.resilience.faults.FaultInjectingTransport`; pair it
        with a ``retry_policy`` for the workload to survive.  ``crc``
        enables CRC32 integrity trailers on every record -- placed *above*
        the fault injector, so injected corruption is caught and
        retransmitted; the default (``None``) follows the server's
        ``crc_records`` setting so both ends always agree.
        """
        clock = clock if clock is not None else getattr(server, "clock", None) or SimClock()
        meter = None
        if platform is not None:
            path = RpcPathModel(client=platform, link=link, server_stack=NATIVE_STACK)
            meter = PlatformMeter(path, clock)
        session: dict = {}
        server_ref = [server]

        def dispatch(record):
            return server_ref[0].dispatch_record(record, session=session)

        def land(prefix):
            return server_ref[0].land(prefix)

        client = cls._assemble(
            lambda probe, stats: LoopbackTransport(
                dispatch, fragment_size=fragment_size, meter=meter, land=land
            ),
            faults=faults,
            crc=bool(getattr(server, "crc_records", False)) if crc is None else crc,
            platform=platform,
            clock=clock,
            meter=meter,
            retry_policy=retry_policy,
            priority=priority,
        )
        client._server_ref = server_ref
        return client

    @classmethod
    def failover(
        cls,
        endpoints,
        *,
        clock: SimClock | WallClock | None = None,
        retry_policy: RetryPolicy | None = None,
        crc: bool | None = None,
        ejector=None,
        priority: int = 0,
    ) -> "CricketClient":
        """High-availability client over an ordered endpoint list.

        ``endpoints`` is primary-first (see
        :class:`~repro.resilience.failover.LoopbackEndpoint` /
        :class:`~repro.resilience.failover.TcpEndpoint`).  When the active
        endpoint dies, the retry loop's reconnect walks the list to the
        next live one -- the ``AUTH_CLIENT_TOKEN`` identity makes the
        session portable, and a hot standby's replicated reply cache keeps
        at-most-once intact for retransmitted in-flight calls.  Pair with
        a ``retry_policy`` (otherwise the first transport error surfaces
        instead of failing over).  ``crc`` defaults to whatever the first
        endpoint's server negotiates, like :meth:`loopback`.

        ``ejector`` arms gray-failure outlier ejection (an
        :class:`~repro.resilience.health.OutlierEjector`); drive it with
        hedged probe rounds via ``client.failover_transport
        .probe_endpoints()`` and a limping-but-alive endpoint is removed
        from rotation statistically, something the liveness probe alone
        can never see.
        """
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("need at least one endpoint")
        if clock is None:
            primary = getattr(endpoints[0], "server", None)
            clock = getattr(primary, "clock", None) or SimClock()
        if crc is None:
            crc = any(
                bool(getattr(getattr(ep, "server", None), "crc_records", False))
                for ep in endpoints
            )
        client = cls._assemble(
            lambda probe, stats: FailoverTransport(
                endpoints, clock=clock, stats=stats, probe=probe, ejector=ejector
            ),
            crc=crc,
            clock=clock,
            retry_policy=retry_policy,
            priority=priority,
        )
        #: the FailoverTransport itself (below any CRC layer) -- hedged
        #: probe rounds and endpoint health live here
        client.failover_transport = client.stub.client.leader_sink
        return client

    @classmethod
    def connect_tcp(
        cls,
        host: str,
        port: int,
        *,
        fragment_size: int = 1 << 20,
        connect_timeout: float | None = 5.0,
        io_timeout: float | None = 30.0,
        retry_policy: RetryPolicy | None = None,
        crc: bool = False,
    ) -> "CricketClient":
        """Real-socket client (no virtual-time metering).

        The connection is held by a
        :class:`~repro.resilience.reconnect.ReconnectingTransport`, so a
        dead server surfaces as a timeout (not a hang) and the session can
        be re-established -- automatically by a ``retry_policy``, or
        explicitly through :meth:`recover`.

        Timing here is real: the session clock is a
        :class:`~repro.net.simclock.WallClock`, so retry backoff actually
        sleeps, the circuit breaker's open window is wall time, and
        ``retry_policy.deadline_s`` bounds real elapsed time.  (A SimClock
        would make all three instantaneous against a dead server.)
        """
        clock = WallClock()
        endpoint = TcpEndpoint(
            host,
            port,
            fragment_size=fragment_size,
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
        )
        return cls._assemble(
            lambda probe, stats: ReconnectingTransport(
                endpoint.connect, clock=clock, stats=stats, probe=probe
            ),
            crc=crc,
            clock=clock,
            retry_policy=retry_policy,
        )

    @classmethod
    def _assemble(
        cls,
        make_base: Callable[[Callable[[Transport], None], ResilienceStats], Transport],
        *,
        crc: bool,
        clock: SimClock | WallClock,
        faults: FaultPlan | None = None,
        **kwargs: Any,
    ) -> "CricketClient":
        """The client transport stack, in its only legal order.

        base (``make_base(probe, stats)``) → [``FaultInjectingTransport``
        when ``faults``] → [``ChecksummedTransport`` when ``crc``] → RPC
        client.  The checksum layer sits above the fault injector so
        injected corruption is caught and retransmitted.  ``probe`` is the
        NULL liveness probe a reconnecting base runs on each fresh
        connection -- *below* the checksum layer, so with ``crc`` it adds
        its own trailer (a ``crc_records`` server drops an unchecksummed
        call).  Every layer counts into one ``ResilienceStats``, and a
        leader-aware base (a ``FailoverTransport``) is what the RPC client
        feeds leadership epochs to.
        """
        stats = ResilienceStats()
        iface = cricket_interface()
        null = null_probe(iface.prog_number, iface.vers_number)

        def probe(transport: Transport) -> None:
            null(ChecksummedTransport(transport) if crc else transport)

        base = make_base(probe, stats)
        transport = base
        if faults is not None:
            transport = FaultInjectingTransport(transport, faults, clock=clock, stats=stats)
        if crc:
            transport = ChecksummedTransport(transport, stats=stats)
        client = cls(transport, clock=clock, stats=stats, **kwargs)
        if hasattr(base, "observe_leader"):
            client.stub.client.leader_sink = base
        return client

    # -- plumbing -----------------------------------------------------------

    @property
    def calls_made(self) -> int:
        """CUDA API calls issued over RPC (the quantity the paper counts)."""
        return self.stub.client.calls_made

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved over the wire in both directions."""
        if self.meter is None:
            return 0
        return self.meter.bytes_sent + self.meter.bytes_received

    @property
    def session_identity(self) -> str:
        """Server-side identity of this client's session.

        Matches the key the server's :class:`~repro.cricket.sessions.SessionManager`
        uses: the ``AUTH_CLIENT_TOKEN`` credential the RPC layer attaches
        to every call.
        """
        token = client_token_from(self.stub.client.cred)
        if token is not None:
            return f"token:{token.hex()}"
        return "loopback"

    @property
    def leader_epoch(self) -> int:
        """Newest leadership epoch this client has observed (0 = none).

        Fenced HA servers stamp their epoch on every reply verifier; the
        failover transport records the running maximum.  Clients of plain
        (unfenced) servers report 0.
        """
        sink = self.stub.client.leader_sink
        return sink.known_epoch if sink is not None else 0

    @property
    def active_endpoint_name(self) -> str:
        """Name of the endpoint the failover transport currently targets.

        Empty for non-failover transports.  After a fenced failover this
        converges on the new leader's endpoint name -- the simulation
        asserts exactly that.
        """
        sink = self.stub.client.leader_sink
        return getattr(sink.active_endpoint, "name", "") if sink is not None else ""

    def ping(self) -> None:
        """NULLPROC liveness check (and lease heartbeat, server-side).

        Raises :class:`~repro.oncrpc.errors.RpcError` if the server is not
        answering; returns nothing on success.  Cheaper than
        :meth:`renew_lease` -- no result decoding -- and safe at any time:
        procedure 0 has no side effects beyond renewing the lease.
        """
        self.stub.client.null_call()

    def renew_lease(self) -> int:
        """Explicit lease heartbeat (``rpc_ping``).

        Returns the remaining lease in nanoseconds
        (:data:`~repro.cricket.sessions.LEASE_FOREVER` when the server has
        leases disabled).  Every ordinary call already renews the lease;
        this is for clients that go idle longer than the lease interval.
        """
        res = self.stub.rpc_ping()
        self._check(res["err"], "ping")
        return res["value"]

    # -- cancellation -----------------------------------------------------------

    def cancel(self, xid: int) -> bool:
        """Ask the server to cancel a queued or in-flight call by xid.

        Returns True when a matching call was found (queued calls never
        execute; executing calls abort at their next safe point).  The
        cancelled call's own caller sees
        :class:`~repro.oncrpc.errors.RpcCancelled`, and a later
        retransmission of the same xid is answered from the at-most-once
        cache with the cancelled reply -- it is never re-executed.
        """
        res = self.stub.rpc_cancel(int(xid))
        self._check(res["err"], "rpc_cancel")
        return bool(res["value"])

    @contextlib.contextmanager
    def cancel_scope(self) -> Iterator["CancelScope"]:
        """Track every call issued inside the ``with`` block for cancellation.

        On an exception exit, every tracked call is cancelled server-side
        -- queued work is dropped, in-flight work aborts at its next safe
        point, and batched launches whose replies were never collected do
        not keep running for nobody.  The yielded scope also supports
        explicit :meth:`CancelScope.cancel_all` for non-exception flows.
        """
        rpc = self.stub.client
        scope = CancelScope(self)
        prev = rpc.xid_observer

        def observer(xid: int) -> None:
            scope._note(xid)
            if prev is not None:
                prev(xid)

        rpc.xid_observer = observer
        try:
            yield scope
        except BaseException:
            rpc.xid_observer = prev  # stop tracking before rpc_cancel's own xids
            scope.cancel_all()
            raise
        finally:
            rpc.xid_observer = prev

    def reattach(self) -> int:
        """Reclaim an orphaned session after transport loss.

        Forces a fresh connection (like :meth:`recover`) but restores
        nothing: if the server still holds this identity's session --
        i.e. the orphan grace period has not lapsed -- the heartbeat
        reattaches it and every allocation, stream and handle is exactly
        where it was.  Returns the renewed lease's remaining nanoseconds.
        Use :meth:`recover` instead once the grace period is gone.
        """
        reconnect_if_supported(self.stub.client.transport, force=True)
        return self.renew_lease()

    def _check(self, err: int, what: str) -> None:
        if err != 0:
            raise CudaError(err, what)

    def _charge_client_cpu(self, seconds: float) -> None:
        """Charge client-side CPU: metered platforms via the meter (so it
        lands before the next send), unmetered clients directly."""
        if seconds <= 0:
            return
        if self.meter is not None:
            self.meter.add_client_cpu_s(seconds)
        else:
            self.clock.advance_s(seconds)

    def close(self) -> None:
        """Close the RPC connection; a loopback client lets go of its server.

        The RPC client's drain observer (this client's bound method) goes
        too, so a closed client is freed as soon as nothing else holds it
        instead of waiting for the cycle collector.
        """
        self.stub.close()
        self.stub.client.drain_observer = None
        if self._server_ref is not None:
            self._server_ref[0] = None

    def __enter__(self) -> "CricketClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- runtime and driver API: what the table does not build ------------------

    def get_last_error(self) -> int:
        """Fetch and clear the device-side sticky error (cudaGetLastError).

        Returns the raw ``cudaError_t`` rather than raising: checking the
        launch-error state is a normal-control-flow operation in CUDA code.
        """
        return self.stub.rpc_cudaGetLastError()

    def peek_last_error(self) -> int:
        """Read the sticky error without clearing it."""
        return self.stub.rpc_cudaPeekAtLastError()

    def memcpy_d2h(self, src: int, size: int) -> bytes:
        """Forward a device-to-host ``cudaMemcpy``; returns the payload.

        The payload is copied out of the reply as ``bytes`` -- one copy,
        and what callers compare, hash and slice (a ``memoryview`` compares
        element by element, which costs more than the copy).  Over TCP a
        bulk payload is received in place, into the transport's arena
        (:meth:`~repro.rpcl.stubgen.ClientStub.call_landing`), and copied
        from there.
        """
        res = self.stub.call_landing("rpc_cudaMemcpyD2H", size, src, size)
        self._check(res["err"], "cudaMemcpy D2H")
        return bytes(res["data"])

    def memcpy_d2h_async(self, src: int, size: int, stream: int) -> bytes:
        """Stream-ordered download into (modelled) pinned host memory."""
        res = self.stub.call_landing("rpc_cudaMemcpyD2HAsync", size, src, size, stream)
        self._check(res["err"], "cudaMemcpyAsync D2H")
        return bytes(res["data"])

    def module_load_file(self, path: str) -> int:
        """Read a cubin file and load it -- the paper's client-side flow."""
        with open(path, "rb") as fh:
            return self.module_load(fh.read())

    def get_function(self, module: int, name: str, meta: KernelMeta) -> int:
        """Resolve a kernel entry point; remembers its parameter layout."""
        res = self.stub.rpc_cuModuleGetFunction(module, name)
        self._check(res["err"], f"cuModuleGetFunction({name})")
        handle = res["value"]
        self._function_meta[handle] = meta
        return handle

    def launch_kernel(
        self,
        function: int,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        args: tuple[Any, ...],
        *,
        shared_mem: int = 0,
        stream: int = 0,
    ) -> None:
        """Pack parameters per the cubin metadata and launch."""
        meta = self._function_meta.get(function)
        if meta is None:
            raise CudaError(400, "unknown function handle (load the module first)")
        block_bytes = kparams.pack_params(meta, args)
        if self.platform is not None:
            # C clients pay the <<<...>>> compatibility logic per launch.
            self._charge_client_cpu(self.platform.language.launch_extra_s)
        self._check(
            self.stub.rpc_cuLaunchKernel(
                function, _dim3(tuple(grid)), _dim3(tuple(block)), block_bytes, shared_mem, stream
            ),
            "cuLaunchKernel",
        )

    def launch_kernel_batched(
        self,
        function: int,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        args: tuple[Any, ...],
        *,
        shared_mem: int = 0,
        stream: int = 0,
    ) -> int:
        """Launch without waiting for the reply (ONC RPC batching).

        For launch-heavy workloads this trades a full round trip per call
        for just the client's transmit cost; collect error statuses with
        :meth:`flush`.  Added as the optimization the paper's conclusion
        recommends for applications with many short kernels.  Returns the
        call's xid so the launch can be cancelled (:meth:`cancel`) before
        its reply is drained.
        """
        meta = self._function_meta.get(function)
        if meta is None:
            raise CudaError(400, "unknown function handle (load the module first)")
        block_bytes = kparams.pack_params(meta, args)
        if self.platform is not None:
            self._charge_client_cpu(self.platform.language.launch_extra_s)
        if self.meter is not None:
            self.meter.mark_batched(sends=1, recvs=1)
        return self.stub.call_batched(
            "rpc_cuLaunchKernel",
            function, _dim3(tuple(grid)), _dim3(tuple(block)), block_bytes, shared_mem, stream,
        )

    def flush(self) -> None:
        """Collect outstanding batched replies and check every CUDA status.

        Charges one pipeline-drain delay (link round trip plus server
        dispatch) for the final reply to arrive, when one is outstanding.
        A batched launch whose reply a synchronous call already drained off
        the wire fails here too: the first such failure is raised first.
        """
        pending = self.stub.client.pending_batched
        results = self.stub.client.flush_batch()
        if pending and self.meter is not None:
            self.clock.advance_s(
                2 * self.meter.path.link.latency_s + CRICKET_SERVER_DISPATCH_S
            )
        failed, self._drained_error = self._drained_error, None
        if failed is not None:
            self._check(failed, "batched cuLaunchKernel")
        for raw in results:
            self._check(INT.from_bytes(raw), "batched cuLaunchKernel")

    def _note_drained(self, results: list[memoryview]) -> None:
        """Keep the first failed status of replies drained before a call."""
        if self._drained_error is not None:
            return
        for raw in results:
            err = INT.from_bytes(raw)
            if err != 0:
                self._drained_error = err
                return

    # -- checkpoint / restart / recovery -----------------------------------------

    def checkpoint(self) -> bytes:
        """Ask the server for a full state snapshot.

        The blob is also remembered client-side as the recovery point for
        :meth:`recover`.
        """
        res = self.stub.rpc_checkpoint()
        self._check(res["err"], "checkpoint")
        self._last_checkpoint = bytes(res["data"])
        return self._last_checkpoint

    def restore(self, blob: bytes) -> None:
        """Restore a snapshot onto the (possibly new) server."""
        self._check(self.stub.rpc_restore(blob), "restore")

    def recover(self, blob: bytes | None = None, *, server: Any = None) -> None:
        """Recover the session after unrecoverable transport loss.

        Re-establishes the connection (bypassing the circuit breaker --
        this is an explicit operator action, not an automatic retry) and
        restores GPU state from ``blob``, defaulting to the snapshot taken
        by the last :meth:`checkpoint`.  Module/function handles, device
        allocations and library handles come back at their old values, so
        the application resumes as if the failure never happened.

        For loopback clients, ``server`` redirects the transport to a
        replacement :class:`~repro.cricket.server.CricketServer` (the old
        one is presumed dead).
        """
        blob = blob if blob is not None else self._last_checkpoint
        if blob is None:
            raise CheckpointError(
                "no recovery point: call checkpoint() first or pass blob="
            )
        if server is not None:
            if self._server_ref is None:
                raise CheckpointError(
                    "server= redirection only applies to loopback clients"
                )
            self._server_ref[0] = server
        reconnect_if_supported(self.stub.client.transport, force=True)
        self.restore(blob)
        self.stats.recoveries += 1
