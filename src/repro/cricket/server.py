"""The Cricket server: ONC RPC front-end over the CUDA executors.

One :class:`CricketServer` owns the GPU node's devices and exposes the
Cricket program (:mod:`repro.cricket.spec`) over ONC RPC.  It is the
counterpart of upstream Cricket's rpcgen-generated C server: each procedure
demarshals its arguments, invokes the CUDA runtime/driver/library executor,
and returns the error code plus results.  As rpcgen does, the server is
generated from the specification where it can be: a procedure whose body
would only call the executor method of its own name is built from the
procedure table (:func:`_pass_through`), and only the bodies with logic of
their own are written here.

Timing: the server shares the experiment's virtual clock with the CUDA
executors.  Every dispatched call charges a fixed server CPU cost
(:data:`~repro.unikernel.presets.CRICKET_SERVER_DISPATCH_S`); synchronous
CUDA work (memcpy, synchronize) advances the clock inside the executors.

Session governance: every procedure is attributed to the caller's
``AUTH_CLIENT_TOKEN`` identity (:class:`~repro.oncrpc.server.CallContext`),
and every resource it creates is entered under that identity in the
server's one :class:`~repro.cricket.sessions.ResourceLedger`, keyed by kind,
device and handle.
Each dispatched call doubles as a lease heartbeat and opportunistically runs
the expiry reaper, so orphaned state is reclaimed without a background
thread -- essential under :class:`~repro.net.simclock.SimClock`, where time
only moves when work does.  See :mod:`repro.cricket.sessions`.
"""

from __future__ import annotations

import functools
import inspect
import threading

from repro.cricket import params as kparams
from repro.cricket.recovery import RecoveryLadder
from repro.cricket.sessions import LEASE_FOREVER, SessionManager
from repro.cricket.spec import OVERLOAD_EXEMPT_PROCS, PROCEDURES, cricket_interface, result_fields
from repro.cuda import constants as C
from repro.cuda.errors import code_for_exception
from repro.cuda.cublas import CublasContext
from repro.cuda.cufft import CufftContext
from repro.cuda.cusolver import CusolverContext
from repro.cuda.driver import CudaDriver
from repro.cuda.runtime import CudaRuntime
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.gpu.errors import SanitizerError
from repro.gpu.stream import StreamTable
from repro.gpu.watchdog import KernelWatchdog
from repro.net.simclock import SimClock
from repro.oncrpc.server import RpcServer
from repro.resilience.health import BrownoutConfig, BrownoutController, LatencySLO
from repro.resilience.overload import CallCancelledError, OverloadConfig
from repro.rpcl.compiler import OpaqueSplit
from repro.unikernel.presets import CRICKET_SERVER_DISPATCH_S
from repro.xdr.encoder import BY_REFERENCE_BYTES

_OK_PROP = {
    "name": "",
    "total_global_mem": 0,
    "multi_processor_count": 0,
    "clock_rate_khz": 0,
}


def _serialised(body, name: str | None = None):
    """``body`` as dispatched procedure ``name``: one call at a time, each
    charged, its ledger entry kept and its result struct built.

    The wrapper takes the dispatch lock and runs
    :meth:`CricketImplementation._charge_dispatch`, leaving the caller's
    ``ctx``, session and admission verdict in ``_ctx`` / ``_session`` /
    ``_deny`` for the body.  The body keeps only the executor call and
    returns what the executor does: the CUDA error code, or ``(err,
    value...)`` when the ``cricket.x`` result is a struct.  The wrapper
    then does, from :data:`~repro.cricket.spec.PROCEDURES` and
    ``cricket.x``, for every procedure:

    * admission: a caller refused admission gets the refusal from every
      create, its other result fields zero, and the body does not run;
    * the ledger: a successful create enters the result's handle on the
      current device under the caller's identity (an allocation with its
      size, the call's argument); a successful destroy forgets its first
      argument on the current device, whoever owned it (so a later reclaim
      does not free it twice);
    * the result struct: the tuple's values under the struct's fields.

    The raw body stays reachable as the wrapper's ``body``.
    """
    proc = PROCEDURES.get(name)  # None for NULLPROC's heartbeat
    fields = result_fields(name) if proc is not None else None
    creates, destroys = getattr(proc, "creates", None), getattr(proc, "destroys", None)
    sized = creates == "allocations"
    refused = (0,) * (len(fields) - 1) if creates is not None else ()

    def procedure(self, *args, ctx=None):
        with self._lock:
            self._session, self._deny = self._charge_dispatch(ctx)
            self._ctx = ctx
            if creates is not None and self._deny != 0:
                result = (self._deny, *refused)
            else:
                result = body(self, *args)
            if creates is not None and result[0] == 0 and self._session is not None:
                self.sessions.ledger.record(
                    self._session.identity, creates, self.runtime._current,
                    int(result[1]), int(args[0]) if sized else 0,
                )
            elif destroys is not None and result == 0:
                self.sessions.ledger.forget(destroys, self.runtime._current, int(args[0]))
        return result if fields is None else dict(zip(fields, result))

    functools.update_wrapper(procedure, body)
    # stubgen hands ``ctx`` only to callables whose signature names it, and
    # inspect.signature would follow __wrapped__ to the body, which does not.
    del procedure.__wrapped__
    procedure.body = body
    return procedure


#: Where a procedure body finds each executor class: the runtime, and the
#: current device's driver and library contexts.
_EXECUTORS = {
    CudaRuntime: "self.runtime",
    CudaDriver: "self._server.driver",
    CublasContext: "self._server.blas",
    CufftContext: "self._server.fft",
    CusolverContext: "self._server.solver",
}

_PASS_THROUGH = """\
def {name}({params}):
    return {executor}.{method}({args})
"""


def _pass_through(name: str):
    """The body of procedure ``name`` that only calls the executor method of
    the same name (without ``rpc_``) with the procedure's arguments.

    The one executor class that defines that method is the one called; a
    name no executor, or more than one, defines is refused.
    """
    method = name.removeprefix("rpc_")
    owners = [cls for cls in _EXECUTORS if callable(vars(cls).get(method))]
    if len(owners) != 1:
        raise RuntimeError(
            f"{name} is not written by hand and {len(owners)} executors define "
            f"{method} ({', '.join(cls.__name__ for cls in owners) or 'none'})"
        )
    (owner,) = owners
    n_args = len(cricket_interface().signatures[name].arg_types)
    params = list(inspect.signature(vars(owner)[method]).parameters)[1 : 1 + n_args]
    source = _PASS_THROUGH.format(
        name=name,
        params=", ".join(["self", *params]),
        executor=_EXECUTORS[owner],
        method=method,
        args=", ".join(params),
    )
    namespace: dict = {}
    exec(compile(source, f"<{name} pass-through>", "exec"), namespace)
    fn = namespace[name]
    fn.__module__ = __name__
    fn.__qualname__ = f"CricketImplementation.{name}"
    fn.__doc__ = f"Pass ``{name}`` through to ``{owner.__name__}.{method}``."
    fn.source = source
    return fn


def _serialise_procedures(cls):
    """Give ``cls`` every procedure of the table: the body it writes, or
    else the :func:`_pass_through` body; each one the table does not mark
    ``unlocked`` wrapped by :func:`_serialised`."""
    for name, proc in PROCEDURES.items():
        body = vars(cls).get(name) or _pass_through(name)
        setattr(cls, name, body if proc.unlocked else _serialised(body, name))
    return cls


@_serialise_procedures
class CricketImplementation:
    """Procedure implementations for the Cricket program.

    Each ``rpc_*`` body is just the executor call: the lock, the dispatch
    charge, the caller's session and admission, the ledger and the result
    struct come from :func:`_serialised`.  The class body writes only the
    procedures with logic of their own; every other one is the
    :func:`_pass_through` to the executor method of its name.  Driver and library contexts follow
    the runtime's current device (``self._server.driver`` and friends), so
    a client that calls cudaSetDevice(1) loads modules onto / launches on
    that device (the paper's GPU node hosts A100 + 2x T4 + P40).
    """

    def __init__(self, server: "CricketServer") -> None:
        self._server = server
        self.runtime = server.runtime
        self.clock = server.clock
        self.sessions = server.sessions
        self._lock = threading.Lock()
        # the call in progress, set by _serialised under the lock
        self._ctx = self._session = None
        self._deny = 0

    def _charge_dispatch(self, ctx=None):
        """Charge dispatch CPU, heartbeat the caller's lease, run the reaper.

        Returns ``(session, deny_error)``: the caller's session (opened on
        first contact, lease renewed on every call) or ``None`` with the
        CUDA error admission control wants surfaced.

        Besides the reaper, every dispatch opportunistically runs the
        sanitizer's periodic canary sweep and the recovery ladder, so a
        device a buggy tenant poisoned is healed *before* this call's
        executor touches it: innocent co-tenants never observe a failed
        call, whoever happens to dispatch next.
        """
        self.clock.advance_s(self._server.dispatch_cost_s)
        self._server.dispatch_time_charged_ns += int(
            self._server.dispatch_cost_s * 1e9
        )
        now = self.clock.now_ns
        session, deny = None, 0
        if ctx is not None and ctx.identity:
            session, deny = self.sessions.open(ctx.identity, now)
        self.sessions.reap(now, self._server._reclaim)
        self._server._update_brownout()
        self._server._maybe_sweep()
        if self._server.auto_recover and self._server.recovery.needs_heal():
            self._server.recovery.heal()
        return session, deny

    @_serialised
    def heartbeat(self):
        """NULLPROC: the dispatch charge is the whole call (a lease heartbeat)."""
        return b""

    # -- runtime -------------------------------------------------------------

    def rpc_cudaDeviceReset(self):
        err = self.runtime.cudaDeviceReset()
        if err == C.cudaSuccess:
            # Every ledger entry on this device is now dangling.
            self.sessions.ledger.drop_device(self.runtime._current)
        return err

    def rpc_cudaGetDeviceProperties(self, ordinal):
        err, props = self.runtime.cudaGetDeviceProperties(ordinal)
        if err != C.cudaSuccess or props is None:
            return err, dict(_OK_PROP)
        return err, {
            "name": props.name,
            "total_global_mem": props.total_global_mem,
            "multi_processor_count": props.multi_processor_count,
            "clock_rate_khz": props.clock_rate_khz,
        }

    def rpc_cudaMalloc(self, size):
        """The per-client memory quota is enforced here: a tenant over it
        sees a proper CUDA error on its own call instead of silently
        exhausting the device for everyone else.
        """
        quota_err = self.sessions.check_quota(self._session, size)
        if quota_err != 0:
            return quota_err, 0
        err, ptr = self.runtime.cudaMalloc(size)
        if err != C.cudaSuccess:
            return err, ptr
        ctx = self._ctx
        if ctx is not None and ctx.cancel.requested:
            # Cooperative cancellation safe point: the allocation has
            # not been entered in the ledger (the wrapper does that on
            # return) or revealed to the client yet, so undoing it leaves
            # no trace to reclaim later.
            self.runtime.cudaFree(ptr)
            raise CallCancelledError("rpc_cudaMalloc cancelled; allocation undone")
        # Allocation-site attribution for the sanitizer: every later
        # violation or leak involving this memory names the tenant and
        # the call that created it.
        owner = (ctx.identity or ctx.client_id) if ctx is not None else ""
        self._server.device.allocator.annotate(
            int(ptr),
            owner=owner,
            site=f"cudaMalloc#{self.runtime.api_call_count}",
        )
        return err, ptr

    def rpc_cudaMemcpyH2D(self, dst, data):
        return self.runtime.memcpy(dst, data, len(data), C.cudaMemcpyHostToDevice)[0]

    def rpc_cudaMemcpyD2H(self, src, size):
        """The payload is a pinned span of device memory, not a copy: the
        reply references it and is sent from it, and the pin goes with the
        reply (see :class:`~repro.gpu.memory.PinnedSpan`).
        """
        err, span = self.runtime.memcpy(0, src, size, C.cudaMemcpyDeviceToHost)
        return err, span if span is not None else b""

    def rpc_cudaMemcpyD2D(self, dst, src, size):
        return self.runtime.memcpy(dst, src, size, C.cudaMemcpyDeviceToDevice)[0]

    def rpc_cudaMemcpyH2DAsync(self, dst, data, stream):
        return self.runtime.memcpy(dst, data, len(data), C.cudaMemcpyHostToDevice, stream)[0]

    def rpc_cudaMemcpyD2HAsync(self, src, size, stream):
        """As ``rpc_cudaMemcpyD2H``, queued on ``stream``."""
        err, span = self.runtime.memcpy(0, src, size, C.cudaMemcpyDeviceToHost, stream)
        return err, span if span is not None else b""

    # -- driver --------------------------------------------------------------

    def rpc_cuModuleLoadData(self, image):
        # The loaded module outlives the request record: detach it.
        return self._server.driver.cuModuleLoadData(bytes(image))

    def rpc_cuLaunchKernel(self, fhandle, grid, block, param_block, shared_mem, stream):
        """The handle's :class:`~repro.cuda.driver.LaunchPlan` unpacks the
        parameter block; the driver launches what it resolved.
        """
        driver = self._server.driver
        plan = driver.launch_plans.get(fhandle)
        if plan is None:
            return C.CUDA_ERROR_INVALID_HANDLE
        try:
            values = kparams.unpack_params(plan.meta, param_block)
        except Exception:
            return C.CUDA_ERROR_INVALID_VALUE
        return driver.cuLaunchKernel(
            fhandle,
            (grid["x"], grid["y"], grid["z"]),
            (block["x"], block["y"], block["z"]),
            values,
            shared_mem=shared_mem,
            stream=stream,
        )

    # -- libraries -------------------------------------------------------------

    @staticmethod
    def _gemm(fn, a):
        return fn(
            a["handle"], a["transa"], a["transb"], a["m"], a["n"], a["k"],
            a["alpha"], a["a_ptr"], a["lda"], a["b_ptr"], a["ldb"],
            a["beta"], a["c_ptr"], a["ldc"],
        )

    def rpc_cublasSgemm(self, args):
        return self._gemm(self._server.blas.cublasSgemm, args)

    def rpc_cublasDgemm(self, args):
        return self._gemm(self._server.blas.cublasDgemm, args)

    def rpc_cusolverDnDgetrfBufferSize(self, handle, n, a_ptr, lda):
        return self._server.solver.cusolverDnDgetrf_bufferSize(handle, n, n, a_ptr, lda)

    def rpc_cusolverDnDgetrf(self, a):
        return self._server.solver.cusolverDnDgetrf(
            a["handle"], a["n"], a["n"], a["a_ptr"], a["lda"],
            a["workspace"], a["ipiv"], a["info"],
        )

    def rpc_cusolverDnDgetrs(self, a):
        return self._server.solver.cusolverDnDgetrs(
            a["handle"], a["trans"], a["n"], a["nrhs"], a["a_ptr"], a["lda"],
            a["ipiv"], a["b_ptr"], a["ldb"], a["info"],
        )

    # -- checkpoint / restart ------------------------------------------------------

    def rpc_checkpoint(self):
        from repro.cricket.checkpoint import snapshot_server

        try:
            return 0, snapshot_server(self._server)
        except Exception as exc:
            # A canary failure at snapshot time surfaces as its typed
            # CUDA error (illegal address), not a generic unknown.
            return code_for_exception(exc), b""

    def rpc_restore(self, blob):
        from repro.cricket.checkpoint import restore_server

        try:
            # The restored state owns its bytes (decode_state copies every
            # value out of the blob), so the record's view is not copied.
            restore_server(self._server, blob)
            return 0
        except Exception as exc:
            return code_for_exception(exc)

    # -- session lifecycle -----------------------------------------------------

    def rpc_ping(self):
        """Lease heartbeat: the remaining lease in nanoseconds
        (``LEASE_FOREVER`` when leases are disabled).

        The heartbeat itself happens inside ``_charge_dispatch`` -- like
        every other procedure -- so a client that is busy with real calls
        never needs to ping; this procedure exists for *idle* clients and
        for cheap liveness probes.
        """
        if self._deny != 0:
            return self._deny, 0
        if self._session is None:
            return 0, LEASE_FOREVER
        return 0, self._session.lease_remaining_ns(self.clock.now_ns)

    # -- overload control -------------------------------------------------------

    def rpc_cancel(self, xid, ctx=None):
        """Abort a queued/in-flight call.

        The one ``unlocked`` procedure: it neither takes ``self._lock`` nor
        charges dispatch, because the call being cancelled may be executing
        right now *holding that lock*, and a cancel that queued behind its
        target would be useless (and, under overload admission, could
        deadlock).  So it builds its own result struct.  Cancellation is
        keyed on the caller's own identity, so one tenant cannot cancel
        another's work.
        """
        identity = ctx.identity if ctx is not None else ""
        ok = self._server.cancel_call(identity, int(xid))
        return {"err": 0, "value": 1 if ok else 0}


class CricketServer(RpcServer):
    """An ONC RPC server exporting the Cricket program over simulated GPUs."""

    def __init__(
        self,
        devices: list[GpuDevice] | None = None,
        *,
        clock: SimClock | None = None,
        lease_s: float | None = None,
        grace_s: float = 5.0,
        max_sessions: int | None = None,
        memory_quota_bytes: int | None = None,
        crc_records: bool = False,
        overload: OverloadConfig | None = None,
        sanitizer: bool = False,
        watchdog: bool = False,
        auto_recover: bool | None = None,
        brownout: BrownoutConfig | bool | None = None,
        checkpoint_slo: LatencySLO | None = None,
    ) -> None:
        clock = clock if clock is not None else SimClock()
        super().__init__(crc_records=crc_records, clock=clock, overload=overload)
        self.overload_exempt_procs |= OVERLOAD_EXEMPT_PROCS
        #: whether device memory is sanitized (off by default)
        self.sanitized = bool(sanitizer)
        #: kernel watchdog shared by every device on this node, or None
        self.watchdog = KernelWatchdog() if watchdog else None
        if devices is None:
            devices = [
                GpuDevice(A100, sanitizer=self.sanitized, watchdog=self.watchdog)
            ]
        else:
            # Caller-provided devices: arm any that are not already
            # sanitized/watched.  Re-arming an allocator is only safe while
            # it is empty (redzones change the address layout).
            for device in devices:
                if (
                    self.sanitized
                    and not device.sanitized
                    and device.allocator.used_bytes == 0
                ):
                    device.sanitized = True
                    device.allocator = device._new_allocator(device.allocator.capacity)
                if self.watchdog is not None and device.watchdog is None:
                    device.watchdog = self.watchdog
        self.devices = devices
        #: auto-heal via the recovery ladder; defaults on when either the
        #: sanitizer or the watchdog is armed (they produce the verdicts
        #: the ladder consumes), off otherwise -- injected faults keep
        #: their PR-3 manual-failover semantics either way
        self.auto_recover = (
            auto_recover
            if auto_recover is not None
            else (self.sanitized or self.watchdog is not None)
        )
        self.recovery = RecoveryLadder(self)
        #: violation log: (kind, owner, site, addr) per detected violation
        self.violations: list[tuple[str, str, str, int]] = []
        #: leak reports from ledger releases: dicts with ptr/ordinal/size/owner/site
        self.leak_reports: list[dict] = []
        self._dispatches_since_sweep = 0
        for device in self.devices:
            device.on_violation = self._note_violation
        #: server CPU charged to the virtual clock per dispatched call
        self.dispatch_cost_s = CRICKET_SERVER_DISPATCH_S
        #: cumulative server CPU charged for RPC dispatch, nanoseconds
        self.dispatch_time_charged_ns = 0
        self.runtime = CudaRuntime(devices, self.clock)
        self._drivers = [CudaDriver(d, self.clock) for d in devices]
        self._blas = [CublasContext(d, self.clock) for d in devices]
        self._solvers = [CusolverContext(d, self.clock) for d in devices]
        self._ffts = [CufftContext(d, self.clock) for d in devices]
        self.sessions = SessionManager(
            lease_s=lease_s,
            grace_s=grace_s,
            max_sessions=max_sessions,
            memory_quota_bytes=memory_quota_bytes,
            stats=self.server_stats,
        )
        #: checkpoint blob captured by a drain-mode shutdown (if any
        #: sessions were still alive when the drain completed)
        self.drain_checkpoint: bytes | None = None
        #: brownout (staged degraded mode); None = disabled, the default
        self.brownout_config = (
            BrownoutConfig() if brownout is True else (brownout or None)
        )
        #: SLO on checkpoint write latency; needs a tracker attached via
        #: :meth:`attach_checkpoint_health`
        self.checkpoint_slo = checkpoint_slo
        #: checkpoint write-latency tracker (from a CheckpointStore), or None
        self.ckpt_health = None
        if self.brownout_config is not None:
            controller = BrownoutController(
                clock=self.clock,
                config=self.brownout_config,
                server_stats=self.server_stats,
            )
            # Worst-ratio-wins signals.  Throttle is always available; the
            # checkpoint SLO joins when configured.
            controller.add_signal("device_throttle", self._throttle_ratio)
            if checkpoint_slo is not None:
                controller.add_signal("checkpoint_fsync", self._ckpt_ratio)
            self.brownout = controller
        self.interface = cricket_interface()
        self.implementation = CricketImplementation(self)
        prog, vers = self.interface.prog_number, self.interface.vers_number
        self.register_program(
            prog, vers, self.interface.make_server_dispatch(self.implementation)
        )
        for name, proc in PROCEDURES.items():
            if proc.lands:
                sig = self.interface.signatures[name]
                self.landers[(prog, vers, sig.number)] = functools.partial(
                    self._land_upload, sig.args_split
                )
        # NULLPROC doubles as a lease heartbeat: the reconnect path probes
        # with it (cheap, idempotent), and an idle client keeping its lease
        # alive should not pay for a full procedure.
        self._programs[
            (self.interface.prog_number, self.interface.vers_number)
        ][0] = self._null_heartbeat

    def _null_heartbeat(self, args: bytes, ctx) -> bytes:
        return self.implementation.heartbeat(ctx=ctx)

    def _land_upload(self, split: OpaqueSplit, args: memoryview):
        """Lander of the procedures the table marks ``lands``: a bulk
        payload is received into a landing sized against the allocation at
        its destination on the current device, or staged when there is
        none (and the call fails as it always did)."""
        declared = split.declared(args)
        if declared is None or declared[1] < BY_REFERENCE_BYTES:
            return None
        (dst, *_), size = declared
        landing = self.devices[self.runtime._current].allocator._landing(dst, size)
        return None if landing is None else (split.offset, landing)

    @property
    def current_ordinal(self) -> int:
        """Ordinal of the current device: the one a checkpoint captures."""
        return self.runtime._current

    @property
    def device(self) -> GpuDevice:
        """The *current* device (the evaluation uses a single A100)."""
        return self.devices[self.runtime._current]

    @property
    def driver(self) -> CudaDriver:
        """Driver context of the current device."""
        return self._drivers[self.runtime._current]

    @property
    def blas(self) -> CublasContext:
        """cuBLAS context of the current device."""
        return self._blas[self.runtime._current]

    @property
    def solver(self) -> CusolverContext:
        """cuSOLVER context of the current device."""
        return self._solvers[self.runtime._current]

    @property
    def fft(self) -> CufftContext:
        """cuFFT context of the current device."""
        return self._ffts[self.runtime._current]

    # -- sanitizer / watchdog / recovery ------------------------------------

    #: dispatches between two periodic canary sweeps
    sanitizer_sweep_every = 64

    _VIOLATION_COUNTERS = {
        "oob-write": "sanitizer_oob_writes",
        "oob-read": "sanitizer_oob_reads",
        "use-after-free": "sanitizer_use_after_free",
        "double-free": "sanitizer_double_frees",
        "redzone-corruption": "sanitizer_redzone_hits",
    }

    def _note_violation(self, err: SanitizerError) -> None:
        """Device violation observer: count by kind and log attribution."""
        counter = self._VIOLATION_COUNTERS.get(err.kind)
        if counter is not None:
            setattr(self.server_stats, counter, getattr(self.server_stats, counter) + 1)
        self.violations.append((err.kind, err.owner, err.site, err.addr))

    def _maybe_sweep(self) -> None:
        """Periodic canary sweep, every ``sanitizer_sweep_every`` dispatches.

        A corruption found here poisons the device (via the sanitizer's
        violation callback); the sweep itself never raises into the
        dispatching call -- the recovery ladder, running right after in
        ``_charge_dispatch``, heals the device before the call proceeds.
        """
        if not self.sanitized:
            return
        self._dispatches_since_sweep += 1
        if self._dispatches_since_sweep < self.sanitizer_sweep_every:
            return
        self._dispatches_since_sweep = 0
        if self.brownout is not None and self.brownout.active:
            # Canary sweeps are deferrable hygiene: under brownout the
            # cycles go to tenant traffic; the sweep fires after exit.
            self.server_stats.sweeps_suspended += 1
            return
        for device in self.devices:
            if device.allocator.sanitizer is None or not device.healthy:
                continue
            try:
                device.allocator.verify_canaries()
            except SanitizerError:
                pass  # reported via _note_violation; ladder heals next

    def sweep_now(self) -> None:
        """Force a canary sweep on every device (tests/operators)."""
        with self.implementation._lock:
            self._dispatches_since_sweep = self.sanitizer_sweep_every
            self._maybe_sweep()

    # -- brownout (staged degraded mode) -------------------------------------

    #: throttle multiplier treated as "ratio 1.0" by the brownout signal --
    #: matches the recovery ladder's default preemption threshold, so a
    #: spare-less throttled device trips the brownout exactly when a spare
    #: *would* have triggered preemptive failover.
    BROWNOUT_THROTTLE_SLO = 2.0

    def _throttle_ratio(self) -> float:
        """Worst thermal-throttle multiplier, normalised to the objective."""
        worst = max(d.throttle_multiplier for d in self.devices)
        return worst / self.BROWNOUT_THROTTLE_SLO

    #: only checkpoint writes this recent (virtual seconds) count for the
    #: brownout: one slow fsync must not hold the server in brownout for
    #: the rest of a run
    CHECKPOINT_RECENT_S = 1.0

    def _ckpt_ratio(self) -> float:
        """The worst recent checkpoint write (fsync) against the SLO."""
        if self.ckpt_health is None:
            return 0.0
        return self.checkpoint_slo.recent_ratio(
            self.ckpt_health, self.clock.now_ns, int(self.CHECKPOINT_RECENT_S * 1e9)
        )

    def attach_checkpoint_health(self, tracker) -> None:
        """Feed a CheckpointStore's write-latency tracker into the brownout."""
        self.ckpt_health = tracker

    def _update_brownout(self) -> None:
        """Re-evaluate the brownout signals."""
        if self.brownout is not None:
            self.brownout.update()

    # -- session lifecycle --------------------------------------------------

    def _reclaim(self, identity: str) -> int:
        """Free every resource ``identity`` holds, on every device; returns
        device bytes reclaimed.

        Called by the reaper when an orphaned session's grace period
        lapses, and by the recovery ladder's last rung.  Each release is
        individually guarded: a resource may already be gone (a restored
        checkpoint), and reclamation must never fail halfway because of a
        stale handle.
        """
        entries = self.sessions.ledger.release(identity)
        before = sum(d.allocator.used_bytes for d in self.devices)
        # Leak report: allocations still live at release time never met a
        # cudaFree -- attribute each to its recorded allocation site before
        # the memory is reclaimed below.
        for (kind, ordinal, ptr), size in entries.items():
            allocator = self.devices[ordinal].allocator
            if kind != "allocations" or allocator.sanitizer is None or not allocator.is_live(ptr):
                continue
            owner, site = allocator.site_of(ptr)
            self.leak_reports.append(
                {"ptr": ptr, "ordinal": ordinal, "size": size, "owner": owner, "site": site}
            )
            self.server_stats.sanitizer_leaks_reported += 1
        for kind, release in self._RELEASE.items():
            for held, ordinal, key in entries:
                if held == kind:
                    try:
                        release(self, key, ordinal)
                    except Exception:
                        pass
        after = sum(d.allocator.used_bytes for d in self.devices)
        return max(before - after, 0)

    def _free_if_live(self, ptr: int, ordinal: int) -> None:
        allocator = self.devices[ordinal].allocator
        if allocator.is_live(ptr):
            allocator.free(ptr)

    #: How :meth:`_reclaim` frees one resource ``key`` on device ``ordinal``
    #: of each ledger kind, in release order: modules first (unloading frees
    #: their globals' device memory too), allocations last.
    _RELEASE = {
        "modules": lambda s, h, o: s._drivers[o].cuModuleUnload(h),
        "blas_handles": lambda s, h, o: s._blas[o].cublasDestroy(h),
        "solver_handles": lambda s, h, o: s._solvers[o].cusolverDnDestroy(h),
        "fft_plans": lambda s, h, o: s._ffts[o].cufftDestroy(h),
        "streams": lambda s, h, o: s.devices[o].streams.destroy_stream(h),
        "events": lambda s, h, o: s.devices[o].streams.destroy_event(h),
        "allocations": lambda s, ptr, o: s._free_if_live(ptr, o),
    }

    def reap_sessions(self) -> int:
        """Run the lease reaper now; returns device bytes reclaimed.

        The reaper also runs opportunistically on every dispatched call;
        this explicit entry point lets tests and operators force a sweep
        after advancing the clock without issuing a client RPC.
        """
        with self.implementation._lock:
            return self.sessions.reap(self.clock.now_ns, self._reclaim)

    # -- live migration -------------------------------------------------------

    def pause_serving(self) -> None:
        """Shed non-exempt calls with RPC_BUSY (stop-and-copy window).

        Clients back off and retry exactly as under overload; the reply
        cache still answers retransmits of already-executed calls, so
        pausing never double-executes anything.
        """
        self.serving_paused = True

    def resume_serving(self) -> None:
        """Accept calls again (migration aborted, or this is the target)."""
        self.serving_paused = False

    # -- device health / failover -------------------------------------------

    def inject_device_fault(self, ordinal: int, kind: str = "ecc") -> None:
        """Poison device ``ordinal`` with a sticky hardware fault (chaos hook)."""
        with self.implementation._lock:
            self.devices[ordinal].inject_fault(kind)

    def device_health(self) -> dict[int, bool]:
        """Map of ordinal -> healthy for every device on the node."""
        return {i: d.healthy for i, d in enumerate(self.devices)}

    def _find_spare(self, ordinal: int) -> int | None:
        """A healthy, idle, same-model device to absorb ``ordinal``'s state.

        Idle means no allocation and no ledger entry: the swap resets the
        spare's slot, so a stream or event a tenant holds there would die.
        Degraded silicon (throttled, accruing correctable ECC) is skipped:
        migrating onto a limping spare would trade a gray failure for the
        same gray failure plus a migration.
        """
        faulted = self.devices[ordinal]
        for i, d in enumerate(self.devices):
            if i == ordinal or not d.healthy or d.degraded:
                continue
            if d.spec.name != faulted.spec.name:
                continue
            if d.allocator.used_bytes == 0 and not self.sessions.ledger.owners_on(i):
                return i
        return None

    def failover_device(self, ordinal: int, spare_ordinal: int | None = None) -> int:
        """Migrate a faulted device's state onto a healthy same-model spare.

        The faulted card's memory image is snapshotted (an admin path that
        bypasses the sticky fault -- the simulated HBM contents are intact,
        only the execution engines are poisoned), restored onto the spare,
        and the two :class:`~repro.gpu.device.GpuDevice` objects are swapped
        between their list slots.  Swapping -- rather than rewriting ledgers
        -- keeps every client-visible ordinal, device pointer and
        stream/event handle valid: sessions keep running on "device
        ``ordinal``" and never observe the migration.  The faulted card is
        reset in the spare's slot, clearing its fault and leaving it empty.

        Returns the slot the faulted silicon now occupies.  Raises
        ``RuntimeError`` when no spare is available (callers then fall back
        to whole-server failover via the standby).
        """
        with self.implementation._lock:
            return self._failover_device_locked(ordinal, spare_ordinal)

    def _failover_device_locked(
        self, ordinal: int, spare_ordinal: int | None = None
    ) -> int:
        """Body of :meth:`failover_device`; caller holds the dispatch lock.

        Split out so the recovery ladder -- which already runs under the
        lock inside ``_charge_dispatch`` -- can take this rung without
        deadlocking on re-entry.
        """
        faulted = self.devices[ordinal]
        if spare_ordinal is None:
            spare_ordinal = self._find_spare(ordinal)
        if spare_ordinal is None:
            raise RuntimeError(
                f"no healthy idle {faulted.spec.name!r} spare for device {ordinal}"
            )
        spare = self.devices[spare_ordinal]
        spare.restore(faulted.snapshot())
        # Stream/event handles are application state too: the table moves
        # with the workload, the faulted card gets a fresh empty one.
        spare.streams, faulted.streams = faulted.streams, StreamTable()
        self.devices[ordinal], self.devices[spare_ordinal] = spare, faulted
        # runtime holds its own copy of the device list
        self.runtime.devices[ordinal] = spare
        self.runtime.devices[spare_ordinal] = faulted
        # per-slot executor contexts follow the slot, not the silicon
        for contexts in (self._drivers, self._blas, self._solvers, self._ffts):
            contexts[ordinal].device = spare
            contexts[spare_ordinal].device = faulted
        faulted.reset()  # clears the sticky fault; card becomes the new spare
        self.server_stats.device_failovers += 1
        return spare_ordinal

    def close(self) -> None:
        """Let go of every reference the server holds to itself, so it is
        freed as soon as nothing else holds it instead of waiting for the
        cycle collector.

        Its dispatch table, landers and admission chain (bound methods of
        the server), its procedure implementation and recovery ladder (which
        point back at it) and its devices' violation observers go: it serves
        no call afterwards, while its counters (``server_stats``,
        ``dispatch_time_charged_ns``, ``runtime.time_charged_ns``) stay
        readable.  The :class:`~repro.core.session.GpuSession` that built
        the server calls this when it closes.
        """
        self._programs.clear()
        self.landers.clear()
        self._admission = ()
        self.implementation._server = None
        self.recovery._server = None
        for device in self.devices:
            device.on_violation = None

    # -- RpcServer hooks ----------------------------------------------------

    def _on_disconnect(self, client_id: str, session: dict) -> None:
        identities = session.get("identities", ())
        if not identities:
            return
        with self.implementation._lock:
            self.sessions.mark_disconnected(identities, self.clock.now_ns)

    def _begin_drain(self) -> None:
        self.sessions.draining = True

    def _on_drain(self) -> None:
        if self.sessions.session_count > 0:
            from repro.cricket.checkpoint import snapshot_server

            with self.implementation._lock:
                try:
                    self.drain_checkpoint = snapshot_server(self)
                except Exception:
                    self.drain_checkpoint = None
        self.server_stats.drains_completed += 1
