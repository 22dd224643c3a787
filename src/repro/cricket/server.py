"""The Cricket server: ONC RPC front-end over the CUDA executors.

One :class:`CricketServer` owns the GPU node's devices and exposes the
Cricket program (:mod:`repro.cricket.spec`) over ONC RPC.  It is the
counterpart of upstream Cricket's rpcgen-generated C server: each procedure
demarshals its arguments, invokes the CUDA runtime/driver/library executor,
and returns the error code plus results.

Timing: the server shares the experiment's virtual clock with the CUDA
executors.  Every dispatched call charges a fixed server CPU cost
(:data:`~repro.unikernel.presets.CRICKET_SERVER_DISPATCH_S`); synchronous
CUDA work (memcpy, synchronize) advances the clock inside the executors.

Session governance: every procedure is attributed to the caller's
``AUTH_CLIENT_TOKEN`` identity (:class:`~repro.oncrpc.server.CallContext`)
and recorded in that session's :class:`~repro.cricket.sessions.ResourceLedger`.
Each dispatched call doubles as a lease heartbeat and opportunistically runs
the expiry reaper, so orphaned state is reclaimed without a background
thread -- essential under :class:`~repro.net.simclock.SimClock`, where time
only moves when work does.  See :mod:`repro.cricket.sessions`.
"""

from __future__ import annotations

import functools
import threading

from repro.cricket import params as kparams
from repro.cricket.recovery import RecoveryLadder
from repro.cricket.sessions import LEASE_FOREVER, SessionManager
from repro.cricket.spec import OVERLOAD_EXEMPT_PROCS, PROCEDURES, Procedure, cricket_interface
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


def _serialised(body, proc: Procedure | None = None):
    """``body`` as a dispatched procedure: one call at a time, each charged.

    The wrapper takes the dispatch lock and runs
    :meth:`CricketImplementation._charge_dispatch`, leaving the caller's
    ``ctx``, session and admission verdict in ``_ctx`` / ``_session`` /
    ``_deny`` (and the procedure's table entry in ``_proc``) for the body,
    which keeps only the executor call.
    """

    def procedure(self, *args, ctx=None):
        with self._lock:
            self._session, self._deny = self._charge_dispatch(ctx)
            self._ctx, self._proc = ctx, proc
            return body(self, *args)

    functools.update_wrapper(procedure, body)
    # stubgen hands ``ctx`` only to callables whose signature names it, and
    # inspect.signature would follow __wrapped__ to the body, which does not.
    del procedure.__wrapped__
    return procedure


def _serialise_procedures(cls):
    """Apply :func:`_serialised` to every procedure the table does not
    mark ``unlocked``."""
    for name, proc in PROCEDURES.items():
        if not proc.unlocked:
            setattr(cls, name, _serialised(vars(cls)[name], proc))
    return cls


@_serialise_procedures
class CricketImplementation:
    """Procedure implementations for the Cricket program.

    Each ``rpc_*`` body is just the executor call: the lock, the dispatch
    charge and the caller's session come from :func:`_serialised`.
    Driver and library contexts follow the runtime's current device
    (``self._server.driver`` and friends), so a client that calls
    cudaSetDevice(1) loads modules onto / launches on that device (the
    paper's GPU node hosts A100 + 2x T4 + P40).
    """

    def __init__(self, server: "CricketServer") -> None:
        self._server = server
        self.runtime = server.runtime
        self.clock = server.clock
        self.sessions = server.sessions
        self._lock = threading.Lock()
        # the call in progress, set by _serialised under the lock
        self._ctx = self._session = self._proc = None
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
        self.sessions.reap(now, self._server.release_ledger)
        self._server._update_brownout()
        self._server._maybe_sweep()
        if self._server.auto_recover and self._server.recovery.needs_heal():
            self._server.recovery.heal()
        return session, deny

    def _ordinal(self) -> int:
        """Index of the current device (where a resource is being created)."""
        return self.runtime._current

    def _track(self, err, key, size=None) -> None:
        """Record (create) or forget (destroy) this call's ledger entry.

        The kind is the procedure table's; a failed call tracks nothing.
        A destroy forgets the key in every session's ledger, so a later
        reclaim does not double-free it.
        """
        if err != 0:
            return
        proc = self._proc
        if proc.destroys:
            self.sessions.forget(proc.destroys, int(key))
        elif self._session is not None:
            ordinal = self._ordinal()
            self._session.ledger.tables[proc.creates][int(key)] = (
                ordinal if size is None else (ordinal, int(size))
            )

    @_serialised
    def heartbeat(self):
        """NULLPROC: the dispatch charge is the whole call (a lease heartbeat)."""
        return b""

    # -- runtime: device management ---------------------------------------------

    def rpc_cudaGetDeviceCount(self):
        """Cricket procedure ``rpc_cudaGetDeviceCount`` (forwards to the CUDA executor)."""
        err, value = self.runtime.cudaGetDeviceCount()
        return {"err": err, "value": value}

    def rpc_cudaSetDevice(self, ordinal):
        """Cricket procedure ``rpc_cudaSetDevice`` (forwards to the CUDA executor)."""
        return self.runtime.cudaSetDevice(ordinal)

    def rpc_cudaGetDevice(self):
        """Cricket procedure ``rpc_cudaGetDevice`` (forwards to the CUDA executor)."""
        err, value = self.runtime.cudaGetDevice()
        return {"err": err, "value": value}

    def rpc_cudaDeviceSynchronize(self):
        """Cricket procedure ``rpc_cudaDeviceSynchronize`` (forwards to the CUDA executor)."""
        return self.runtime.cudaDeviceSynchronize()

    def rpc_cudaDeviceReset(self):
        """Cricket procedure ``rpc_cudaDeviceReset`` (forwards to the CUDA executor)."""
        ordinal = self._ordinal()
        err = self.runtime.cudaDeviceReset()
        if err == C.cudaSuccess:
            # Every ledger entry on this device is now dangling.
            self.sessions.drop_device(ordinal)
        return err

    def rpc_cudaGetDeviceProperties(self, ordinal):
        """Cricket procedure ``rpc_cudaGetDeviceProperties`` (forwards to the CUDA executor)."""
        err, props = self.runtime.cudaGetDeviceProperties(ordinal)
        if err != C.cudaSuccess or props is None:
            return {"err": err, "prop": dict(_OK_PROP)}
        return {
            "err": err,
            "prop": {
                "name": props.name,
                "total_global_mem": props.total_global_mem,
                "multi_processor_count": props.multi_processor_count,
                "clock_rate_khz": props.clock_rate_khz,
            },
        }

    def rpc_cudaGetLastError(self):
        """Cricket procedure ``rpc_cudaGetLastError`` (forwards to the CUDA executor)."""
        return self.runtime.cudaGetLastError()

    def rpc_cudaPeekAtLastError(self):
        """Cricket procedure ``rpc_cudaPeekAtLastError`` (forwards to the CUDA executor)."""
        return self.runtime.cudaPeekAtLastError()

    # -- runtime: memory ------------------------------------------------------

    def rpc_cudaMalloc(self, size):
        """Cricket procedure ``rpc_cudaMalloc`` (forwards to the CUDA executor).

        Admission control and the per-client memory quota are enforced
        here: a refused tenant sees a proper CUDA error on its own call
        instead of silently exhausting the device for everyone else.
        """
        if self._deny != 0:
            return {"err": self._deny, "ptr": 0}
        quota_err = self.sessions.check_quota(self._session, size)
        if quota_err != 0:
            return {"err": quota_err, "ptr": 0}
        err, ptr = self.runtime.cudaMalloc(size)
        if err != C.cudaSuccess:
            return {"err": err, "ptr": ptr}
        ctx = self._ctx
        if ctx is not None and ctx.cancel.requested:
            # Cooperative cancellation safe point: the allocation has
            # not been recorded in the ledger or revealed to the client
            # yet, so undoing it leaves no trace to reclaim later.
            self.runtime.cudaFree(ptr)
            raise CallCancelledError("rpc_cudaMalloc cancelled; allocation undone")
        self._track(err, ptr, size)
        # Allocation-site attribution for the sanitizer: every later
        # violation or leak involving this memory names the tenant and
        # the call that created it.
        owner = (ctx.identity or ctx.client_id) if ctx is not None else ""
        self._server.devices[self._ordinal()].allocator.annotate(
            int(ptr),
            owner=owner,
            site=f"cudaMalloc#{self.runtime.api_call_count}",
        )
        return {"err": err, "ptr": ptr}

    def rpc_cudaFree(self, ptr):
        """Cricket procedure ``rpc_cudaFree`` (forwards to the CUDA executor)."""
        err = self.runtime.cudaFree(ptr)
        self._track(err, ptr)
        return err

    def rpc_cudaMemcpyH2D(self, dst, data):
        """Cricket procedure ``rpc_cudaMemcpyH2D`` (forwards to the CUDA executor)."""
        err, _ = self.runtime.cudaMemcpy(dst, data, len(data), C.cudaMemcpyHostToDevice)
        return err

    def rpc_cudaMemcpyD2H(self, src, size):
        """Cricket procedure ``rpc_cudaMemcpyD2H`` (forwards to the CUDA executor).

        The payload is a pinned span of device memory, not a copy: the
        reply references it and is sent from it, and the pin goes with the
        reply (see :class:`~repro.gpu.memory.PinnedSpan`).
        """
        err, span = self.runtime.memcpy_d2h_pinned(src, size)
        return {"err": err, "data": span if span is not None else b""}

    def rpc_cudaMemcpyD2D(self, dst, src, size):
        """Cricket procedure ``rpc_cudaMemcpyD2D`` (forwards to the CUDA executor)."""
        err, _ = self.runtime.cudaMemcpy(dst, src, size, C.cudaMemcpyDeviceToDevice)
        return err

    def rpc_cudaMemcpyH2DAsync(self, dst, data, stream):
        """Cricket procedure ``rpc_cudaMemcpyH2DAsync`` (forwards to the CUDA executor)."""
        err, _ = self.runtime.cudaMemcpyAsync(
            dst, data, len(data), C.cudaMemcpyHostToDevice, stream
        )
        return err

    def rpc_cudaMemcpyD2HAsync(self, src, size, stream):
        """Cricket procedure ``rpc_cudaMemcpyD2HAsync``: as ``rpc_cudaMemcpyD2H``,
        queued on ``stream``."""
        err, span = self.runtime.memcpy_d2h_pinned(src, size, stream)
        return {"err": err, "data": span if span is not None else b""}

    def rpc_cudaMemset(self, ptr, value, size):
        """Cricket procedure ``rpc_cudaMemset`` (forwards to the CUDA executor)."""
        return self.runtime.cudaMemset(ptr, value, size)

    # -- runtime: streams and events ----------------------------------------------

    def rpc_cudaStreamCreate(self):
        """Cricket procedure ``rpc_cudaStreamCreate`` (forwards to the CUDA executor)."""
        err, handle = self.runtime.cudaStreamCreate()
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cudaStreamDestroy(self, handle):
        """Cricket procedure ``rpc_cudaStreamDestroy`` (forwards to the CUDA executor)."""
        err = self.runtime.cudaStreamDestroy(handle)
        self._track(err, handle)
        return err

    def rpc_cudaStreamSynchronize(self, handle):
        """Cricket procedure ``rpc_cudaStreamSynchronize`` (forwards to the CUDA executor)."""
        return self.runtime.cudaStreamSynchronize(handle)

    def rpc_cudaEventCreate(self):
        """Cricket procedure ``rpc_cudaEventCreate`` (forwards to the CUDA executor)."""
        err, handle = self.runtime.cudaEventCreate()
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cudaEventDestroy(self, handle):
        """Cricket procedure ``rpc_cudaEventDestroy`` (forwards to the CUDA executor)."""
        err = self.runtime.cudaEventDestroy(handle)
        self._track(err, handle)
        return err

    def rpc_cudaEventRecord(self, event, stream):
        """Cricket procedure ``rpc_cudaEventRecord`` (forwards to the CUDA executor)."""
        return self.runtime.cudaEventRecord(event, stream)

    def rpc_cudaEventSynchronize(self, event):
        """Cricket procedure ``rpc_cudaEventSynchronize`` (forwards to the CUDA executor)."""
        return self.runtime.cudaEventSynchronize(event)

    def rpc_cudaStreamWaitEvent(self, stream, event):
        """Cricket procedure ``rpc_cudaStreamWaitEvent`` (forwards to the CUDA executor)."""
        return self.runtime.cudaStreamWaitEvent(stream, event)

    def rpc_cudaEventElapsedTime(self, start, stop):
        """Cricket procedure ``rpc_cudaEventElapsedTime`` (forwards to the CUDA executor)."""
        err, ms = self.runtime.cudaEventElapsedTime(start, stop)
        return {"err": err, "value": ms}

    # -- driver: modules and launches ----------------------------------------------

    def rpc_cuModuleLoadData(self, image):
        """Cricket procedure ``rpc_cuModuleLoadData`` (forwards to the CUDA executor)."""
        # The loaded module outlives the request record: detach it.
        err, handle = self._server.driver.cuModuleLoadData(bytes(image))
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cuModuleUnload(self, handle):
        """Cricket procedure ``rpc_cuModuleUnload`` (forwards to the CUDA executor)."""
        err = self._server.driver.cuModuleUnload(handle)
        self._track(err, handle)
        return err

    def rpc_cuModuleGetFunction(self, module, name):
        """Cricket procedure ``rpc_cuModuleGetFunction`` (forwards to the CUDA executor)."""
        err, handle = self._server.driver.cuModuleGetFunction(module, name)
        return {"err": err, "value": handle}

    def rpc_cuModuleGetGlobal(self, module, name):
        """Cricket procedure ``rpc_cuModuleGetGlobal`` (forwards to the CUDA executor)."""
        err, ptr, size = self._server.driver.cuModuleGetGlobal(module, name)
        return {"err": err, "ptr": ptr, "size": size}

    def rpc_cuLaunchKernel(self, fhandle, grid, block, param_block, shared_mem, stream):
        """Cricket procedure ``rpc_cuLaunchKernel`` (forwards to the CUDA executor).

        The handle's :class:`~repro.cuda.driver.LaunchPlan` unpacks the
        parameter block; the driver launches what it resolved.
        """
        driver = self._server.driver
        plan = driver._functions.get(fhandle)
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

    # -- cuBLAS ------------------------------------------------------------

    def rpc_cublasCreate(self):
        """Cricket procedure ``rpc_cublasCreate`` (forwards to the CUDA executor)."""
        err, handle = self._server.blas.cublasCreate()
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cublasDestroy(self, handle):
        """Cricket procedure ``rpc_cublasDestroy`` (forwards to the CUDA executor)."""
        err = self._server.blas.cublasDestroy(handle)
        self._track(err, handle)
        return err

    @staticmethod
    def _gemm(fn, a):
        return fn(
            a["handle"], a["transa"], a["transb"], a["m"], a["n"], a["k"],
            a["alpha"], a["a_ptr"], a["lda"], a["b_ptr"], a["ldb"],
            a["beta"], a["c_ptr"], a["ldc"],
        )

    def rpc_cublasSgemm(self, args):
        """Cricket procedure ``rpc_cublasSgemm`` (forwards to the CUDA executor)."""
        return self._gemm(self._server.blas.cublasSgemm, args)

    def rpc_cublasDgemm(self, args):
        """Cricket procedure ``rpc_cublasDgemm`` (forwards to the CUDA executor)."""
        return self._gemm(self._server.blas.cublasDgemm, args)

    # -- cuFFT ------------------------------------------------------------

    def rpc_cufftPlan1d(self, nx, fft_type, batch):
        """Cricket procedure ``rpc_cufftPlan1d`` (forwards to the CUDA executor)."""
        err, handle = self._server.fft.cufftPlan1d(nx, fft_type, batch)
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cufftDestroy(self, handle):
        """Cricket procedure ``rpc_cufftDestroy`` (forwards to the CUDA executor)."""
        err = self._server.fft.cufftDestroy(handle)
        self._track(err, handle)
        return err

    def rpc_cufftExecC2C(self, handle, idata, odata, direction):
        """Cricket procedure ``rpc_cufftExecC2C`` (forwards to the CUDA executor)."""
        return self._server.fft.cufftExecC2C(handle, idata, odata, direction)

    def rpc_cufftExecR2C(self, handle, idata, odata):
        """Cricket procedure ``rpc_cufftExecR2C`` (forwards to the CUDA executor)."""
        return self._server.fft.cufftExecR2C(handle, idata, odata)

    # -- cuSOLVER ------------------------------------------------------------

    def rpc_cusolverDnCreate(self):
        """Cricket procedure ``rpc_cusolverDnCreate`` (forwards to the CUDA executor)."""
        err, handle = self._server.solver.cusolverDnCreate()
        self._track(err, handle)
        return {"err": err, "value": handle}

    def rpc_cusolverDnDestroy(self, handle):
        """Cricket procedure ``rpc_cusolverDnDestroy`` (forwards to the CUDA executor)."""
        err = self._server.solver.cusolverDnDestroy(handle)
        self._track(err, handle)
        return err

    def rpc_cusolverDnDgetrfBufferSize(self, handle, n, a_ptr, lda):
        """Cricket procedure ``rpc_cusolverDnDgetrfBufferSize`` (forwards to the CUDA executor)."""
        err, lwork = self._server.solver.cusolverDnDgetrf_bufferSize(handle, n, n, a_ptr, lda)
        return {"err": err, "value": lwork}

    def rpc_cusolverDnDgetrf(self, a):
        """Cricket procedure ``rpc_cusolverDnDgetrf`` (forwards to the CUDA executor)."""
        return self._server.solver.cusolverDnDgetrf(
            a["handle"], a["n"], a["n"], a["a_ptr"], a["lda"],
            a["workspace"], a["ipiv"], a["info"],
        )

    def rpc_cusolverDnDgetrs(self, a):
        """Cricket procedure ``rpc_cusolverDnDgetrs`` (forwards to the CUDA executor)."""
        return self._server.solver.cusolverDnDgetrs(
            a["handle"], a["trans"], a["n"], a["nrhs"], a["a_ptr"], a["lda"],
            a["ipiv"], a["b_ptr"], a["ldb"], a["info"],
        )

    # -- checkpoint / restart ------------------------------------------------------

    def rpc_checkpoint(self):
        """Cricket procedure ``rpc_checkpoint`` (forwards to the CUDA executor)."""
        from repro.cricket.checkpoint import snapshot_server

        try:
            return {"err": 0, "data": snapshot_server(self._server)}
        except Exception as exc:
            # A canary failure at snapshot time surfaces as its typed
            # CUDA error (illegal address), not a generic unknown.
            return {"err": code_for_exception(exc), "data": b""}

    def rpc_restore(self, blob):
        """Cricket procedure ``rpc_restore`` (forwards to the CUDA executor)."""
        from repro.cricket.checkpoint import restore_server

        try:
            # Parsed and retained piecewise: detach it from the record.
            restore_server(self._server, bytes(blob))
            return 0
        except Exception as exc:
            return code_for_exception(exc)

    # -- session lifecycle -----------------------------------------------------

    def rpc_ping(self):
        """Cricket procedure ``rpc_ping``: lease heartbeat.

        Returns the remaining lease in nanoseconds (``LEASE_FOREVER`` when
        leases are disabled).  The heartbeat itself happens inside
        ``_charge_dispatch`` -- like every other procedure -- so a client
        that is busy with real calls never needs to ping; this procedure
        exists for *idle* clients and for cheap liveness probes.
        """
        if self._deny != 0:
            return {"err": self._deny, "value": 0}
        if self._session is None:
            return {"err": 0, "value": LEASE_FOREVER}
        return {"err": 0, "value": self._session.lease_remaining_ns(self.clock.now_ns)}

    # -- overload control -------------------------------------------------------

    def rpc_cancel(self, xid, ctx=None):
        """Cricket procedure ``rpc_cancel``: abort a queued/in-flight call.

        The one ``unlocked`` procedure: it neither takes ``self._lock`` nor
        charges dispatch, because the call being cancelled may be executing
        right now *holding that lock*, and a cancel that queued behind its
        target would be useless (and, under overload admission, could
        deadlock).  Cancellation is keyed on the caller's own identity, so
        one tenant cannot cancel another's work.
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

    def release_ledger(self, ledger) -> int:
        """Free every resource in ``ledger``; returns device bytes reclaimed.

        Called by the reaper when an orphaned session's grace period
        lapses.  Each release is individually guarded: a ledger entry may
        already be gone (explicitly destroyed, device reset, restored
        checkpoint), and reclamation must never fail halfway because of a
        stale handle.
        """
        before = sum(d.allocator.used_bytes for d in self.devices)
        # Leak report: allocations still live at release time never met a
        # cudaFree -- attribute each to its recorded allocation site before
        # the memory is reclaimed below.
        for ptr, (ordinal, size) in ledger.allocations.items():
            allocator = self.devices[ordinal].allocator
            if allocator.sanitizer is None or not allocator.is_live(int(ptr)):
                continue
            owner, site = allocator.site_of(int(ptr))
            self.leak_reports.append(
                {
                    "ptr": int(ptr),
                    "ordinal": ordinal,
                    "size": size,
                    "owner": owner,
                    "site": site,
                }
            )
            self.server_stats.sanitizer_leaks_reported += 1
        for kind, release in self._RELEASE.items():
            for key, entry in list(ledger.tables[kind].items()):
                try:
                    release(self, key, entry)
                except Exception:
                    pass
        ledger.clear()
        after = sum(d.allocator.used_bytes for d in self.devices)
        return max(before - after, 0)

    def _free_if_live(self, ptr: int, ordinal: int) -> None:
        allocator = self.devices[ordinal].allocator
        if allocator.is_live(ptr):
            allocator.free(ptr)

    #: How :meth:`release_ledger` frees one entry ``(key, ordinal)`` of each
    #: ledger kind, in release order: modules first (unloading frees their
    #: globals' device memory too), allocations last.
    _RELEASE = {
        "modules": lambda s, h, o: s._drivers[o].cuModuleUnload(h),
        "blas_handles": lambda s, h, o: s._blas[o].cublasDestroy(h),
        "solver_handles": lambda s, h, o: s._solvers[o].cusolverDnDestroy(h),
        "fft_plans": lambda s, h, o: s._ffts[o].cufftDestroy(h),
        "streams": lambda s, h, o: s.devices[o].streams.destroy_stream(int(h)),
        "events": lambda s, h, o: s.devices[o].streams.destroy_event(int(h)),
        "allocations": lambda s, ptr, entry: s._free_if_live(int(ptr), entry[0]),
    }

    def bytes_owned_by(self, identity: str) -> int:
        """Live device bytes attributed to ``identity``'s session (0 if gone)."""
        session = self.sessions.lookup(identity)
        if session is None:
            return 0
        total = 0
        for ptr, (ordinal, size) in session.ledger.allocations.items():
            if self.devices[ordinal].allocator.is_live(int(ptr)):
                total += size
        return total

    def reap_sessions(self) -> int:
        """Run the lease reaper now; returns device bytes reclaimed.

        The reaper also runs opportunistically on every dispatched call;
        this explicit entry point lets tests and operators force a sweep
        after advancing the clock without issuing a client RPC.
        """
        with self.implementation._lock:
            return self.sessions.reap(self.clock.now_ns, self.release_ledger)

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
            if d.allocator.used_bytes == 0:
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
