"""Kernel registry and builtin kernels.

A *kernel* in the simulator pairs a parameter specification (matching what
the cubin's ``.nv.info`` section declares) with a Python function that
performs the computation on device memory.  This substitutes for the SASS
machine code a real cubin carries: the client still ships cubin bytes over
RPC and the server still resolves entry points by name -- only the
execution engine differs.

Builtin kernels cover the proxy applications of the paper's evaluation
(matrixMul, histogram, the bandwidthTest no-op) plus general-purpose
kernels used by examples and tests.

Each kernel also declares a cost function returning the FLOPs and device
memory traffic of one launch, which the timing model converts to simulated
GPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.gpu.errors import KernelParamError, UnknownKernelError

#: Parameter kinds understood by the launch marshaller.
PARAM_KINDS = ("ptr", "u32", "i32", "u64", "f32", "f64")

_PARAM_SIZES = {"ptr": 8, "u64": 8, "f64": 8, "u32": 4, "i32": 4, "f32": 4}

_INTEGER = (int, np.integer)
_NUMBER = (int, float, np.floating)
#: what a launch value of each kind must be an instance of
_ACCEPTED = {
    "ptr": _INTEGER, "u32": _INTEGER, "i32": _INTEGER, "u64": _INTEGER,
    "f32": _NUMBER, "f64": _NUMBER,
}


class KernelCost(NamedTuple):
    """Work performed by one kernel launch.

    Every launch's cost function builds one, so it is a named tuple: about
    half what constructing a frozen dataclass costs.
    """

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    @property
    def bytes_moved(self) -> float:
        """Total device-memory traffic of the launch, bytes."""
        return self.bytes_read + self.bytes_written


class LaunchContext:
    """Everything a kernel body receives at launch time (read-only by contract).

    One is built per launch, so it is a plain ``__slots__`` object whose
    ``total_threads`` is computed once, here.
    """

    __slots__ = ("device", "grid", "block", "shared_mem", "params", "total_threads")

    def __init__(
        self,
        device: Any,  # GpuDevice; untyped to avoid a circular import
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        shared_mem: int,
        params: tuple[Any, ...],
    ) -> None:
        self.device = device
        self.grid = grid
        self.block = block
        self.shared_mem = shared_mem
        self.params = params
        gx, gy, gz = grid
        bx, by, bz = block
        #: total threads of the launch (grid x block)
        self.total_threads = gx * gy * gz * bx * by * bz

    def view(self, ptr: int, nbytes: int, dtype=np.uint8) -> np.ndarray:
        """Typed view of device memory (convenience for kernel bodies)."""
        raw = self.device.allocator.view(int(ptr), int(nbytes))
        return raw.view(dtype)


KernelFn = Callable[[LaunchContext], None]
CostFn = Callable[[LaunchContext], KernelCost]


def _default_cost(ctx: LaunchContext) -> KernelCost:
    # One FLOP and 8 bytes of traffic per thread: a generic light kernel.
    threads = ctx.total_threads
    return KernelCost(flops=threads, bytes_read=4 * threads, bytes_written=4 * threads)


@dataclass(frozen=True)
class Kernel:
    """A launchable kernel: body, parameter spec and cost model."""

    name: str
    param_kinds: tuple[str, ...]
    body: KernelFn
    cost: CostFn = _default_cost

    def __post_init__(self) -> None:
        for kind in self.param_kinds:
            if kind not in PARAM_KINDS:
                raise ValueError(f"unknown param kind {kind!r} in kernel {self.name}")
        # What each parameter must be an instance of, for check_params.
        object.__setattr__(
            self, "_accepted", tuple(_ACCEPTED[kind] for kind in self.param_kinds)
        )

    @property
    def param_sizes(self) -> tuple[int, ...]:
        """Byte size of each parameter, in order."""
        return tuple(_PARAM_SIZES[k] for k in self.param_kinds)

    def check_params(self, params: tuple[Any, ...]) -> None:
        """Validate launch parameters against the specification.

        One ``isinstance`` per parameter; a launch that fails it is handed
        to :meth:`check_params_reference`, which words the error.
        """
        accepted = self._accepted
        if len(params) == len(accepted) and all(map(isinstance, params, accepted)):
            return
        self.check_params_reference(params)

    def check_params_reference(self, params: tuple[Any, ...]) -> None:
        """The kind-by-kind check: the reference, and the error reporter."""
        if len(params) != len(self.param_kinds):
            raise KernelParamError(
                f"kernel {self.name} takes {len(self.param_kinds)} parameter(s), "
                f"got {len(params)}"
            )
        for i, (kind, value) in enumerate(zip(self.param_kinds, params)):
            if kind in ("ptr", "u32", "i32", "u64") and not isinstance(value, (int, np.integer)):
                raise KernelParamError(
                    f"kernel {self.name} parameter {i} ({kind}) must be an int"
                )
            if kind in ("f32", "f64") and not isinstance(value, (int, float, np.floating)):
                raise KernelParamError(
                    f"kernel {self.name} parameter {i} ({kind}) must be a number"
                )


class KernelRegistry:
    """Name -> :class:`Kernel` lookup with registration helpers."""

    def __init__(self) -> None:
        self._kernels: dict[str, Kernel] = {}

    def register(self, kernel: Kernel, *, replace: bool = False) -> Kernel:
        """Add a kernel; duplicate names are rejected unless ``replace``."""
        if not replace and kernel.name in self._kernels:
            raise ValueError(f"kernel {kernel.name!r} already registered")
        self._kernels[kernel.name] = kernel
        return kernel

    def define(
        self,
        name: str,
        param_kinds: Iterable[str],
        cost: CostFn | None = None,
    ) -> Callable[[KernelFn], Kernel]:
        """Decorator form of :meth:`register`."""

        def wrap(fn: KernelFn) -> Kernel:
            return self.register(
                Kernel(name, tuple(param_kinds), fn, cost or _default_cost)
            )

        return wrap

    def get(self, name: str) -> Kernel:
        """Look up a kernel; raises :class:`UnknownKernelError` if missing."""
        try:
            return self._kernels[name]
        except KeyError:
            raise UnknownKernelError(f"no kernel named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def names(self) -> tuple[str, ...]:
        """All registered kernel names, sorted."""
        return tuple(sorted(self._kernels))

    def clone(self) -> "KernelRegistry":
        """Independent copy (used when snapshotting device state)."""
        other = KernelRegistry()
        other._kernels = dict(self._kernels)
        return other


# ---------------------------------------------------------------------------
# Builtin kernels
# ---------------------------------------------------------------------------


def build_default_registry() -> KernelRegistry:
    """Registry with the kernels used by the proxy applications."""
    reg = KernelRegistry()

    @reg.define("_Z9nopKernelv", [], cost=lambda ctx: KernelCost())
    def nop_kernel(ctx: LaunchContext) -> None:
        """Empty kernel used by launch micro-benchmarks (Figure 6c)."""

    def vector_add_cost(ctx: LaunchContext) -> KernelCost:
        n = int(ctx.params[3])
        return KernelCost(flops=n, bytes_read=8.0 * n, bytes_written=4.0 * n)

    @reg.define("vectorAdd", ["ptr", "ptr", "ptr", "i32"], cost=vector_add_cost)
    def vector_add(ctx: LaunchContext) -> None:
        """C[i] = A[i] + B[i] over float32 vectors."""
        a_ptr, b_ptr, c_ptr, n = ctx.params
        n = int(n)
        a = ctx.view(a_ptr, 4 * n, np.float32)
        b = ctx.view(b_ptr, 4 * n, np.float32)
        c = ctx.view(c_ptr, 4 * n, np.float32)
        np.add(a, b, out=c)

    def matmul_cost(ctx: LaunchContext) -> KernelCost:
        w_a, w_b = int(ctx.params[3]), int(ctx.params[4])
        bx, by = ctx.block[0], ctx.block[1]
        h_c = ctx.grid[1] * by
        w_c = ctx.grid[0] * bx
        flops = 2.0 * h_c * w_c * w_a
        return KernelCost(
            flops=flops,
            bytes_read=4.0 * (h_c * w_a + w_a * w_b),
            bytes_written=4.0 * h_c * w_c,
        )

    @reg.define(
        "matrixMulCUDA", ["ptr", "ptr", "ptr", "i32", "i32"], cost=matmul_cost
    )
    def matrix_mul(ctx: LaunchContext) -> None:
        """C = A @ B for row-major float32 matrices (CUDA sample layout).

        A is (hA x wA), B is (wA x wB); the C extent comes from grid*block
        exactly as in the CUDA sample, where each thread owns one element.
        """
        c_ptr, a_ptr, b_ptr, w_a, w_b = ctx.params
        w_a, w_b = int(w_a), int(w_b)
        h_c = ctx.grid[1] * ctx.block[1]
        w_c = ctx.grid[0] * ctx.block[0]
        a = ctx.view(a_ptr, 4 * h_c * w_a, np.float32).reshape(h_c, w_a)
        b = ctx.view(b_ptr, 4 * w_a * w_b, np.float32).reshape(w_a, w_b)
        c = ctx.view(c_ptr, 4 * h_c * w_c, np.float32).reshape(h_c, w_c)
        np.matmul(a, b[:, :w_c], out=c)

    def histogram_cost(ctx: LaunchContext) -> KernelCost:
        byte_count = int(ctx.params[2])
        return KernelCost(flops=byte_count, bytes_read=float(byte_count), bytes_written=256 * 4)

    @reg.define("histogram256Kernel", ["ptr", "ptr", "i32"], cost=histogram_cost)
    def histogram256(ctx: LaunchContext) -> None:
        """256-bin byte histogram (CUDA sample semantics)."""
        hist_ptr, data_ptr, byte_count = ctx.params
        byte_count = int(byte_count)
        data = ctx.view(data_ptr, byte_count, np.uint8)
        hist = ctx.view(hist_ptr, 256 * 4, np.uint32)
        hist[:] = np.bincount(data, minlength=256).astype(np.uint32)

    @reg.define("histogram64Kernel", ["ptr", "ptr", "i32"], cost=histogram_cost)
    def histogram64(ctx: LaunchContext) -> None:
        """64-bin histogram over the high 6 bits of each byte."""
        hist_ptr, data_ptr, byte_count = ctx.params
        byte_count = int(byte_count)
        data = ctx.view(data_ptr, byte_count, np.uint8)
        hist = ctx.view(hist_ptr, 64 * 4, np.uint32)
        hist[:] = np.bincount(data >> 2, minlength=64).astype(np.uint32)

    def merge_histogram_cost(ctx: LaunchContext) -> KernelCost:
        count = int(ctx.params[2])
        return KernelCost(
            flops=256.0 * count, bytes_read=256.0 * 4 * count, bytes_written=256 * 4
        )

    @reg.define(
        "mergeHistogram256Kernel", ["ptr", "ptr", "i32"], cost=merge_histogram_cost
    )
    def merge_histogram256(ctx: LaunchContext) -> None:
        """Sum ``count`` partial 256-bin histograms into the final one."""
        out_ptr, partial_ptr, count = ctx.params
        count = int(count)
        partial = ctx.view(partial_ptr, count * 256 * 4, np.uint32).reshape(count, 256)
        out = ctx.view(out_ptr, 256 * 4, np.uint32)
        out[:] = partial.sum(axis=0, dtype=np.uint64).astype(np.uint32)

    def saxpy_cost(ctx: LaunchContext) -> KernelCost:
        n = int(ctx.params[3])
        return KernelCost(flops=2.0 * n, bytes_read=8.0 * n, bytes_written=4.0 * n)

    @reg.define("saxpy", ["ptr", "ptr", "f32", "i32"], cost=saxpy_cost)
    def saxpy(ctx: LaunchContext) -> None:
        """y = a*x + y over float32 vectors."""
        y_ptr, x_ptr, a, n = ctx.params
        n = int(n)
        x = ctx.view(x_ptr, 4 * n, np.float32)
        y = ctx.view(y_ptr, 4 * n, np.float32)
        y += np.float32(a) * x

    def reduce_cost(ctx: LaunchContext) -> KernelCost:
        n = int(ctx.params[2])
        return KernelCost(flops=n, bytes_read=4.0 * n, bytes_written=8.0)

    @reg.define("reduceSum", ["ptr", "ptr", "i32"], cost=reduce_cost)
    def reduce_sum(ctx: LaunchContext) -> None:
        """out[0] = sum(in[0..n)) in float64 for stability."""
        out_ptr, in_ptr, n = ctx.params
        n = int(n)
        data = ctx.view(in_ptr, 4 * n, np.float32)
        out = ctx.view(out_ptr, 8, np.float64)
        out[0] = float(np.sum(data, dtype=np.float64))

    def fill_cost(ctx: LaunchContext) -> KernelCost:
        n = int(ctx.params[2])
        return KernelCost(bytes_written=4.0 * n)

    @reg.define("fillValue", ["ptr", "f32", "i32"], cost=fill_cost)
    def fill_value(ctx: LaunchContext) -> None:
        """dst[i] = value over float32."""
        dst_ptr, value, n = ctx.params
        n = int(n)
        ctx.view(dst_ptr, 4 * n, np.float32)[:] = np.float32(value)

    def nbody_cost(ctx: LaunchContext) -> KernelCost:
        n = int(ctx.params[3])
        # ~20 FLOPs per body-body interaction (the CUDA sample's accounting)
        return KernelCost(
            flops=20.0 * n * n,
            bytes_read=16.0 * n * 2,
            bytes_written=16.0 * n * 2,
        )

    @reg.define(
        "integrateBodies", ["ptr", "ptr", "ptr", "i32", "f32"], cost=nbody_cost
    )
    def integrate_bodies(ctx: LaunchContext) -> None:
        """All-pairs gravitational N-body step (nbody sample semantics).

        Bodies are float32 (x, y, z, mass) quadruples; velocities are
        float32 (vx, vy, vz, pad).  Reads ``pos_in``, writes ``pos_out``
        and updates velocities in place with softened gravity.
        """
        pos_out_ptr, pos_in_ptr, vel_ptr, n, dt = ctx.params
        n = int(n)
        dt = np.float32(dt)
        softening2 = np.float32(0.01)
        pos = ctx.view(pos_in_ptr, 16 * n, np.float32).reshape(n, 4)
        out = ctx.view(pos_out_ptr, 16 * n, np.float32).reshape(n, 4)
        vel = ctx.view(vel_ptr, 16 * n, np.float32).reshape(n, 4)
        xyz = pos[:, :3]
        mass = pos[:, 3]
        delta = xyz[None, :, :] - xyz[:, None, :]  # (n, n, 3)
        dist2 = np.sum(delta * delta, axis=2) + softening2
        inv_dist3 = (mass[None, :] / (dist2 * np.sqrt(dist2))).astype(np.float32)
        accel = np.einsum("ij,ijk->ik", inv_dist3, delta)
        vel[:, :3] += accel * dt
        out[:, :3] = xyz + vel[:, :3] * dt
        out[:, 3] = mass

    def transpose_cost(ctx: LaunchContext) -> KernelCost:
        w, h = int(ctx.params[2]), int(ctx.params[3])
        return KernelCost(bytes_read=4.0 * w * h, bytes_written=4.0 * w * h)

    @reg.define("transposeCoalesced", ["ptr", "ptr", "i32", "i32"], cost=transpose_cost)
    def transpose(ctx: LaunchContext) -> None:
        """out = in.T for a (h x w) row-major float32 matrix."""
        out_ptr, in_ptr, w, h = ctx.params
        w, h = int(w), int(h)
        src = ctx.view(in_ptr, 4 * w * h, np.float32).reshape(h, w)
        dst = ctx.view(out_ptr, 4 * w * h, np.float32).reshape(w, h)
        dst[:] = src.T

    return reg


#: Shared default registry used by freshly created devices.
DEFAULT_REGISTRY = build_default_registry()
