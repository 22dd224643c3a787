"""cuFFT subset: 1-D complex and real FFT plans.

The paper names cuFFT alongside cuBLAS and cuSOLVER as the libraries GPU
applications rely on (§3.3).  This subset implements the classic plan
API -- ``cufftPlan1d`` / ``cufftExec*`` / ``cufftDestroy`` -- over device
memory, with NumPy's FFT providing the numerics and the roofline model the
timing (5 n log2 n FLOPs per transform, the standard FFT cost accounting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.gpu.device import GpuDevice
from repro.gpu.kernels import KernelCost
from repro.net.simclock import SimClock

CUFFT_SUCCESS = 0
CUFFT_INVALID_PLAN = 1
CUFFT_INVALID_VALUE = 4
CUFFT_EXEC_FAILED = 6

#: transform types (cufftType)
CUFFT_C2C = 0x29
CUFFT_R2C = 0x2A
CUFFT_C2R = 0x2C

#: transform directions
CUFFT_FORWARD = -1
CUFFT_INVERSE = 1


@dataclass(frozen=True)
class FftPlan:
    """One 1-D FFT plan."""

    handle: int
    nx: int
    fft_type: int
    batch: int


class CufftContext:
    """cuFFT plan table bound to one device."""

    def __init__(self, device: GpuDevice, clock: SimClock | None = None) -> None:
        self.device = device
        self.clock = clock if clock is not None else SimClock()
        self._plans: dict[int, FftPlan] = {}
        self._next = count(1)

    def _charge(self, nx: int, batch: int) -> None:
        cost = KernelCost(
            flops=5.0 * nx * math.log2(max(nx, 2)) * batch,
            bytes_read=8.0 * nx * batch,
            bytes_written=8.0 * nx * batch,
        )
        seconds = self.device.timing.kernel_time_s(cost)
        self.device.streams.stream(0).submit(self.clock.now_ns, seconds * 1e9)

    # -- plans -----------------------------------------------------------------

    def cufftPlan1d(self, nx: int, fft_type: int, batch: int) -> tuple[int, int]:
        """Create a 1-D plan; returns (status, plan handle)."""
        if nx <= 0 or batch <= 0:
            return CUFFT_INVALID_VALUE, 0
        if fft_type not in (CUFFT_C2C, CUFFT_R2C, CUFFT_C2R):
            return CUFFT_INVALID_VALUE, 0
        handle = next(self._next)
        self._plans[handle] = FftPlan(handle, nx, fft_type, batch)
        return CUFFT_SUCCESS, handle

    def cufftDestroy(self, handle: int) -> int:
        """Release an FFT plan."""
        if self._plans.pop(handle, None) is None:
            return CUFFT_INVALID_PLAN
        return CUFFT_SUCCESS

    # -- execution ------------------------------------------------------------

    def cufftExecC2C(self, handle: int, idata: int, odata: int, direction: int) -> int:
        """complex64 -> complex64 transform (in place allowed)."""
        plan = self._plans.get(handle)
        if plan is None:
            return CUFFT_INVALID_PLAN
        if plan.fft_type != CUFFT_C2C or direction not in (CUFFT_FORWARD, CUFFT_INVERSE):
            return CUFFT_INVALID_VALUE
        try:
            n = plan.nx * plan.batch
            src = self.device.allocator.view(int(idata), 8 * n).view(np.complex64)
            dst = self.device.allocator.view(int(odata), 8 * n).view(np.complex64)
            if self.device.execute:
                data = src.reshape(plan.batch, plan.nx)
                if direction == CUFFT_FORWARD:
                    result = np.fft.fft(data, axis=1)
                else:
                    # cuFFT inverse is unnormalized, unlike numpy.ifft
                    result = np.fft.ifft(data, axis=1) * plan.nx
                dst.reshape(plan.batch, plan.nx)[:, :] = result.astype(np.complex64)
            self._charge(plan.nx, plan.batch)
            return CUFFT_SUCCESS
        except Exception:
            return CUFFT_EXEC_FAILED

    def cufftExecR2C(self, handle: int, idata: int, odata: int) -> int:
        """float32 -> complex64 forward transform (nx/2+1 outputs per batch)."""
        plan = self._plans.get(handle)
        if plan is None:
            return CUFFT_INVALID_PLAN
        if plan.fft_type != CUFFT_R2C:
            return CUFFT_INVALID_VALUE
        try:
            half = plan.nx // 2 + 1
            src = self.device.allocator.view(
                int(idata), 4 * plan.nx * plan.batch
            ).view(np.float32)
            dst = self.device.allocator.view(
                int(odata), 8 * half * plan.batch
            ).view(np.complex64)
            if self.device.execute:
                data = src.reshape(plan.batch, plan.nx)
                result = np.fft.rfft(data, axis=1)
                dst.reshape(plan.batch, half)[:, :] = result.astype(np.complex64)
            self._charge(plan.nx, plan.batch)
            return CUFFT_SUCCESS
        except Exception:
            return CUFFT_EXEC_FAILED
