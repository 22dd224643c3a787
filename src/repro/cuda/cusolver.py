"""cuSOLVER dense subset: LU factorization and solve.

Implements the ``cusolverDn`` calls used by the
``cuSolverDn_LinearSolver`` proxy application: handle management, workspace
query, ``Dgetrf`` (LU with partial pivoting) and ``Dgetrs`` (triangular
solves).  Matrices are column-major on device memory, as cuSOLVER requires;
the numerics use :func:`scipy.linalg.lu_factor`/``lu_solve`` so results are
LAPACK-exact.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from repro.cuda import constants as C
from repro.gpu.device import GpuDevice
from repro.gpu.kernels import KernelCost
from repro.net.simclock import SimClock


class CusolverContext:
    """cusolverDn handle table bound to one device."""

    def __init__(self, device: GpuDevice, clock: SimClock | None = None) -> None:
        self.device = device
        self.clock = clock if clock is not None else SimClock()
        self._handles: set[int] = set()
        self._next = count(1)
        self.api_call_count = 0

    def _count(self) -> None:
        self.api_call_count += 1

    def cusolverDnCreate(self) -> tuple[int, int]:
        """Return (status, handle)."""
        self._count()
        handle = next(self._next)
        self._handles.add(handle)
        return C.CUSOLVER_STATUS_SUCCESS, handle

    def cusolverDnDestroy(self, handle: int) -> int:
        """Release a cusolverDn handle."""
        self._count()
        if handle not in self._handles:
            return C.CUSOLVER_STATUS_NOT_INITIALIZED
        self._handles.remove(handle)
        return C.CUSOLVER_STATUS_SUCCESS

    def _matrix(self, ptr: int, rows: int, cols: int, ld: int) -> np.ndarray:
        raw = self.device.allocator.view(int(ptr), 8 * ld * cols)
        return raw.view(np.float64).reshape(cols, ld)[:, :rows].T

    def cusolverDnDgetrf_bufferSize(self, handle: int, m: int, n: int, a_ptr: int, lda: int) -> tuple[int, int]:
        """Return (status, workspace size in elements)."""
        self._count()
        if handle not in self._handles:
            return C.CUSOLVER_STATUS_NOT_INITIALIZED, 0
        if m < 0 or n < 0 or lda < max(1, m):
            return C.CUSOLVER_STATUS_INVALID_VALUE, 0
        # LAPACK-style heuristic: one blocked panel of width 64.
        return C.CUSOLVER_STATUS_SUCCESS, max(1, 64 * max(m, n))

    def cusolverDnDgetrf(
        self,
        handle: int,
        m: int,
        n: int,
        a_ptr: int,
        lda: int,
        workspace_ptr: int,
        ipiv_ptr: int,
        info_ptr: int,
    ) -> int:
        """LU factorization in place with partial pivoting.

        ``ipiv`` receives 1-based pivot indices (int32), ``info`` one int32
        status, both written to device memory like the real API.
        """
        self._count()
        if handle not in self._handles:
            return C.CUSOLVER_STATUS_NOT_INITIALIZED
        if m != n:
            return C.CUSOLVER_STATUS_INVALID_VALUE  # subset: square systems
        try:
            a = self._matrix(a_ptr, m, n, lda)
            ipiv = self.device.allocator.view(int(ipiv_ptr), 4 * n).view(np.int32)
            info = self.device.allocator.view(int(info_ptr), 4).view(np.int32)
            if self.device.execute:
                from scipy.linalg import lu_factor  # SciPy loads at the first LU

                lu, piv = lu_factor(np.ascontiguousarray(a))
                a[:, :] = lu
                ipiv[:] = (piv + 1).astype(np.int32)  # LAPACK is 1-based
                info[0] = 0
            cost = KernelCost(
                flops=(2.0 / 3.0) * n**3,
                bytes_read=8.0 * n * n,
                bytes_written=8.0 * n * n,
            )
            seconds = self.device.timing.kernel_time_s(cost, fp64=True)
            self.device.streams.stream(0).submit(self.clock.now_ns, seconds * 1e9)
            return C.CUSOLVER_STATUS_SUCCESS
        except Exception:
            return C.CUSOLVER_STATUS_EXECUTION_FAILED

    def cusolverDnDgetrs(
        self,
        handle: int,
        trans: int,
        n: int,
        nrhs: int,
        a_ptr: int,
        lda: int,
        ipiv_ptr: int,
        b_ptr: int,
        ldb: int,
        info_ptr: int,
    ) -> int:
        """Solve ``A x = b`` using a prior ``Dgetrf`` factorization."""
        self._count()
        if handle not in self._handles:
            return C.CUSOLVER_STATUS_NOT_INITIALIZED
        try:
            lu = self._matrix(a_ptr, n, n, lda)
            b = self._matrix(b_ptr, n, nrhs, ldb)
            ipiv = self.device.allocator.view(int(ipiv_ptr), 4 * n).view(np.int32)
            info = self.device.allocator.view(int(info_ptr), 4).view(np.int32)
            if self.device.execute:
                from scipy.linalg import lu_solve

                piv = ipiv.astype(np.int64) - 1
                solution = lu_solve(
                    (np.ascontiguousarray(lu), piv),
                    np.ascontiguousarray(b),
                    trans=trans,
                )
                b[:, :] = solution
                info[0] = 0
            cost = KernelCost(
                flops=2.0 * n * n * nrhs,
                bytes_read=8.0 * (n * n + n * nrhs),
                bytes_written=8.0 * n * nrhs,
            )
            seconds = self.device.timing.kernel_time_s(cost, fp64=True)
            self.device.streams.stream(0).submit(self.clock.now_ns, seconds * 1e9)
            return C.CUSOLVER_STATUS_SUCCESS
        except Exception:
            return C.CUSOLVER_STATUS_EXECUTION_FAILED
