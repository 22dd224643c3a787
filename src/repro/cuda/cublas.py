"""cuBLAS subset (GEMM family) executing on simulated device memory.

Matrix layout follows cuBLAS: **column-major**, with explicit leading
dimensions.  The implementation maps column-major device buffers onto
transposed NumPy views, so numerics match what a C caller of cuBLAS would
observe byte-for-byte.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from repro.cuda import constants as C
from repro.gpu.device import GpuDevice
from repro.gpu.kernels import KernelCost
from repro.net.simclock import SimClock


class CublasContext:
    """cuBLAS handle table bound to one device."""

    def __init__(self, device: GpuDevice, clock: SimClock | None = None) -> None:
        self.device = device
        self.clock = clock if clock is not None else SimClock()
        self._handles: set[int] = set()
        self._next = count(1)

    def cublasCreate(self) -> tuple[int, int]:
        """Return (status, handle)."""
        handle = next(self._next)
        self._handles.add(handle)
        return C.CUBLAS_STATUS_SUCCESS, handle

    def cublasDestroy(self, handle: int) -> int:
        """Release a cuBLAS handle."""
        if handle not in self._handles:
            return C.CUBLAS_STATUS_NOT_INITIALIZED
        self._handles.remove(handle)
        return C.CUBLAS_STATUS_SUCCESS

    def capture_state(self) -> list[int]:
        """The live handles, ascending (a checkpoint's part)."""
        return sorted(self._handles)

    def restore_state(self, handles: list[int]) -> None:
        """Make ``handles`` the live set; the counter restarts after the
        largest, never at a live one."""
        self._handles = set(handles)
        self._next = count(max(handles, default=0) + 1)

    def _matrix(self, ptr: int, rows: int, cols: int, ld: int, dtype) -> np.ndarray:
        """Column-major (rows x cols) matrix view with leading dimension ld."""
        itemsize = np.dtype(dtype).itemsize
        raw = self.device.allocator.view(int(ptr), itemsize * ld * cols)
        full = raw.view(dtype).reshape(cols, ld)  # columns are contiguous
        return full[:, :rows].T  # shape (rows, cols), column-major semantics

    def _gemm(
        self,
        handle: int,
        transa: int,
        transb: int,
        m: int,
        n: int,
        k: int,
        alpha: float,
        a_ptr: int,
        lda: int,
        b_ptr: int,
        ldb: int,
        beta: float,
        c_ptr: int,
        ldc: int,
        dtype,
    ) -> int:
        if handle not in self._handles:
            return C.CUBLAS_STATUS_NOT_INITIALIZED
        if min(m, n, k) < 0 or transa not in (0, 1) or transb not in (0, 1):
            return C.CUBLAS_STATUS_INVALID_VALUE
        try:
            a_rows, a_cols = (m, k) if transa == C.CUBLAS_OP_N else (k, m)
            b_rows, b_cols = (k, n) if transb == C.CUBLAS_OP_N else (n, k)
            a = self._matrix(a_ptr, a_rows, a_cols, lda, dtype)
            b = self._matrix(b_ptr, b_rows, b_cols, ldb, dtype)
            c = self._matrix(c_ptr, m, n, ldc, dtype)
            if transa == C.CUBLAS_OP_T:
                a = a.T
            if transb == C.CUBLAS_OP_T:
                b = b.T
            if self.device.execute:
                result = alpha * (a @ b)
                if beta != 0.0:
                    result = result + beta * c
                c[:, :] = result.astype(dtype, copy=False)
            cost = KernelCost(
                flops=2.0 * m * n * k,
                bytes_read=np.dtype(dtype).itemsize * (m * k + k * n),
                bytes_written=np.dtype(dtype).itemsize * m * n,
            )
            seconds = self.device.timing.kernel_time_s(
                cost, fp64=(np.dtype(dtype) == np.float64)
            )
            self.device.streams.stream(0).submit(
                self.clock.now_ns, seconds * 1e9
            )
            return C.CUBLAS_STATUS_SUCCESS
        except Exception:
            return C.CUBLAS_STATUS_EXECUTION_FAILED

    def cublasSgemm(self, handle, transa, transb, m, n, k, alpha, a_ptr, lda, b_ptr, ldb, beta, c_ptr, ldc) -> int:
        """Single-precision GEMM: C = alpha*op(A)@op(B) + beta*C."""
        return self._gemm(handle, transa, transb, m, n, k, alpha, a_ptr, lda, b_ptr, ldb, beta, c_ptr, ldc, np.float32)

    def cublasDgemm(self, handle, transa, transb, m, n, k, alpha, a_ptr, lda, b_ptr, ldb, beta, c_ptr, ldc) -> int:
        """Double-precision GEMM."""
        return self._gemm(handle, transa, transb, m, n, k, alpha, a_ptr, lda, b_ptr, ldb, beta, c_ptr, ldc, np.float64)
