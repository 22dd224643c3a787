"""Error mapping between device-model exceptions and CUDA error codes."""

from __future__ import annotations

from repro.cuda import constants as C
from repro.cubin.errors import CubinError
from repro.gpu.errors import (
    AllocationOverlapError,
    DeviceFaultError,
    DoubleFreeError,
    GpuError,
    InvalidDevicePointerError,
    InvalidSizeError,
    InvalidStreamError,
    KernelHangError,
    KernelParamError,
    OutOfMemoryError,
    SanitizerError,
    UnknownKernelError,
)


class CudaError(Exception):
    """A CUDA API failure carrying its ``cudaError_t`` code."""

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(f"{C.error_name(code)}: {message}" if message else C.error_name(code))
        self.code = code


def code_for_exception(exc: BaseException) -> int:
    """Map a device/model exception onto the matching ``cudaError_t``."""
    if isinstance(exc, CudaError):
        return exc.code
    if isinstance(exc, DeviceFaultError):
        return exc.code
    if isinstance(exc, KernelHangError):
        return C.cudaErrorLaunchTimeout
    if isinstance(exc, SanitizerError):
        # Illegal-address-class violations (OOB, use-after-free, redzone
        # corruption) are sticky context poisons; quarantine double frees
        # surface like any double free.  Checked before the legacy branch
        # below because QuarantineDoubleFreeError subclasses both.
        return (
            C.cudaErrorIllegalAddress if exc.sticky else C.cudaErrorInvalidDevicePointer
        )
    if isinstance(exc, OutOfMemoryError):
        return C.cudaErrorMemoryAllocation
    if isinstance(exc, (InvalidDevicePointerError, DoubleFreeError, AllocationOverlapError)):
        return C.cudaErrorInvalidDevicePointer
    if isinstance(exc, InvalidStreamError):
        return C.cudaErrorInvalidResourceHandle
    if isinstance(exc, (UnknownKernelError, CubinError)):
        return C.cudaErrorInvalidKernelImage
    if isinstance(exc, (KernelParamError, InvalidSizeError)):
        return C.cudaErrorInvalidValue
    if isinstance(exc, (ValueError, TypeError)):
        return C.cudaErrorInvalidValue
    if isinstance(exc, GpuError):
        return C.cudaErrorUnknown
    return C.cudaErrorUnknown
