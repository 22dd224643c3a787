"""Simulated GPU device model.

Substitutes for the physical NVIDIA GPUs of the paper's testbed (A100, T4,
P40).  Kernels execute numerically on NumPy-backed device memory; execution
*time* comes from an analytic roofline model so the Cricket server can
charge realistic GPU durations to the experiment's virtual clock.

Components:

* :mod:`repro.gpu.catalog` -- device specifications,
* :mod:`repro.gpu.memory` -- device memory allocator (first-fit, 256-byte
  aligned, typed error detection),
* :mod:`repro.gpu.kernels` -- kernel registry plus the builtin kernels used
  by the paper's proxy applications,
* :mod:`repro.gpu.stream` -- streams and events over virtual time,
* :mod:`repro.gpu.timing` -- the roofline timing model,
* :mod:`repro.gpu.sanitizer` -- redzones, quarantine and attribution for
  the device allocator (compute-sanitizer semantics at the RPC boundary),
* :mod:`repro.gpu.watchdog` -- per-stream kernel execution budgets over
  virtual time,
* :mod:`repro.gpu.device` -- the device facade, with checkpoint/restore.
"""

from repro.gpu.catalog import A100, CATALOG, P40, T4, V100, GpuSpec, by_name
from repro.gpu.device import GpuDevice, LaunchResult
from repro.gpu.errors import (
    AllocationOverlapError,
    DeviceFaultError,
    DeviceMismatchError,
    DoubleFreeError,
    GpuError,
    InvalidDevicePointerError,
    InvalidSizeError,
    InvalidStreamError,
    KernelHangError,
    KernelParamError,
    OutOfBoundsError,
    OutOfMemoryError,
    QuarantineDoubleFreeError,
    RedzoneCorruptionError,
    SanitizerError,
    UnknownKernelError,
    UseAfterFreeError,
)
from repro.gpu.kernels import (
    DEFAULT_REGISTRY,
    Kernel,
    KernelCost,
    KernelRegistry,
    LaunchContext,
    build_default_registry,
)
from repro.gpu.memory import DEVICE_VA_BASE, DeviceAllocator
from repro.gpu.sanitizer import CANARY, POISON, Sanitizer, SanitizerConfig
from repro.gpu.stream import DEFAULT_STREAM, Event, Stream, StreamTable
from repro.gpu.timing import GpuTimingModel
from repro.gpu.watchdog import DEFAULT_BUDGET_NS, KernelWatchdog

__all__ = [
    "GpuDevice",
    "LaunchResult",
    "GpuSpec",
    "A100",
    "T4",
    "P40",
    "V100",
    "CATALOG",
    "by_name",
    "DeviceAllocator",
    "DEVICE_VA_BASE",
    "Kernel",
    "KernelCost",
    "KernelRegistry",
    "LaunchContext",
    "DEFAULT_REGISTRY",
    "build_default_registry",
    "GpuTimingModel",
    "Stream",
    "Event",
    "StreamTable",
    "DEFAULT_STREAM",
    "Sanitizer",
    "SanitizerConfig",
    "CANARY",
    "POISON",
    "KernelWatchdog",
    "DEFAULT_BUDGET_NS",
    "GpuError",
    "OutOfMemoryError",
    "InvalidDevicePointerError",
    "InvalidSizeError",
    "DoubleFreeError",
    "AllocationOverlapError",
    "UnknownKernelError",
    "KernelParamError",
    "InvalidStreamError",
    "DeviceMismatchError",
    "DeviceFaultError",
    "SanitizerError",
    "OutOfBoundsError",
    "UseAfterFreeError",
    "QuarantineDoubleFreeError",
    "RedzoneCorruptionError",
    "KernelHangError",
]
