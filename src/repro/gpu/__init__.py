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

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "device": ("GpuDevice", "LaunchResult"),
        "catalog": ("GpuSpec", "A100", "T4", "P40", "V100", "CATALOG", "by_name"),
        "memory": ("DeviceAllocator", "DEVICE_VA_BASE"),
        "kernels": (
            "Kernel", "KernelCost", "KernelRegistry", "LaunchContext", "DEFAULT_REGISTRY",
            "build_default_registry",
        ),
        "timing": ("GpuTimingModel",),
        "stream": ("Stream", "Event", "StreamTable", "DEFAULT_STREAM"),
        "sanitizer": ("Sanitizer", "CANARY", "POISON"),
        "watchdog": ("KernelWatchdog",),
        "errors": (
            "GpuError", "OutOfMemoryError", "InvalidDevicePointerError", "InvalidSizeError",
            "DoubleFreeError", "AllocationOverlapError", "UnknownKernelError", "KernelParamError",
            "InvalidStreamError", "DeviceMismatchError", "DeviceFaultError", "SanitizerError",
            "OutOfBoundsError", "UseAfterFreeError", "QuarantineDoubleFreeError",
            "RedzoneCorruptionError", "KernelHangError",
        ),
    },
)
