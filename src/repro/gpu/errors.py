"""Exception hierarchy for the simulated GPU device."""

from __future__ import annotations


class GpuError(Exception):
    """Base class for device-model failures."""


class OutOfMemoryError(GpuError):
    """Device memory exhausted (maps to ``cudaErrorMemoryAllocation``)."""


class InvalidDevicePointerError(GpuError):
    """Address does not fall inside any live allocation."""


class DoubleFreeError(GpuError):
    """An address was freed twice (the class of bug RPC-Lib's lifetime
    wrappers make impossible on the client side)."""


class AllocationOverlapError(GpuError):
    """A device access crosses the end of its allocation."""


class UnknownKernelError(GpuError):
    """Launch refers to a kernel the device has not loaded."""


class KernelParamError(GpuError):
    """Launch parameters do not match the kernel's parameter specification."""


class InvalidSizeError(GpuError):
    """A device-memory access asked for a negative number of bytes."""


class InvalidStreamError(GpuError):
    """Operation names a stream handle that does not exist."""


class DeviceMismatchError(GpuError):
    """Operation mixes resources from different devices."""


class DeviceFaultError(GpuError):
    """The device carries a *sticky* hardware fault (ECC / corrupted context).

    Mirrors real CUDA semantics: once an uncorrectable ECC error or a
    context corruption is raised, every subsequent call on that device
    fails with the same error until an explicit ``cudaDeviceReset``.
    ``code`` is the ``cudaError_t`` the fault surfaces as.  ``origin``
    records *who* poisoned the device: ``"injected"`` for operator/chaos
    faults (handled manually, as in the failover harness), or
    ``"sanitizer"`` / ``"watchdog"`` for faults raised by the
    compute-sanitizer and kernel watchdog -- the recovery ladder only
    auto-heals the latter.  ``culprit`` is the session identity whose
    bug caused the poison, when known.
    """

    def __init__(
        self, kind: str, code: int, *, origin: str = "injected", culprit: str = ""
    ) -> None:
        super().__init__(f"sticky device fault ({kind})")
        self.kind = kind
        self.code = code
        self.origin = origin
        self.culprit = culprit


class SanitizerError(GpuError):
    """Base class for compute-sanitizer violations.

    Each violation carries enough context to attribute the bug: the
    violation ``kind`` (stable string, mirrored in ``ServerStats``), the
    offending device address, and the *allocation site* (owner identity
    plus site tag recorded at ``cudaMalloc`` time) of the allocation
    involved.  ``sticky`` marks illegal-address-class violations that
    poison the device context, exactly like a wild pointer on real
    hardware.
    """

    kind = "sanitizer"
    sticky = False

    def __init__(
        self, message: str, *, addr: int = 0, owner: str = "", site: str = ""
    ) -> None:
        suffix = f" (owner={owner or 'unknown'}, site={site or 'unknown'})"
        super().__init__(message + suffix)
        self.addr = addr
        self.owner = owner
        self.site = site


class OutOfBoundsError(SanitizerError):
    """A memcpy/memset/D2D access crossed its allocation's bounds.

    Sticky: on real hardware an out-of-bounds device access is an
    illegal-address fault that corrupts the context.  ``kind`` is set to
    ``oob-write`` or ``oob-read`` by the allocator depending on the
    direction of the failed access.
    """

    kind = "oob-write"
    sticky = True

    def __init__(self, message: str, *, mode: str = "write", **kw) -> None:
        super().__init__(message, **kw)
        self.kind = "oob-read" if mode == "read" else "oob-write"


class UseAfterFreeError(SanitizerError):
    """An access landed inside quarantined (freed, not yet reusable) memory.

    Deterministically catchable *because* of the quarantine: the address
    range is withheld from reuse, so the access cannot silently alias a
    newer allocation.
    """

    kind = "use-after-free"
    sticky = True


class QuarantineDoubleFreeError(DoubleFreeError, SanitizerError):
    """A free of an address still sitting in the free-quarantine.

    Subclasses :class:`DoubleFreeError` so existing error mapping (and
    callers catching the legacy type) keep working, but adds the original
    allocation site for attribution.
    """

    kind = "double-free"
    sticky = False

    def __init__(self, message: str, *, addr: int = 0, owner: str = "", site: str = "") -> None:
        SanitizerError.__init__(self, message, addr=addr, owner=owner, site=site)


class RedzoneCorruptionError(SanitizerError):
    """A canary byte in a guard band was overwritten (wild device write).

    Detected on free, on checkpoint, or by the periodic sweep -- the
    corrupting write itself bypassed the checked access paths (a buggy
    kernel scribbling out of bounds), so detection is retrospective but
    attributed to the allocation whose guard band was hit.
    """

    kind = "redzone-corruption"
    sticky = True


class KernelHangError(GpuError):
    """A stream's kernel exceeded its watchdog budget (or is hung).

    Maps to ``cudaErrorLaunchTimeout`` -- the code the driver's watchdog
    returns when a kernel runs past its execution time limit.
    """

    def __init__(self, message: str, *, stream: int = 0) -> None:
        super().__init__(message)
        self.stream = stream
