"""Core public API: GPU access from (simulated) unikernel applications.

This is the paper's contribution as a library surface: an application binds
a :class:`~repro.core.session.GpuSession` for its platform (RustyHermit,
Unikraft, Linux VM or native) and uses GPUs through RPC-Lib-style safe
wrappers over the Cricket RPC interface.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "session": ("GpuSession",),
        "config": ("SessionConfig",),
        "buffer": ("DeviceBuffer",),
        "module": ("Module", "Function"),
        "errors": ("LifetimeError", "UseAfterFreeError", "DoubleFreeClientError"),
    },
)
