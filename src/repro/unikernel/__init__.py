"""Execution-platform models: unikernels, Linux VM, native Linux.

The paper cannot be reproduced on real unikernels from Python, so the
platforms are behavioural models of the mechanisms the paper measures and
explains: guest network-stack costs (:mod:`repro.unikernel.netstack`),
virtio feature negotiation (:mod:`repro.unikernel.virtio`), language/runtime
profiles (:mod:`repro.unikernel.language`), and the composed per-message
RPC path timing (:mod:`repro.unikernel.platform`).  Calibrated presets for
the paper's five configurations live in :mod:`repro.unikernel.presets`.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "platform": ("Platform", "PlatformMeter", "RpcPathModel"),
        "netstack": ("NetstackModel", "CSUM_RATE_BPS"),
        "virtio": ("VirtioFeatures", "VirtioCosts"),
        "language": ("LanguageProfile", "C_PROFILE", "RUST_PROFILE", "PROFILES"),
        "presets": (
            "EVAL_LINK", "NATIVE_STACK", "LINUX_VM_STACK", "UNIKRAFT_STACK", "HERMIT_STACK",
            "native_c", "native_rust", "linux_vm", "unikraft", "rustyhermit", "table1_platforms",
            "path_for", "CRICKET_SERVER_DISPATCH_S",
        ),
    },
)
