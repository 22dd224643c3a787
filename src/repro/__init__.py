"""repro -- reproduction of "GPU Acceleration in Unikernels Using Cricket
GPU Virtualization" (Eiling et al., SC-W 2023).

A pure-Python, laptop-scale rebuild of the paper's entire system stack:

* :mod:`repro.xdr` / :mod:`repro.oncrpc` -- RFC 4506 XDR and RFC 5531
  ONC RPC with fragmented record marking (the RPC-Lib substrate),
* :mod:`repro.rpcl` -- an RPCL compiler generating client stubs and server
  skeletons from interface files (RPC-Lib's proc macros / rpcgen),
* :mod:`repro.gpu` / :mod:`repro.cuda` / :mod:`repro.cubin` -- a simulated
  GPU, the CUDA API surface and the fat-binary/cubin formats with
  compression,
* :mod:`repro.cricket` -- the Cricket server and client virtualization
  layer, memory-transfer methods, checkpoint/restart and GPU scheduling,
* :mod:`repro.unikernel` / :mod:`repro.net` -- behavioural models of
  RustyHermit, Unikraft, a Linux VM and native Linux over a simulated
  100 GbE link with virtual time,
* :mod:`repro.core` -- the public application API (`GpuSession`),
* :mod:`repro.apps` / :mod:`repro.harness` -- the paper's proxy
  applications and the harness regenerating every table and figure.

Quickstart::

    from repro import GpuSession, SessionConfig
    from repro.unikernel import rustyhermit

    with GpuSession(SessionConfig(platform=rustyhermit())) as session:
        print("GPUs visible from the unikernel:", session.client.get_device_count())
"""

from repro._lazy import lazy_namespace

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "core": (
            "GpuSession", "SessionConfig", "DeviceBuffer", "Module", "Function", "LifetimeError",
            "UseAfterFreeError", "DoubleFreeClientError",
        ),
    },
)
__all__.append("__version__")
