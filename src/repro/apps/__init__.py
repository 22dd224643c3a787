"""Proxy applications: the paper's evaluation workloads.

Ports of the CUDA-samples programs the paper uses (§4.1-4.2), driven
through the public :class:`~repro.core.session.GpuSession` API exactly the
way the authors' Rust ports drive RPC-Lib:

* :mod:`repro.apps.matrixmul` -- repeated matrix multiplication (Fig. 5a),
* :mod:`repro.apps.linearsolver` -- dense LU solve via cuSOLVER (Fig. 5b),
* :mod:`repro.apps.histogram` -- 256-bin histogram (Fig. 5c),
* :mod:`repro.apps.bandwidth` -- memory-transfer bandwidth (Fig. 7),
* :mod:`repro.apps.nbody` -- a compute-bound counter-example quantifying
  the conclusion's "long-running kernels" claim (not in the paper's
  evaluation).
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "common": ("AppResult",),
        "bandwidth": ("BandwidthResult",),
    },
    submodules=("matrixmul", "nbody", "linearsolver", "histogram", "bandwidth"),
)
