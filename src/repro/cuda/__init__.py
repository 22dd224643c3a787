"""CUDA API surface executed by the Cricket server.

This subpackage plays the role of the proprietary CUDA libraries on the
paper's GPU node: the runtime API (:mod:`repro.cuda.runtime`), the driver
module/launch API (:mod:`repro.cuda.driver`, the part this paper added to
Cricket), and subsets of cuBLAS (:mod:`repro.cuda.cublas`) and cuSOLVER
(:mod:`repro.cuda.cusolver`) sufficient for the evaluation's proxy
applications.

All calls keep C semantics -- status codes, out-parameters, sticky device
state -- because the Cricket RPC layer forwards exactly those.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "runtime": ("CudaRuntime", "DeviceProperties"),
        "driver": ("CudaDriver", "LoadedModule"),
        "cublas": ("CublasContext",),
        "cufft": ("CufftContext",),
        "cusolver": ("CusolverContext",),
        "errors": ("CudaError", "code_for_exception"),
    },
    submodules=("constants",),
)
