"""CUDA driver API executor: modules and explicit kernel launches.

This is the part of the CUDA surface the paper *added* to Cricket: loading
kernels from cubin files via the ``cuModule`` API (instead of relying on
NVCC's hidden fat-binary registration) and launching them with
``cuLaunchKernel``.  The server parses the cubin (decompressing when
needed), extracts kernel metadata and binds each entry point to the
device's kernel registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.cubin.loader import CubinImage, load_cubin, load_fatbin
from repro.cubin.metadata import GlobalMeta, KernelMeta
from repro.cuda import constants as C
from repro.cuda.errors import code_for_exception
from repro.gpu.device import GpuDevice
from repro.gpu.errors import KernelParamError, UnknownKernelError
from repro.gpu.kernels import Kernel
from repro.gpu.stream import DEFAULT_STREAM
from repro.net.simclock import SimClock


@dataclass
class LoadedModule:
    """A cubin image loaded onto a device."""

    handle: int
    image: CubinImage
    #: function handle -> kernel metadata
    functions: dict[int, KernelMeta] = field(default_factory=dict)
    #: global name -> device pointer
    globals: dict[str, tuple[int, int]] = field(default_factory=dict)


class LaunchPlan:
    """What a function handle launches, resolved once at ``cuModuleGetFunction``.

    ``kernel`` is the device code the metadata names, taken from the
    device's registry when the handle is made -- as a real ``CUfunction``
    is bound to the code its module loaded.  (If the registry has no such
    kernel any more, ``kernel`` is the name, and the launch fails as it
    always did.)  ``meta.param_struct`` is the parameter block compiled.
    """

    __slots__ = ("meta", "kernel")

    def __init__(self, meta: KernelMeta, kernel: Kernel | str) -> None:
        self.meta = meta
        self.kernel = kernel


class CudaDriver:
    """Driver-API executor bound to one device."""

    def __init__(self, device: GpuDevice, clock: SimClock | None = None) -> None:
        self.device = device
        self.clock = clock if clock is not None else SimClock()
        self._modules: dict[int, LoadedModule] = {}
        self._functions: dict[int, LaunchPlan] = {}
        self._next_module = count(1)
        self._next_function = count(1)
        self.api_call_count = 0

    def _count(self) -> None:
        self.api_call_count += 1

    # -- module management ----------------------------------------------------

    def cuModuleLoadData(self, image_bytes: bytes) -> tuple[int, int]:
        """Load a cubin, compressed cubin or PTX text; return (err, handle).

        PTX input takes the JIT path: entry points are parsed from the text
        and bound against the device's kernel registry.  Globals declared
        in cubin metadata are materialized in device memory and initialized.
        """
        self._count()
        try:
            from repro.cubin.ptx import looks_like_ptx, parse_ptx

            if looks_like_ptx(image_bytes):
                ptx = parse_ptx(image_bytes)
                image = CubinImage(arch=ptx.target, metadata=ptx.metadata)
            else:
                image = load_cubin(image_bytes)
            return C.CUDA_SUCCESS, self._register_module(image)
        except Exception as exc:
            return _cu_code(exc), 0

    def cuModuleLoadFatBinary(self, fatbin_bytes: bytes) -> tuple[int, int]:
        """Load the best-matching cubin from a fat binary."""
        self._count()
        try:
            image = load_fatbin(fatbin_bytes, arch=self.device.spec.arch)
            return C.CUDA_SUCCESS, self._register_module(image)
        except Exception as exc:
            return _cu_code(exc), 0

    def _register_module(self, image: CubinImage) -> int:
        # Every kernel named by the cubin must resolve to executable code.
        for kernel in image.metadata.kernels:
            registered = self.device.registry.get(kernel.name)  # raises if absent
            if not _kinds_compatible(registered.param_kinds, kernel.param_kinds):
                raise KernelParamError(
                    f"cubin metadata for {kernel.name!r} declares parameters "
                    f"{kernel.param_kinds}, device code expects "
                    f"{registered.param_kinds}"
                )
        handle = next(self._next_module)
        module = LoadedModule(handle, image)
        for g in image.metadata.globals:
            ptr = self.device.alloc(g.size)
            if g.init:
                self.device.allocator.write(ptr, g.init)
            module.globals[g.name] = (ptr, g.size)
        self._modules[handle] = module
        return handle

    def cuModuleUnload(self, handle: int) -> int:
        """Unload a module, freeing its globals and invalidating functions."""
        self._count()
        module = self._modules.pop(int(handle), None)
        if module is None:
            return C.CUDA_ERROR_INVALID_HANDLE
        for ptr, _size in module.globals.values():
            self.device.free(ptr)
        for fhandle in list(module.functions):
            self._functions.pop(fhandle, None)
        return C.CUDA_SUCCESS

    def cuModuleGetFunction(self, handle: int, name: str) -> tuple[int, int]:
        """Return (err, function handle) for a kernel in a module."""
        self._count()
        module = self._modules.get(int(handle))
        if module is None:
            return C.CUDA_ERROR_INVALID_HANDLE, 0
        try:
            meta = module.image.metadata.kernel(name)
        except KeyError:
            return C.CUDA_ERROR_NOT_FOUND, 0
        fhandle = next(self._next_function)
        self._bind(fhandle, module, meta)
        return C.CUDA_SUCCESS, fhandle

    def _bind(self, fhandle: int, module: LoadedModule, meta: KernelMeta) -> None:
        """Make ``fhandle`` launch ``meta``'s kernel of ``module`` (its :class:`LaunchPlan`).

        What ``cuModuleGetFunction`` does with a new handle, and what a
        checkpoint restore does with each restored one.
        """
        module.functions[fhandle] = meta
        registry = self.device.registry
        kernel = registry.get(meta.name) if meta.name in registry else meta.name
        self._functions[fhandle] = LaunchPlan(meta, kernel)

    def cuModuleGetGlobal(self, handle: int, name: str) -> tuple[int, int, int]:
        """Return (err, device pointer, size) of a module global."""
        self._count()
        module = self._modules.get(int(handle))
        if module is None:
            return C.CUDA_ERROR_INVALID_HANDLE, 0, 0
        entry = module.globals.get(name)
        if entry is None:
            return C.CUDA_ERROR_NOT_FOUND, 0, 0
        ptr, size = entry
        return C.CUDA_SUCCESS, ptr, size

    # -- launching ----------------------------------------------------------

    def cuLaunchKernel(
        self,
        fhandle: int,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: tuple,
        shared_mem: int = 0,
        stream: int = DEFAULT_STREAM,
    ) -> int:
        """Launch a function handle (asynchronous)."""
        self.api_call_count += 1
        plan = self._functions.get(int(fhandle))
        if plan is None:
            return C.CUDA_ERROR_INVALID_HANDLE
        try:
            self.device.launch(
                plan.kernel,
                grid,
                block,
                params,
                shared_mem=shared_mem,
                stream=int(stream),
                submit_ns=self.clock.now_ns,
            )
            return C.CUDA_SUCCESS
        except Exception as exc:
            return _cu_code(exc)

    # -- inspection ----------------------------------------------------------

    def module(self, handle: int) -> LoadedModule:
        """Direct access to a loaded module (tests, checkpointing)."""
        return self._modules[int(handle)]

    def loaded_modules(self) -> tuple[LoadedModule, ...]:
        """All currently loaded modules."""
        return tuple(self._modules.values())


#: 64-bit parameter kinds indistinguishable on the wire: PTX declares
#: device pointers as plain .u64, so metadata from PTX and registry "ptr"
#: declarations must interoperate.
_EIGHT_BYTE_INT = frozenset({"ptr", "u64"})


def _kinds_compatible(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    if len(a) != len(b):
        return False
    return all(
        ka == kb or (ka in _EIGHT_BYTE_INT and kb in _EIGHT_BYTE_INT)
        for ka, kb in zip(a, b)
    )


def _cu_code(exc: BaseException) -> int:
    """Map exceptions to CUresult codes (close cousins of cudaError_t)."""
    code = code_for_exception(exc)
    return {
        C.cudaErrorMemoryAllocation: C.CUDA_ERROR_OUT_OF_MEMORY,
        C.cudaErrorInvalidKernelImage: C.CUDA_ERROR_INVALID_IMAGE,
        C.cudaErrorInvalidResourceHandle: C.CUDA_ERROR_INVALID_HANDLE,
        C.cudaErrorInvalidValue: C.CUDA_ERROR_INVALID_VALUE,
    }.get(code, C.CUDA_ERROR_LAUNCH_FAILED)
