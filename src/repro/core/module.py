"""Client-side module and function handles.

The paper's flow: the application reads a compiled GPU kernel from a cubin
file, ships the bytes to the Cricket server over RPC, and launches entry
points by name.  :class:`Module` performs the client half -- including
parsing the cubin *locally* to learn each kernel's parameter layout, which
the launch marshaller needs to pack the CUDA-ABI parameter block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.buffer import DeviceBuffer
from repro.cubin.loader import load_cubin
from repro.cubin.metadata import KernelMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import GpuSession


class Function:
    """A launchable kernel entry point."""

    __slots__ = ("_session", "handle", "meta")

    def __init__(self, session: "GpuSession", handle: int, meta: KernelMeta) -> None:
        self._session = session
        self.handle = handle
        self.meta = meta

    @property
    def name(self) -> str:
        """The kernel's (mangled) entry-point name."""
        return self.meta.name

    def launch(
        self,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        *args: Any,
        shared_mem: int = 0,
        stream: int = 0,
    ) -> None:
        """Launch with positional arguments (DeviceBuffers accepted)."""
        values = tuple([a.ptr if isinstance(a, DeviceBuffer) else a for a in args])
        self._session.client.launch_kernel(
            self.handle, grid, block, values, shared_mem=shared_mem, stream=stream
        )


class Module:
    """A cubin loaded on the Cricket server."""

    __slots__ = ("_session", "handle", "image", "_functions")

    def __init__(self, session: "GpuSession", handle: int, cubin_bytes: bytes) -> None:
        self._session = session
        self.handle = handle
        # Parse locally for parameter metadata (the client-side mirror of
        # what the server extracts).
        self.image = load_cubin(cubin_bytes)
        self._functions: dict[str, Function] = {}

    def kernel_names(self) -> tuple[str, ...]:
        """Entry points declared by the loaded cubin."""
        return self.image.kernel_names()

    def function(self, name: str) -> Function:
        """Resolve (and cache) a kernel entry point."""
        if name not in self._functions:
            meta = self.image.metadata.kernel(name)
            handle = self._session.client.get_function(self.handle, name, meta)
            self._functions[name] = Function(self._session, handle, meta)
        return self._functions[name]

    def global_(self, name: str) -> tuple[int, int]:
        """Device pointer and size of a module global."""
        return self._session.client.get_global(self.handle, name)

    def unload(self) -> None:
        """Unload from the server (frees module globals)."""
        self._session.client.module_unload(self.handle)
        self._functions.clear()
