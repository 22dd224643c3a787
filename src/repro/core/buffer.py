"""Rust-style lifetime management for GPU allocations.

RPC-Lib "wrap[s] the cudaMalloc and cudaFree APIs, making GPU allocations
work like local heap allocations.  This way, we can guarantee the absence
of use-after-free and double-free errors for the CUDA allocation API."

:class:`DeviceBuffer` is the Python rendition: an owning handle whose
device pointer is only reachable while the buffer is live.  Freeing twice
or touching a freed buffer raises *client-side* -- no RPC reaches the
server, mirroring how the Rust version rejects such programs at compile
time.  Buffers are context managers and free themselves at scope exit
(``Drop`` semantics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import DoubleFreeClientError, UseAfterFreeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import GpuSession


class DeviceBuffer:
    """An owning handle to one device allocation."""

    __slots__ = ("_session", "_ptr", "_size", "_freed")

    def __init__(self, session: "GpuSession", ptr: int, size: int) -> None:
        self._session = session
        self._ptr = ptr
        self._size = size
        self._freed = False

    # -- lifetime ----------------------------------------------------------

    @property
    def ptr(self) -> int:
        """The device pointer; raises after free."""
        self._alive()
        return self._ptr

    @property
    def size(self) -> int:
        """Allocation size in bytes (readable even after free)."""
        return self._size

    @property
    def freed(self) -> bool:
        """True once the buffer has been freed."""
        return self._freed

    def _alive(self) -> None:
        if self._freed:
            raise UseAfterFreeError(
                f"device buffer of {self._size} bytes was already freed"
            )

    def free(self) -> None:
        """Release the allocation (explicit ``drop``)."""
        if self._freed:
            raise DoubleFreeClientError(
                f"device buffer of {self._size} bytes freed twice"
            )
        self._freed = True
        self._session.client.free(self._ptr)

    def __enter__(self) -> "DeviceBuffer":
        self._alive()
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._freed:
            self.free()

    # -- data movement -----------------------------------------------------------

    def write(self, data: bytes | np.ndarray, offset: int = 0) -> None:
        """Upload host bytes (or an array's contents) at ``offset``."""
        self._alive()
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data)  # copies only a strided array
        nbytes = memoryview(data).nbytes
        if offset < 0 or offset + nbytes > self._size:
            raise ValueError(
                f"write of {nbytes} bytes at offset {offset} exceeds "
                f"buffer of {self._size} bytes"
            )
        self._session.client.memcpy_h2d(self._ptr + offset, data)

    def read(self, size: int | None = None, offset: int = 0) -> bytes:
        """Download ``size`` bytes starting at ``offset``."""
        self._alive()
        size = self._size - offset if size is None else size
        if offset < 0 or size < 0 or offset + size > self._size:
            raise ValueError(
                f"read of {size} bytes at offset {offset} exceeds "
                f"buffer of {self._size} bytes"
            )
        return self._session.client.memcpy_d2h(self._ptr + offset, size)

    def read_array(self, dtype, count: int | None = None, offset: int = 0) -> np.ndarray:
        """Download and view as a typed NumPy array."""
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            count = (self._size - offset) // itemsize
        raw = self.read(count * itemsize, offset)
        return np.frombuffer(raw, dtype=dtype)

    def fill(self, byte: int) -> None:
        """cudaMemset the whole buffer."""
        self._alive()
        self._session.client.memset(self._ptr, byte, self._size)

    def copy_to(self, other: "DeviceBuffer", size: int | None = None) -> None:
        """Device-to-device copy into another buffer."""
        self._alive()
        other._alive()
        size = min(self._size, other._size) if size is None else size
        self._session.client.memcpy_d2d(other._ptr, self._ptr, size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self._freed else f"ptr={self._ptr:#x}"
        return f"<DeviceBuffer {self._size}B {state}>"
