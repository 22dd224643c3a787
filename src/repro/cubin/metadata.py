"""Kernel and global-variable metadata carried inside cubins.

Mirrors what Cricket extracts from real cubins' ``.nv.info`` sections:
kernel names, parameter layouts (kind/size/offset) and module-level global
variables.  The metadata is XDR-encoded -- dogfooding our own serializer --
into the ``.nv.info`` section of the container.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.cubin.errors import CorruptImageError
from repro.gpu.kernels import PARAM_KINDS
from repro.xdr import (
    StringType,
    StructField,
    StructType,
    UINT,
    VarArray,
    VarOpaque,
)
from repro.xdr.errors import XdrError

_KIND_BY_INDEX = tuple(PARAM_KINDS)
_INDEX_BY_KIND = {kind: i for i, kind in enumerate(_KIND_BY_INDEX)}


@dataclass(frozen=True)
class ParamInfo:
    """One kernel parameter: kind, byte size, byte offset in the param block."""

    kind: str
    size: int
    offset: int


#: ``struct`` code of each parameter kind; the CUDA ABI lays parameters out
#: little-endian, each at its own offset
PARAM_CODES = {"ptr": "Q", "u64": "Q", "u32": "I", "i32": "i", "f32": "f", "f64": "d"}


@dataclass(frozen=True)
class KernelMeta:
    """Metadata of one kernel entry point.

    ``param_struct`` (not a field) is the parameter block compiled to one
    ``struct.Struct``, or ``None`` (see :func:`_compile_params`).
    """

    name: str
    params: tuple[ParamInfo, ...] = ()
    shared_mem: int = 0

    def __post_init__(self) -> None:
        # Compiled once, here, not on a launch: see param_struct.
        object.__setattr__(self, "param_struct", _compile_params(self))

    @classmethod
    def from_kinds(cls, name: str, kinds: tuple[str, ...], shared_mem: int = 0) -> "KernelMeta":
        """Build metadata from a parameter-kind tuple, computing offsets."""
        params = []
        offset = 0
        for kind in kinds:
            if kind not in _INDEX_BY_KIND:
                raise ValueError(f"unknown parameter kind {kind!r}")
            size = 8 if kind in ("ptr", "u64", "f64") else 4
            # natural alignment, as the CUDA ABI requires
            offset = (offset + size - 1) // size * size
            params.append(ParamInfo(kind, size, offset))
            offset += size
        return cls(name, tuple(params), shared_mem)

    @property
    def param_kinds(self) -> tuple[str, ...]:
        """Parameter kinds in declaration order."""
        return tuple(p.kind for p in self.params)

    @property
    def param_block_size(self) -> int:
        """Total size of the packed parameter block, bytes."""
        if not self.params:
            return 0
        last = self.params[-1]
        return last.offset + last.size


def _compile_params(meta: KernelMeta) -> struct.Struct | None:
    """The kernel's whole parameter block as one ``struct.Struct``, or ``None``.

    Each parameter is packed at its offset; the gaps between parameters
    (alignment padding) and after the last, up to ``param_block_size``, are
    pad bytes.  ``None`` when the layout is not one run of parameters in
    offset order -- overlapping, out of order, or an unknown kind -- which
    only the parameter-by-parameter walk
    (:func:`repro.cricket.params.pack_params_reference`) lays out.
    """
    fmt = ["<"]
    cursor = 0
    for info in meta.params:
        code = PARAM_CODES.get(info.kind)
        if code is None or info.offset < cursor:
            return None
        if info.offset > cursor:
            fmt.append(f"{info.offset - cursor}x")
        fmt.append(code)
        cursor = info.offset + struct.calcsize("<" + code)
    if meta.param_block_size < cursor:
        return None
    if meta.param_block_size > cursor:
        fmt.append(f"{meta.param_block_size - cursor}x")
    return struct.Struct("".join(fmt))


@dataclass(frozen=True)
class GlobalMeta:
    """Metadata of one module-level global variable."""

    name: str
    size: int
    init: bytes = b""

    def __post_init__(self) -> None:
        if self.init and len(self.init) != self.size:
            raise ValueError(
                f"global {self.name!r}: init data is {len(self.init)} bytes "
                f"but size is {self.size}"
            )


@dataclass
class CubinMetadata:
    """All metadata of one cubin image."""

    kernels: list[KernelMeta] = field(default_factory=list)
    globals: list[GlobalMeta] = field(default_factory=list)

    def kernel(self, name: str) -> KernelMeta:
        """Look up a kernel's metadata by name."""
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"cubin defines no kernel {name!r}")

    def global_(self, name: str) -> GlobalMeta:
        """Look up a global's metadata by name."""
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(f"cubin defines no global {name!r}")


_PARAM_T = StructType(
    "nv_param",
    [
        StructField("kind", UINT),
        StructField("size", UINT),
        StructField("offset", UINT),
    ],
)

_KERNEL_T = StructType(
    "nv_kernel",
    [
        StructField("name", StringType(1024)),
        StructField("params", VarArray(_PARAM_T)),
        StructField("shared_mem", UINT),
    ],
)

_GLOBAL_T = StructType(
    "nv_global",
    [
        StructField("name", StringType(1024)),
        StructField("size", UINT),
        StructField("init", VarOpaque()),
    ],
)

_METADATA_T = StructType(
    "nv_info",
    [
        StructField("kernels", VarArray(_KERNEL_T)),
        StructField("globals", VarArray(_GLOBAL_T)),
    ],
)


def encode_metadata(meta: CubinMetadata) -> bytes:
    """Serialize metadata into ``.nv.info`` section bytes."""
    value = {
        "kernels": [
            {
                "name": k.name,
                "params": [
                    {"kind": _INDEX_BY_KIND[p.kind], "size": p.size, "offset": p.offset}
                    for p in k.params
                ],
                "shared_mem": k.shared_mem,
            }
            for k in meta.kernels
        ],
        "globals": [
            {"name": g.name, "size": g.size, "init": g.init} for g in meta.globals
        ],
    }
    return _METADATA_T.to_bytes(value)


def decode_metadata(blob: bytes) -> CubinMetadata:
    """Parse ``.nv.info`` section bytes."""
    try:
        value = _METADATA_T.from_bytes(blob)
    except XdrError as exc:
        raise CorruptImageError(f"corrupt .nv.info section: {exc}") from exc
    kernels = []
    for k in value["kernels"]:
        params = []
        for p in k["params"]:
            if p["kind"] >= len(_KIND_BY_INDEX):
                raise CorruptImageError(f"unknown param kind index {p['kind']}")
            params.append(ParamInfo(_KIND_BY_INDEX[p["kind"]], p["size"], p["offset"]))
        kernels.append(KernelMeta(k["name"], tuple(params), k["shared_mem"]))
    globals_ = [GlobalMeta(g["name"], g["size"], g["init"]) for g in value["globals"]]
    return CubinMetadata(kernels, globals_)
