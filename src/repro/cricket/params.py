"""Kernel launch-parameter marshalling.

``cuLaunchKernel`` passes parameters as a packed memory block whose layout
is dictated by the kernel's parameter metadata (extracted from the cubin).
The client packs Python values into that block; the Cricket server unpacks
them using the same metadata before launching on the device.  Layout rules
match the CUDA ABI: little-endian, each parameter naturally aligned.

Both directions are one call of the block's compiled ``struct.Struct``
(:attr:`~repro.cubin.metadata.KernelMeta.param_struct`).  The
parameter-by-parameter walk, :func:`pack_params_reference` and
:func:`unpack_params_reference`, is the reference the differential tests
hold them to, and the error reporter: whatever the compiled struct cannot
pack goes to the walk, which packs it or raises the
:class:`~repro.gpu.errors.KernelParamError` it always raised.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.cubin.metadata import PARAM_CODES, KernelMeta
from repro.gpu.errors import KernelParamError

_PACKERS = {kind: struct.Struct("<" + code) for kind, code in PARAM_CODES.items()}


def pack_params(meta: KernelMeta, values: Sequence[Any]) -> bytes:
    """Pack ``values`` into the kernel's parameter block."""
    compiled = meta.param_struct
    if compiled is not None and len(values) == len(meta.params):
        try:
            return compiled.pack(*values)
        except Exception:
            pass
    return pack_params_reference(meta, values)


def unpack_params(meta: KernelMeta, block: bytes) -> tuple[Any, ...]:
    """Unpack a parameter block into Python values."""
    compiled = meta.param_struct
    if compiled is not None and len(block) == compiled.size:
        return compiled.unpack(block)
    return unpack_params_reference(meta, block)


def pack_params_reference(meta: KernelMeta, values: Sequence[Any]) -> bytes:
    """:func:`pack_params` one parameter at a time: the reference."""
    if len(values) != len(meta.params):
        raise KernelParamError(
            f"kernel {meta.name} takes {len(meta.params)} parameter(s), "
            f"got {len(values)}"
        )
    block = bytearray(meta.param_block_size)
    for info, value in zip(meta.params, values):
        packer = _PACKERS[info.kind]
        try:
            packer.pack_into(block, info.offset, value)
        except struct.error as exc:
            raise KernelParamError(
                f"kernel {meta.name} parameter at offset {info.offset} "
                f"({info.kind}): {exc}"
            ) from exc
    return bytes(block)


def unpack_params_reference(meta: KernelMeta, block: bytes) -> tuple[Any, ...]:
    """:func:`unpack_params` one parameter at a time: the reference."""
    if len(block) != meta.param_block_size:
        raise KernelParamError(
            f"kernel {meta.name} expects a {meta.param_block_size}-byte "
            f"parameter block, got {len(block)} bytes"
        )
    values = []
    for info in meta.params:
        packer = _PACKERS[info.kind]
        values.append(packer.unpack_from(block, info.offset)[0])
    return tuple(values)
