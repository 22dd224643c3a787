"""Imperative XDR packing (RFC 4506 section 4).

The encoder appends to an internal :class:`bytearray`; call
:meth:`XdrEncoder.getvalue` to obtain a ``bytes`` copy of what was packed,
or read :attr:`XdrEncoder.buffer` to be handed the ``bytearray`` itself -- what
the RPC layers do, so that a bulk payload is copied once on its way into
a record and never again.  All multi-byte quantities are big-endian and
every item is padded to a multiple of four bytes, as the standard mandates.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.xdr.errors import XdrEncodeError

_INT_MIN = -(2**31)
_INT_MAX = 2**31 - 1
_UINT_MAX = 2**32 - 1
_HYPER_MIN = -(2**63)
_HYPER_MAX = 2**63 - 1
_UHYPER_MAX = 2**64 - 1

_PACK_INT = struct.Struct(">i").pack
_PACK_UINT = struct.Struct(">I").pack
_PACK_HYPER = struct.Struct(">q").pack
_PACK_UHYPER = struct.Struct(">Q").pack

_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

#: anything exposing the buffer protocol (``collections.abc.Buffer`` is 3.12+)
Buffer = Union[bytes, bytearray, memoryview]


def flat_view(view: memoryview) -> memoryview:
    """A C-contiguous ``view`` as one dimension of bytes (nothing is copied)."""
    if view.ndim != 1 or view.itemsize != 1:
        # (a shape with a zero in it cannot be cast)
        view = view.cast("B") if view.nbytes else memoryview(b"")
    return view


def _byte_view(value: Buffer) -> bytes | memoryview:
    """``value`` as a flat run of bytes -- copied only if it is strided."""
    if type(value) is bytes:
        return value
    try:
        view = memoryview(value)
    except TypeError as exc:
        raise XdrEncodeError(
            f"opaque data must be a bytes-like object, got {type(value).__name__}"
        ) from exc
    return flat_view(view) if view.c_contiguous else view.tobytes()


class XdrEncoder:
    """Packs Python values into an XDR byte stream.

    The pack methods mirror RFC 4506's primitive types.  Composite types
    (structs, unions, arrays of typed elements) are layered on top by
    :mod:`repro.xdr.types`.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def getvalue(self) -> bytes:
        """Return everything packed so far as immutable bytes."""
        return bytes(self._buf)

    @property
    def buffer(self) -> bytearray:
        """Everything packed so far as the encoder's own ``bytearray``, not a copy.

        This is how a finished record leaves the encoder: whoever takes the
        buffer drops the encoder and owns the bytes alone (see "Bulk data
        path and buffer ownership" in ``docs/ARCHITECTURE.md``).  Packing
        more afterwards grows the same object.
        """
        return self._buf

    def __len__(self) -> int:
        return len(self._buf)

    def reset(self) -> None:
        """Discard all packed data, making the encoder reusable."""
        self._buf.clear()

    # -- integral types ---------------------------------------------------

    # Each integral packer tries its precompiled ``Struct`` on a plain
    # ``int`` first: ``struct`` does the range check, and the ``type`` test
    # keeps out the ``bool`` it would accept.  Only the failure branch works
    # out which error the value deserves.

    def _pack_checked(self, value: int, low: int, high: int, size: int, name: str) -> None:
        """The type and range tests; packs an ``int`` subclass (an ``IntEnum``)."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise XdrEncodeError(f"int expected, got {type(value).__name__}")
        if not low <= value <= high:
            raise XdrEncodeError(f"value {value} out of range for XDR {name}")
        self._buf += value.to_bytes(size, "big", signed=low < 0)

    def pack_int(self, value: int) -> None:
        """Pack a 32-bit signed integer."""
        if type(value) is int:
            try:
                self._buf += _PACK_INT(value)
                return
            except struct.error:
                pass
        self._pack_checked(value, _INT_MIN, _INT_MAX, 4, "int")

    def pack_uint(self, value: int) -> None:
        """Pack a 32-bit unsigned integer."""
        if type(value) is int:
            try:
                self._buf += _PACK_UINT(value)
                return
            except struct.error:
                pass
        self._pack_checked(value, 0, _UINT_MAX, 4, "unsigned int")

    def pack_hyper(self, value: int) -> None:
        """Pack a 64-bit signed integer (XDR ``hyper``)."""
        if type(value) is int:
            try:
                self._buf += _PACK_HYPER(value)
                return
            except struct.error:
                pass
        self._pack_checked(value, _HYPER_MIN, _HYPER_MAX, 8, "hyper")

    def pack_uhyper(self, value: int) -> None:
        """Pack a 64-bit unsigned integer (XDR ``unsigned hyper``)."""
        if type(value) is int:
            try:
                self._buf += _PACK_UHYPER(value)
                return
            except struct.error:
                pass
        self._pack_checked(value, 0, _UHYPER_MAX, 8, "unsigned hyper")

    def pack_bool(self, value: bool) -> None:
        """Pack an XDR boolean (encoded as int 0 or 1)."""
        if not isinstance(value, (bool, int)):
            raise XdrEncodeError(f"bool expected, got {type(value).__name__}")
        self._buf += (b"\x00\x00\x00\x01" if value else b"\x00\x00\x00\x00")

    def pack_enum(self, value: int) -> None:
        """Pack an enum value (wire-identical to a signed int)."""
        self.pack_int(int(value))

    # -- floating point ----------------------------------------------------

    def pack_float(self, value: float) -> None:
        """Pack an IEEE 754 single-precision float."""
        try:
            self._buf += struct.pack(">f", value)
        except (struct.error, TypeError) as exc:
            raise XdrEncodeError(f"cannot pack {value!r} as float: {exc}") from exc

    def pack_double(self, value: float) -> None:
        """Pack an IEEE 754 double-precision float."""
        try:
            self._buf += struct.pack(">d", value)
        except (struct.error, TypeError) as exc:
            raise XdrEncodeError(f"cannot pack {value!r} as double: {exc}") from exc

    # -- opaque data and strings -------------------------------------------

    def pack_fixed_opaque(self, value: Buffer, size: int) -> None:
        """Pack exactly ``size`` opaque bytes plus alignment padding."""
        data = _byte_view(value)
        if len(data) != size:
            raise XdrEncodeError(
                f"fixed opaque of size {size} expected, got {len(data)} bytes"
            )
        self._buf += data
        self._buf += _PAD[size % 4]

    def pack_opaque(self, value: Buffer, max_size: int | None = None) -> None:
        """Pack variable-length opaque data: a length word then padded bytes.

        ``value`` is any C-contiguous buffer (``bytes``, ``bytearray``, a
        ``memoryview``, a numpy array); it is copied once, into the
        encoder's buffer.
        """
        data = _byte_view(value)
        size = len(data)
        if max_size is not None and size > max_size:
            raise XdrEncodeError(
                f"opaque longer than declared maximum ({size} > {max_size})"
            )
        self.pack_uint(size)
        self._buf += data
        self._buf += _PAD[size % 4]

    def pack_string(self, value: str, max_size: int | None = None) -> None:
        """Pack a string as UTF-8 encoded variable-length opaque data."""
        if not isinstance(value, str):
            raise XdrEncodeError(f"str expected, got {type(value).__name__}")
        self.pack_opaque(value.encode("utf-8"), max_size)

    # -- structural helpers --------------------------------------------------

    def pack_array_header(self, length: int, max_size: int | None = None) -> None:
        """Pack the element count of a variable-length array."""
        if length < 0:
            raise XdrEncodeError("array length cannot be negative")
        if max_size is not None and length > max_size:
            raise XdrEncodeError(
                f"array longer than declared maximum ({length} > {max_size})"
            )
        self.pack_uint(length)

    def pack_optional_flag(self, present: bool) -> None:
        """Pack the presence flag of an XDR optional (``*``) value."""
        self.pack_bool(present)

    def append_raw(self, data: Buffer) -> None:
        """Append pre-encoded XDR bytes verbatim.

        ``data`` must already be 4-byte aligned; this is used to splice
        separately produced encodings (e.g. RPC body after RPC header).
        """
        if len(data) % 4 != 0:
            raise XdrEncodeError("raw XDR splice must be 4-byte aligned")
        self._buf += data
