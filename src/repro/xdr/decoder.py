"""Imperative XDR unpacking (RFC 4506 section 4).

The decoder walks a bytes-like buffer with an explicit cursor.  Every unpack
method raises :class:`~repro.xdr.errors.XdrDecodeError` on truncation or
malformed padding rather than returning partial data.
"""

from __future__ import annotations

import struct

from repro.xdr.encoder import Buffer, flat_view
from repro.xdr.errors import XdrDecodeError, XdrLimitError

#: Hostile-input ceiling on a single declared string/opaque length when the
#: caller passes no explicit ``max_size``.  1 GiB covers the largest real
#: Cricket payloads (the paper's bandwidth runs memcpy 512 MiB in one call)
#: while still making a forged 4-byte length prefix (up to 4 GiB) harmless.
DEFAULT_MAX_ITEM_BYTES = 1 << 30

#: Hostile-input ceiling on a declared variable-array element count when the
#: caller passes no explicit ``max_size``.
DEFAULT_MAX_ARRAY_ITEMS = 1 << 20

_UNPACK_INT = struct.Struct(">i").unpack_from
_UNPACK_UINT = struct.Struct(">I").unpack_from
_UNPACK_HYPER = struct.Struct(">q").unpack_from
_UNPACK_UHYPER = struct.Struct(">Q").unpack_from


class XdrDecoder:
    """Unpacks Python values from an XDR byte stream.

    Parameters
    ----------
    data:
        The encoded bytes, as any C-contiguous buffer.  The buffer is not
        copied: the decoder walks a read-only ``memoryview`` of it, and
        opaque values are returned as slices of that view.  The caller
        must therefore leave ``data`` unmodified for as long as a decoded
        opaque is in use (``bytes(value)`` detaches one).
    strict_padding:
        When true (the default), non-zero padding bytes are rejected as the
        RFC requires of conforming decoders.
    max_item_bytes:
        Ceiling applied to declared string/opaque lengths when the unpack
        call itself passes no ``max_size``.  Defaults to
        :data:`DEFAULT_MAX_ITEM_BYTES`; pass ``None`` to disable.
    max_array_items:
        Ceiling applied to declared variable-array element counts when the
        unpack call itself passes no ``max_size``.  Defaults to
        :data:`DEFAULT_MAX_ARRAY_ITEMS`; pass ``None`` to disable.
    """

    __slots__ = ("_mv", "_pos", "_end", "_strict", "_max_item_bytes", "_max_array_items")

    def __init__(
        self,
        data: Buffer,
        *,
        strict_padding: bool = True,
        max_item_bytes: int | None = DEFAULT_MAX_ITEM_BYTES,
        max_array_items: int | None = DEFAULT_MAX_ARRAY_ITEMS,
    ) -> None:
        self._mv = flat_view(memoryview(data)).toreadonly()
        self._pos = 0
        self._end = len(self._mv)
        self._strict = strict_padding
        self._max_item_bytes = max_item_bytes
        self._max_array_items = max_array_items

    @property
    def position(self) -> int:
        """Current cursor offset into the buffer."""
        return self._pos

    def remaining(self) -> int:
        """Number of not-yet-consumed bytes."""
        return self._end - self._pos

    def done(self) -> bool:
        """True when the whole buffer has been consumed."""
        return self._pos == self._end

    def assert_done(self) -> None:
        """Raise unless the buffer was fully consumed (trailing-bytes check)."""
        if not self.done():
            raise XdrDecodeError(
                f"{self.remaining()} trailing byte(s) after XDR message"
            )

    def _take(self, n: int) -> memoryview:
        pos = self._pos
        end = pos + n
        if end > self._end:
            raise XdrDecodeError(
                f"buffer exhausted: need {n} byte(s), have {self._end - pos}"
            )
        self._pos = end
        return self._mv[pos:end]

    def _skip_padding(self, data_len: int) -> None:
        pad = (4 - data_len % 4) % 4
        if pad:
            padding = bytes(self._take(pad))
            if self._strict and padding != b"\x00" * pad:
                raise XdrDecodeError(f"non-zero XDR padding {padding!r}")

    # -- integral types ---------------------------------------------------

    # A precompiled ``Struct`` reads the word in place; a short buffer goes
    # to ``_take``, which raises the exhaustion error.

    def unpack_int(self) -> int:
        """Unpack a 32-bit signed integer."""
        pos = self._pos
        if pos + 4 > self._end:
            self._take(4)
        self._pos = pos + 4
        return _UNPACK_INT(self._mv, pos)[0]

    def unpack_uint(self) -> int:
        """Unpack a 32-bit unsigned integer."""
        pos = self._pos
        if pos + 4 > self._end:
            self._take(4)
        self._pos = pos + 4
        return _UNPACK_UINT(self._mv, pos)[0]

    def unpack_hyper(self) -> int:
        """Unpack a 64-bit signed integer."""
        pos = self._pos
        if pos + 8 > self._end:
            self._take(8)
        self._pos = pos + 8
        return _UNPACK_HYPER(self._mv, pos)[0]

    def unpack_uhyper(self) -> int:
        """Unpack a 64-bit unsigned integer."""
        pos = self._pos
        if pos + 8 > self._end:
            self._take(8)
        self._pos = pos + 8
        return _UNPACK_UHYPER(self._mv, pos)[0]

    def unpack_bool(self) -> bool:
        """Unpack an XDR boolean, rejecting values other than 0 and 1."""
        value = self.unpack_int()
        if value == 0:
            return False
        if value == 1:
            return True
        raise XdrDecodeError(f"invalid boolean encoding {value}")

    def unpack_enum(self) -> int:
        """Unpack an enum value (wire-identical to a signed int)."""
        return self.unpack_int()

    # -- floating point ----------------------------------------------------

    def unpack_float(self) -> float:
        """Unpack an IEEE 754 single-precision float."""
        return struct.unpack(">f", self._take(4))[0]

    def unpack_double(self) -> float:
        """Unpack an IEEE 754 double-precision float."""
        return struct.unpack(">d", self._take(8))[0]

    # -- opaque data and strings -------------------------------------------

    def unpack_fixed_opaque(self, size: int) -> memoryview:
        """Unpack exactly ``size`` opaque bytes, consuming padding.

        Returns a read-only view of the decoder's buffer, not a copy.
        """
        data = self._take(size)
        self._skip_padding(size)
        return data

    def unpack_opaque(self, max_size: int | None = None) -> memoryview:
        """Unpack variable-length opaque data (a read-only view, not a copy)."""
        length = self.unpack_uint()
        if max_size is not None and length > max_size:
            raise XdrDecodeError(
                f"opaque longer than declared maximum ({length} > {max_size})"
            )
        if (
            max_size is None
            and self._max_item_bytes is not None
            and length > self._max_item_bytes
        ):
            raise XdrLimitError(
                f"opaque length {length} exceeds decoder limit "
                f"({self._max_item_bytes} bytes)"
            )
        if length > self.remaining():
            raise XdrDecodeError(
                f"opaque length {length} exceeds remaining buffer "
                f"({self.remaining()} bytes)"
            )
        return self.unpack_fixed_opaque(length)

    def unpack_string(self, max_size: int | None = None) -> str:
        """Unpack a UTF-8 string."""
        raw = self.unpack_opaque(max_size)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise XdrDecodeError(f"invalid UTF-8 in XDR string: {exc}") from exc

    # -- structural helpers --------------------------------------------------

    def unpack_array_header(self, max_size: int | None = None) -> int:
        """Unpack and validate the element count of a variable-length array."""
        length = self.unpack_uint()
        if max_size is not None and length > max_size:
            raise XdrDecodeError(
                f"array longer than declared maximum ({length} > {max_size})"
            )
        if (
            max_size is None
            and self._max_array_items is not None
            and length > self._max_array_items
        ):
            raise XdrLimitError(
                f"array count {length} exceeds decoder limit "
                f"({self._max_array_items} items)"
            )
        return length

    def unpack_optional_flag(self) -> bool:
        """Unpack the presence flag of an XDR optional value."""
        return self.unpack_bool()
