"""Imperative XDR packing (RFC 4506 section 4).

The encoder appends to an internal :class:`bytearray`; call
:meth:`XdrEncoder.getvalue` to obtain a ``bytes`` copy of what was packed,
or read :attr:`XdrEncoder.buffer` to be handed the record itself -- what
the RPC layers do.  A variable-length opaque of :data:`BY_REFERENCE_BYTES`
or more is not copied at all: the encoder keeps a reference to it, and the
record it yields is then a :class:`GatherRecord`, the packed bytes around
that buffer and the buffer itself, which the socket gathers from where it
lives.  All multi-byte quantities are big-endian and every item is padded
to a multiple of four bytes, as the standard mandates.
"""

from __future__ import annotations

import struct
from typing import Callable, Union

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

#: A variable-length opaque this long or longer is referenced by the record,
#: not copied into it.  Below it the copy is cheaper than what a reference
#: costs: a :class:`GatherRecord`, its pieces cut out, and more buffers for
#: every layer that frames, checksums or sends the record -- about 2.5 us.
#: The crossover, measured as encode + frame + ``sendmsg`` of one
#: ``rpc_cudaMemcpyH2D`` call to a thread draining a socketpair (10th
#: percentile of 100-400 sends, best of three rounds, twice; Python 3.11 on
#: a shared 2-vCPU x86-64 VM): copying wins by 2.0-2.3 us at 32 KiB,
#: 1.2 us at 64 KiB and 0.3-0.4 us at 96 KiB; referencing wins by
#: 0.2-3.2 us at 128 KiB, 4 us at 256 KiB and 50 us at 1 MiB.
BY_REFERENCE_BYTES = 128 * 1024


class GatherRecord:
    """An outgoing record as the buffers it is made of, in order.

    What an :class:`XdrEncoder` yields once it has referenced an opaque: the
    packed bytes around each referenced buffer, and each buffer where its
    bytes belong.  ``len()`` is the length of the record and ``bytes()``
    copies it out.  Every layer that sends a record takes this form as well
    as a plain buffer and puts the same bytes on the wire; the reference and
    diagnostic paths :func:`flatten` it.

    ``pins`` are the ``unpin`` methods of referenced buffers that hold
    something until the record has gone -- a pinned span of device memory
    (:class:`repro.gpu.memory.PinnedSpan`).  :meth:`release` calls them,
    once the record is sent or flattened; a record dropped unsent lets go
    when its buffers are freed.
    """

    __slots__ = ("segments", "pins", "_size")

    def __init__(
        self,
        segments: tuple[Buffer, ...],
        pins: tuple[Callable[[], None], ...] = (),
        size: int | None = None,
    ) -> None:
        self.segments = segments
        self.pins = pins
        #: the total of the segments' lengths (given by callers who know it)
        self._size = sum(map(len, segments)) if size is None else size

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return b"".join(self.segments)

    def release(self) -> None:
        """Let go of every pin (once the record is sent): from then on the
        device memory a segment views may change under it."""
        for unpin in self.pins:
            unpin()


class LandedRecord:
    """An incoming record as the three buffers it was received into.

    What a :class:`~repro.oncrpc.record.RecordReader` hands up when its
    landing provider placed a bulk opaque's bytes straight into a buffer
    of the consumer's (``landing``): the bytes before it (``head``), the
    opaque's bytes, and the bytes after it (``tail`` -- XDR padding, later
    fields, a CRC trailer).  Its flattening is byte for byte the record the
    reader would have staged.  The RPC header is parsed from ``head``; the
    arguments or results of a landed message are a landed record too, its
    head cut to what follows the RPC header, and the signature decodes the
    opaque as a read-only view of ``landing`` (see
    :class:`~repro.rpcl.compiler.OpaqueSplit`).
    """

    __slots__ = ("head", "landing", "tail")

    def __init__(self, head: Buffer, landing: Buffer, tail: Buffer) -> None:
        self.head = head
        self.landing = landing
        self.tail = tail

    @property
    def segments(self) -> tuple[Buffer, Buffer, Buffer]:
        return self.head, self.landing, self.tail

    def __len__(self) -> int:
        return len(self.head) + len(self.landing) + len(self.tail)

    def __bytes__(self) -> bytes:
        return b"".join(self.segments)

    def __getitem__(self, key: slice) -> Buffer:
        """A slice of the record: of ``head`` if it lies there, else of a copy."""
        if type(key) is slice and key.step is None and 0 <= (key.start or 0):
            stop = key.stop
            if stop is not None and 0 <= stop <= len(self.head):
                return memoryview(self.head)[key]
        return flatten(self)[key]


def flatten(record: Buffer | GatherRecord | LandedRecord) -> Buffer:
    """``record`` as one contiguous buffer: a gather record is copied out into
    a new ``bytearray`` and released, a landed record copied out, a plain
    buffer returned as it is."""
    kind = type(record)
    if kind is GatherRecord:
        flat = bytearray().join(record.segments)
        record.release()
        return flat
    if kind is LandedRecord:
        return bytearray().join(record.segments)
    return record


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

    __slots__ = ("_buf", "_refs")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: opaques referenced instead of copied, in order: (offset in
        #: ``_buf`` where the bytes belong, the bytes, their ``unpin``)
        self._refs: list[tuple[int, Buffer, Callable[[], None] | None]] | None = None

    def getvalue(self) -> bytes:
        """Return everything packed so far as immutable bytes."""
        return bytes(self.buffer)

    @property
    def buffer(self) -> bytearray | GatherRecord:
        """Everything packed so far, as the record itself.

        With nothing referenced that is the encoder's own ``bytearray``, not
        a copy; otherwise a :class:`GatherRecord` of its pieces and the
        referenced buffers.  This is how a finished record leaves the
        encoder: whoever takes it drops the encoder and owns the bytes alone
        (see "Bulk data path and buffer ownership" in
        ``docs/ARCHITECTURE.md``).
        """
        refs = self._refs
        if refs is None:
            return self._buf
        buf, segments, pins, start = self._buf, [], [], 0
        size = len(buf)
        for offset, data, unpin in refs:
            segments.append(buf[start:offset])
            segments.append(data)
            size += len(data)
            if unpin is not None:
                pins.append(unpin)
            start = offset
        segments.append(buf[start:])
        return GatherRecord(tuple(segments), tuple(pins), size)

    def __len__(self) -> int:
        size = len(self._buf)
        if self._refs is not None:
            size += sum(len(data) for _, data, _ in self._refs)
        return size

    def reset(self) -> None:
        """Discard all packed data, making the encoder reusable."""
        self._buf.clear()
        self._refs = None

    def _rollback(self, size: int) -> None:
        """Drop what was packed after the first ``size`` bytes of ``_buf``
        (a compiled plan that cannot finish, before the interpreter redoes it)."""
        del self._buf[size:]
        if self._refs is not None:
            self._refs = [ref for ref in self._refs if ref[0] <= size] or None

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
        ``memoryview``, a numpy array).  Under :data:`BY_REFERENCE_BYTES` it
        is copied into the encoder's buffer; from there on it is referenced
        -- the length word and the padding still go in -- and must stay
        unmodified until the record has been sent.
        """
        data = _byte_view(value)
        size = len(data)
        if max_size is not None and size > max_size:
            raise XdrEncodeError(
                f"opaque longer than declared maximum ({size} > {max_size})"
            )
        self.pack_uint(size)
        if size < BY_REFERENCE_BYTES:
            self._buf += data
        else:
            if self._refs is None:
                self._refs = []
            self._refs.append((len(self._buf), data, getattr(value, "unpin", None)))
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
