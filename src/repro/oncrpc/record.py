"""Record marking with fragmentation (RFC 5531 section 11).

Stream transports carry RPC messages as *records* split into *fragments*.
Each fragment is prefixed by a 4-byte header whose top bit marks the last
fragment of the record and whose low 31 bits carry the fragment length.

Supporting multi-fragment records is a headline requirement of the paper:
the pre-existing Rust ``onc_rpc`` crate lacked it, which capped RPC argument
sizes and made large GPU memory transfers impossible.  RPC-Lib (and this
implementation) handles records of arbitrary size by splitting them into
bounded fragments on send and reassembling on receive.

Neither direction stages the record a second time.  Sending,
:func:`gather_fragments` lays the fragment headers *between slices of the
record buffers themselves* -- one buffer, or each segment of a
:class:`~repro.xdr.encoder.GatherRecord` -- and :func:`sendmsg_all` hands
that list to the socket's scatter-gather ``sendmsg``.  Receiving,
:class:`RecordReader` has the stream fill one ``bytearray`` per record in
place (``recv_into``), growing it a fragment at a time.
:func:`encode_record` -- which does build the framed copy, of the flattened
record -- is the reference implementation the differential tests compare
the wire bytes against; so is :func:`read_record_reference` for the reader.
"""

from __future__ import annotations

import os
import socket
import zlib
from typing import Callable, Iterator

from repro.oncrpc.errors import RpcIntegrityError, RpcProtocolError, RpcTransportError
from repro.xdr.encoder import Buffer, GatherRecord, flatten

LAST_FRAGMENT = 0x80000000
MAX_FRAGMENT_PAYLOAD = 0x7FFFFFFF

#: size of the CRC32 integrity trailer appended by :func:`append_crc`
CRC_TRAILER_BYTES = 4

#: Fragment payload bound used by default.  Matches libtirpc's historical
#: write buffering; small enough to exercise reassembly in realistic runs.
DEFAULT_FRAGMENT_SIZE = 1 << 20

#: Largest single *declared* fragment a :class:`RecordReader` accepts by
#: default.  Every sender in this codebase fragments at
#: :data:`DEFAULT_FRAGMENT_SIZE` (1 MiB), so 64 MiB is generous headroom for
#: interop while keeping a forged header from asking us to buffer ~2 GiB in
#: one fragment.
DEFAULT_MAX_FRAGMENT = 64 * 1024 * 1024

#: What :class:`RecordReader` extends a record with to make room for a
#: fragment.  A ``bytearray`` only grows by appending; appending slices of
#: one shared block costs a ``memcpy`` from cache, where ``bytes(length)``
#: would allocate, clear and free a fragment-sized temporary per fragment.
_ZEROS = memoryview(bytes(DEFAULT_FRAGMENT_SIZE))


def _iov_max() -> int:
    try:
        limit = os.sysconf("SC_IOV_MAX")
    except (AttributeError, OSError, ValueError):  # not a POSIX host
        limit = -1
    return min(limit, 1024) if limit > 0 else 16  # 16: the floor POSIX guarantees


#: buffers handed to one ``sendmsg`` call (the kernel refuses more)
IOV_MAX = _iov_max()


def _check_fragment_size(fragment_size: int) -> None:
    if not 0 < fragment_size <= MAX_FRAGMENT_PAYLOAD:
        raise ValueError(f"fragment size {fragment_size} out of range")


def iter_fragments(
    record: Buffer, fragment_size: int = DEFAULT_FRAGMENT_SIZE
) -> Iterator[bytes]:
    """Yield wire-ready fragments (header + payload) for ``record``.

    A zero-length record is legal and yields a single empty last-fragment.
    """
    _check_fragment_size(fragment_size)
    view = memoryview(record)
    total = len(view)
    offset = 0
    while True:
        chunk = view[offset : offset + fragment_size]
        offset += len(chunk)
        last = offset >= total
        header = (len(chunk) | (LAST_FRAGMENT if last else 0)).to_bytes(4, "big")
        yield header + chunk
        if last:
            return


def encode_record(
    record: Buffer | GatherRecord, fragment_size: int = DEFAULT_FRAGMENT_SIZE
) -> bytes:
    """Return ``record`` framed as one or more record-marking fragments.

    The reference framing: it copies the record (flattened, if it is a
    gather record) into a second, framed buffer, which the transports no
    longer do (:func:`gather_fragments`).
    """
    return b"".join(iter_fragments(flatten(record), fragment_size))


def gather_fragments(
    record: Buffer | GatherRecord, fragment_size: int = DEFAULT_FRAGMENT_SIZE
) -> list[Buffer]:
    """Frame ``record`` as a gather list: headers and views of ``record``.

    Concatenated, the list is byte for byte :func:`encode_record`; nothing
    of the record is copied to build it.  A gather record is cut at the
    offsets its flattening would be cut at, a fragment taking a view of
    each segment it spans.  The views pin what they view (a ``bytearray``
    cannot be resized) until the list is dropped.
    """
    _check_fragment_size(fragment_size)
    if type(record) is GatherRecord:
        return _gather_segments(record, fragment_size)
    view = memoryview(record)
    total = len(view)
    buffers: list[Buffer] = []
    offset = 0
    while True:
        chunk = view[offset : offset + fragment_size]
        offset += len(chunk)
        last = offset >= total
        buffers.append((len(chunk) | (LAST_FRAGMENT if last else 0)).to_bytes(4, "big"))
        if chunk:  # only a zero-length record has an empty fragment
            buffers.append(chunk)
        if last:
            return buffers


def _gather_segments(record: GatherRecord, fragment_size: int) -> list[Buffer]:
    """:func:`gather_fragments` of a gather record."""
    segments = iter(record.segments)
    total = len(record)
    buffers: list[Buffer] = []
    view, pos, offset = memoryview(b""), 0, 0  # the segment being cut, and where
    while True:
        size = min(fragment_size, total - offset)
        offset += size
        last = offset >= total
        buffers.append((size | (LAST_FRAGMENT if last else 0)).to_bytes(4, "big"))
        while size:
            if pos == len(view):
                view, pos = memoryview(next(segments)), 0
                continue
            take = min(size, len(view) - pos)
            buffers.append(view[pos : pos + take])
            pos += take
            size -= take
        if last:
            return buffers


def sendmsg_all(sock: socket.socket, buffers: list[Buffer]) -> int:
    """``sendall`` for a gather list; returns the bytes put on the wire.

    ``sendmsg`` may stop anywhere -- between buffers or inside one -- when
    the socket buffer fills; sending resumes from that byte.  At most
    :data:`IOV_MAX` buffers go into one call.  Socket errors (timeouts
    included) propagate to the caller, which maps them.
    """
    total = 0
    index = 0
    while index < len(buffers):
        sent = sock.sendmsg(buffers[index : index + IOV_MAX])
        total += sent
        while sent:
            size = len(buffers[index])
            if sent < size:
                buffers[index] = memoryview(buffers[index])[sent:]
                break
            sent -= size
            index += 1
    return total


def append_crc(record: Buffer | GatherRecord) -> Buffer | GatherRecord:
    """Append a big-endian CRC32 trailer covering ``record``.

    The trailer travels *inside* the record payload (before fragmentation),
    so it covers the reassembled bytes end to end -- any corruption in any
    fragment, including in the fragment headers' reassembly, changes the
    checksum.  Record marking itself (RFC 5531) has no integrity field;
    this is the paper-system hardening for multi-fragment bulk transfers.

    A ``bytearray`` -- the outgoing record its sender has just encoded and
    alone owns -- is extended **in place** and returned.  Anything else
    (immutable ``bytes``; a ``memoryview``, which is how to pass a buffer
    that others still hold) is left untouched and a new ``bytes`` returned.
    So is a ``bytearray`` with live views: it cannot be resized, and the
    views are exactly the readers that must not see it change.  A gather
    record is checksummed segment by segment and returned as a new gather
    record, the trailer its last segment and its pins the same.
    """
    if type(record) is GatherRecord:
        crc = 0
        for segment in record.segments:
            crc = zlib.crc32(segment, crc)
        trailer = (crc & 0xFFFFFFFF).to_bytes(CRC_TRAILER_BYTES, "big")
        return GatherRecord(
            record.segments + (trailer,), record.pins, len(record) + CRC_TRAILER_BYTES
        )
    trailer = (zlib.crc32(record) & 0xFFFFFFFF).to_bytes(CRC_TRAILER_BYTES, "big")
    if isinstance(record, bytearray):
        try:
            record += trailer
            return record
        except BufferError:
            pass
    return b"".join((record, trailer))


def verify_crc(record: Buffer | GatherRecord) -> memoryview:
    """Verify and strip a trailer added by :func:`append_crc`.

    Returns the original payload as a read-only view of ``record`` (no
    copy; a gather record is flattened first); raises
    :class:`~repro.oncrpc.errors.RpcIntegrityError` (retryable) when the
    trailer is missing or does not match.
    """
    record = flatten(record)
    if len(record) < CRC_TRAILER_BYTES:
        raise RpcIntegrityError(
            f"record too short for CRC32 trailer ({len(record)} bytes)"
        )
    view = memoryview(record).toreadonly()
    payload = view[:-CRC_TRAILER_BYTES]
    expected = int.from_bytes(view[-CRC_TRAILER_BYTES:], "big")
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != expected:
        raise RpcIntegrityError(
            f"CRC32 mismatch: computed {actual:#010x}, trailer {expected:#010x}"
        )
    return payload


class RecordReader:
    """Incrementally reassembles records from a byte stream.

    Each record is reassembled in **one** ``bytearray``, grown by one
    fragment at a time and filled in place by the stream; it is handed up
    as it is and never touched again, so views of it stay valid for as
    long as anybody holds one.

    Parameters
    ----------
    read:
        Callable ``read(n) -> bytes`` returning *up to* ``n`` bytes, empty
        on end-of-stream (socket ``recv`` semantics).  Each chunk is copied
        into the record; pass ``recv_into`` instead where the stream can
        fill a buffer itself.
    recv_into:
        Callable ``recv_into(view) -> count`` filling a writable
        ``memoryview`` with *up to* ``len(view)`` bytes, 0 on end-of-stream
        (``socket.recv_into`` semantics).  Exactly one of ``read`` and
        ``recv_into`` is given.
    max_record_size:
        Upper bound on a reassembled record; protects the server from
        memory-exhaustion by a misbehaving peer.
    max_fragment_size:
        Upper bound on a single *declared* fragment length.  All conforming
        senders here use 1 MiB fragments; a header declaring more than this
        is treated as hostile and rejected before any payload is buffered.
        The record grows by one declared fragment at a time, so this is
        also the most a forged header can make the reader allocate.
    """

    def __init__(
        self,
        read: Callable[[int], bytes] | None = None,
        *,
        recv_into: Callable[[memoryview], int] | None = None,
        max_record_size: int = 1 << 31,
        max_fragment_size: int = DEFAULT_MAX_FRAGMENT,
    ) -> None:
        if (read is None) == (recv_into is None):
            raise TypeError("RecordReader takes exactly one of read and recv_into")
        self._read = read
        self._recv_into = recv_into if recv_into is not None else self._read_into
        self._max_record_size = max_record_size
        self._max_fragment_size = max_fragment_size
        self._header = memoryview(bytearray(4))
        #: bytes the last record returned took on the wire: its payload
        #: plus 4 per fragment *as the peer fragmented it*
        self.wire_bytes = 0

    def _read_into(self, view: memoryview) -> int:
        """``recv_into`` on top of a ``read(n) -> bytes`` stream (one more copy)."""
        chunk = self._read(len(view))
        view[: len(chunk)] = chunk
        return len(chunk)

    def read_record(self) -> bytearray | None:
        """Read and reassemble the next record.

        Returns ``None`` on a clean end-of-stream *between* records; raises
        :class:`~repro.oncrpc.errors.RpcTransportError` if the stream ends
        inside a record (the partial record is dropped, never handed up).
        """
        recv_into = self._recv_into
        header = self._header
        record = bytearray()
        wire_bytes = 0
        while True:
            got = recv_into(header)
            if not got and not wire_bytes:
                return None  # clean EOF between records
            while got < 4:
                more = recv_into(header[got:])
                if not more:
                    raise RpcTransportError("connection closed mid-fragment-header")
                got += more
            word = int.from_bytes(header, "big")
            last = word & LAST_FRAGMENT
            length = word & MAX_FRAGMENT_PAYLOAD
            if length > self._max_fragment_size:
                raise RpcProtocolError(
                    f"fragment declares {length} bytes, above the "
                    f"{self._max_fragment_size}-byte limit"
                )
            start = len(record)
            if start + length > self._max_record_size:
                raise RpcProtocolError(
                    "record exceeds maximum size "
                    f"({start + length} > {self._max_record_size})"
                )
            wire_bytes += 4 + length
            if length:
                for room in range(length, 0, -len(_ZEROS)):
                    record += _ZEROS[:room]  # room for this fragment, no further
                # The view pins the record only while the stream fills it:
                # a bytearray with a live view cannot grow again.
                with memoryview(record) as view:
                    filled, end = start, start + length
                    while filled < end:
                        count = recv_into(view[filled:])
                        if not count:
                            raise RpcTransportError(
                                "connection closed mid-record "
                                f"({filled - start}/{length} bytes)"
                            )
                        filled += count
            elif not last:
                # A zero-length non-terminal fragment makes no progress;
                # treat it as a protocol violation to avoid spinning forever.
                raise RpcProtocolError("zero-length non-terminal fragment")
            if last:
                self.wire_bytes = wire_bytes
                return record


def read_record_reference(
    read: Callable[[int], bytes],
    *,
    max_record_size: int = 1 << 31,
    max_fragment_size: int = DEFAULT_MAX_FRAGMENT,
) -> bytes | None:
    """The join-based reassembly :class:`RecordReader` replaced.

    Kept as the slow reference the differential tests hold the reader to:
    same records, same ``None`` on a clean end-of-stream, same typed error
    for every malformed or truncated stream.
    """

    def read_exact(n: int) -> bytes:
        parts: list[bytes] = []
        remaining = n
        while remaining:
            chunk = read(remaining)
            if not chunk:
                raise RpcTransportError(
                    f"connection closed mid-record ({n - remaining}/{n} bytes)"
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return b"".join(parts)

    fragments: list[bytes] = []
    size = 0
    first = True
    while True:
        header = read(4)
        if first and not header:
            return None
        first = False
        while len(header) < 4:
            more = read(4 - len(header))
            if not more:
                raise RpcTransportError("connection closed mid-fragment-header")
            header += more
        word = int.from_bytes(header, "big")
        last = bool(word & LAST_FRAGMENT)
        length = word & MAX_FRAGMENT_PAYLOAD
        if length > max_fragment_size:
            raise RpcProtocolError(
                f"fragment declares {length} bytes, above the "
                f"{max_fragment_size}-byte limit"
            )
        size += length
        if size > max_record_size:
            raise RpcProtocolError(
                f"record exceeds maximum size ({size} > {max_record_size})"
            )
        if length:
            fragments.append(read_exact(length))
        elif not last:
            raise RpcProtocolError("zero-length non-terminal fragment")
        if last:
            return b"".join(fragments)
