"""Checkpoint / restart of Cricket server state, and its one format.

Cricket's flagship capability from the authors' previous work: capture the
GPU-side state of running applications so they can be restarted elsewhere
(enabling the "runtime reorganization of tasks" the conclusion describes).
A checkpoint covers everything the server holds on behalf of clients:

* device memory -- every live allocation with contents and exact addresses
  (device pointers are application state: clients hold them),
* loaded modules -- metadata, function handles and global bindings,
* cuBLAS/cuSOLVER handle tables,
* stream/event handle tables with their virtual-time tails,
* the at-most-once reply cache -- so a client that retransmits a
  non-idempotent call *across* a restore (drain -> restart, or failover to
  a standby) is answered from cache instead of re-executed.

Restoring onto a fresh server of the same GPU model reproduces all handles
and pointers, so a client can resume issuing calls as if nothing happened.

This module owns the format.  In process a state is a plain dict
(:func:`capture_server_state`; the device image inside it is plain data
too).  Every state that is saved or shipped whole -- ``rpc_checkpoint``,
a drain checkpoint, a store generation -- is one **CRKT container**: a
header, named sections each behind a CRC32 trailer, and a whole-file CRC
trailer; :func:`decode_container` refuses empty, garbage and torn input
with a typed :class:`~repro.cricket.errors.CheckpointFormatError` naming
the offending byte offset.  :func:`materialize` is the one function that
turns an allocation table plus dirty-page fragments (a delta generation,
a migration's chunks) back into a full state, and :func:`encode_state` /
:func:`decode_state` are the only serializer calls in the package.

The CRCs catch torn writes and flipped bits, not hostile input: a
container with a valid CRC still reaches ``pickle.loads``.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cricket.errors import CheckpointFormatError
from repro.oncrpc.record import CRC_TRAILER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer

#: version of the state dict :func:`capture_server_state` builds
FORMAT_VERSION = 2

MAGIC = b"CRKT"
STORE_VERSION = 1

KIND_FULL = 1
KIND_DELTA = 2

#: container header: magic, store version, kind, reserved, generation,
#: base generation (0 for full checkpoints), section count.
_HEADER = struct.Struct(">4sBBHQQI")
#: per-section prefix: name length; the name and a u64 payload length follow.
_NAME_LEN = struct.Struct(">H")
_PAYLOAD_LEN = struct.Struct(">Q")
_TRAILER_MAGIC = b"CEND"
_TRAILER = struct.Struct(">4sI")


# -- the serializer ------------------------------------------------------------


def encode_state(value) -> bytes:
    """Serialize a state dict, metadata capture or fragment list."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_state(data):
    """Inverse of :func:`encode_state` (runs ``pickle.loads``)."""
    return pickle.loads(data)


# -- container encoding --------------------------------------------------------


@dataclass(frozen=True)
class Container:
    """One decoded checkpoint container."""

    kind: int
    generation: int
    base_generation: int
    #: section payloads: read-only views of the decoded blob (copy what
    #: is kept past the blob)
    sections: dict[str, memoryview] = field(repr=False)
    manifest: dict

    @property
    def is_delta(self) -> bool:
        return self.kind == KIND_DELTA


def encode_container(
    kind: int,
    generation: int,
    base_generation: int,
    sections: list[tuple[str, bytes]],
    *,
    epoch: int = 0,
) -> bytes:
    """Serialize a checkpoint container with per-section and file CRCs.

    ``epoch`` is the leadership epoch the state was captured under (0 for
    unfenced servers).  It rides in the manifest so tooling -- and a
    restore deciding between two stores -- can rank containers by
    leadership recency without decoding the state section.
    """
    manifest = {
        "store_version": STORE_VERSION,
        "kind": kind,
        "generation": generation,
        "base_generation": base_generation,
        "state_version": FORMAT_VERSION,
        "leader_epoch": epoch,
        "sections": {name: len(payload) for name, payload in sections},
    }
    framed = [("manifest", json.dumps(manifest, sort_keys=True).encode())]
    framed.extend(sections)
    # Parts joined once at the end: a whole device image is copied once,
    # not once per append.
    parts = [
        _HEADER.pack(
            MAGIC, STORE_VERSION, kind, 0, generation, base_generation, len(framed)
        )
    ]
    for name, payload in framed:
        name_bytes = name.encode()
        # the trailer :func:`~repro.oncrpc.record.append_crc` appends
        trailer = (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(CRC_TRAILER_BYTES, "big")
        parts += (
            _NAME_LEN.pack(len(name_bytes)),
            name_bytes,
            _PAYLOAD_LEN.pack(len(payload) + CRC_TRAILER_BYTES),
            payload,
            trailer,
        )
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_TRAILER.pack(_TRAILER_MAGIC, crc & 0xFFFFFFFF))
    return b"".join(parts)


def decode_container(blob: bytes) -> Container:
    """Parse and verify a container; raises :class:`CheckpointFormatError`.

    Every structural failure carries the byte offset of the first bad
    structure, so a torn tail (offset near ``len(blob)``) is
    distinguishable from a flipped bit mid-file.  Each byte is checked
    once: the whole-file CRC covers every section, so a section's own
    trailer is not checked again, and its payload is not copied.
    """
    if len(blob) < _HEADER.size:
        raise CheckpointFormatError(
            f"container truncated in header ({len(blob)} bytes)", offset=len(blob)
        )
    magic, version, kind, _reserved, generation, base_generation, n_sections = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad container magic {magic!r}", offset=0)
    if version != STORE_VERSION:
        raise CheckpointFormatError(
            f"unsupported store version {version}", offset=4
        )
    if kind not in (KIND_FULL, KIND_DELTA):
        raise CheckpointFormatError(f"unknown container kind {kind}", offset=5)
    # Whole-file CRC first: cheap, and it localizes torn tails precisely.
    trailer_at = len(blob) - _TRAILER.size
    if trailer_at < _HEADER.size:
        raise CheckpointFormatError("container truncated before trailer", offset=len(blob))
    t_magic, t_crc = _TRAILER.unpack_from(blob, trailer_at)
    if t_magic != _TRAILER_MAGIC:
        raise CheckpointFormatError(
            f"bad trailer magic {t_magic!r} (torn write?)", offset=trailer_at
        )
    view = memoryview(blob).toreadonly()
    if zlib.crc32(view[:trailer_at]) & 0xFFFFFFFF != t_crc:
        raise CheckpointFormatError("file CRC mismatch", offset=trailer_at + 4)
    pos = _HEADER.size
    sections: dict[str, memoryview] = {}
    for _ in range(n_sections):
        if pos + _NAME_LEN.size > trailer_at:
            raise CheckpointFormatError("section table truncated", offset=pos)
        (name_len,) = _NAME_LEN.unpack_from(blob, pos)
        pos += _NAME_LEN.size
        if pos + name_len + _PAYLOAD_LEN.size > trailer_at:
            raise CheckpointFormatError("section name truncated", offset=pos)
        name = bytes(view[pos : pos + name_len]).decode()
        pos += name_len
        (payload_len,) = _PAYLOAD_LEN.unpack_from(blob, pos)
        pos += _PAYLOAD_LEN.size
        if pos + payload_len > trailer_at:
            raise CheckpointFormatError(
                f"section {name!r} payload truncated", offset=pos
            )
        if payload_len < CRC_TRAILER_BYTES:
            raise CheckpointFormatError(f"section {name!r} has no CRC trailer", offset=pos)
        # The file CRC covered every byte of it, its own trailer included.
        sections[name] = view[pos : pos + payload_len - CRC_TRAILER_BYTES]
        pos += payload_len
    if pos != trailer_at:
        raise CheckpointFormatError(
            f"{trailer_at - pos} trailing bytes after last section", offset=pos
        )
    if "manifest" not in sections:
        raise CheckpointFormatError("container has no manifest section", offset=_HEADER.size)
    try:
        manifest = json.loads(bytes(sections["manifest"]))
    except ValueError as exc:
        raise CheckpointFormatError(
            f"manifest is not valid JSON: {exc}", offset=_HEADER.size
        ) from exc
    if manifest.get("generation") != generation:
        raise CheckpointFormatError(
            "manifest/header generation mismatch", offset=_HEADER.size
        )
    return Container(
        kind=kind,
        generation=generation,
        base_generation=base_generation,
        sections=sections,
        manifest=manifest,
    )


def encode_full(state: dict, generation: int = 0) -> bytes:
    """One whole state, framed: header, one ``state`` section, CRC trailer."""
    return encode_container(
        KIND_FULL,
        generation,
        0,
        [("state", encode_state(state))],
        epoch=state.get("leader_epoch", 0),
    )


def decode_full(container: Container) -> dict:
    """The state dict a full container carries."""
    if container.is_delta or "state" not in container.sections:
        raise CheckpointFormatError(
            "container carries no full state section", offset=_HEADER.size
        )
    state = decode_state(container.sections["state"])
    if not isinstance(state, dict) or "device" not in state:
        raise CheckpointFormatError(
            "full container state section malformed", offset=_HEADER.size
        )
    return state


# -- capture and restore -------------------------------------------------------


def capture_server_state(
    server: "CricketServer", *, include_device_data: bool = True
) -> dict:
    """The full recoverable state of a Cricket server, as a plain dict.

    Each component captures its own part -- the driver its module and
    function tables, the current device's stream table, the cuBLAS and
    cuSOLVER contexts their handles, the session manager the ledger, the
    RPC server its reply cache -- and this function only composes them.
    Every value is an independent copy (device contents are copied out,
    the session/ledger snapshots deep-copy) so the dict stays valid after
    the server mutates.  :func:`snapshot_server` frames this; the
    checkpoint store and live migration consume it directly so they can
    ship the small metadata separately from bulk device memory.

    With ``include_device_data=False`` the ``"device"`` image (the bulk of
    a checkpoint) is replaced by a ``"device_meta"`` allocation table --
    the shape a delta checkpoint or a stop-and-copy metadata chunk wants,
    with contents shipped separately as dirty-page fragments.
    """
    device = server.device
    state = {
        "version": FORMAT_VERSION,
        **server.driver.capture_state(),
        "blas_handles": server.blas.capture_state(),
        "solver_handles": server.solver.capture_state(),
        **device.streams.capture_state(),
        "clock_ns": server.clock.now_ns,
    }
    if include_device_data:
        state["device"] = device.snapshot()
    else:
        state["device_meta"] = device.snapshot_meta()
    # Session ownership travels with the state it owns, so a restored
    # server can keep enforcing quotas and reclaiming orphans: the entries
    # on the device this state captures.
    state["sessions"] = server.sessions.snapshot_state(server.current_ordinal)
    fencing = getattr(server, "fencing", None)
    if fencing is not None:
        # The leadership epoch travels with the state it protects: a
        # standby seeded from this state (or a server restored from a
        # checkpoint) must refuse op-log ships stamped with any older
        # epoch.  Optional key; unfenced states restore fine.
        state["leader_epoch"] = fencing.epoch
    # At-most-once survives the restore: without the reply cache, a client
    # whose call executed just before the drain/failure would retransmit
    # against the restored server and re-execute a non-idempotent call.
    # The cache is already budget-bounded, so the state stays bounded too.
    state["reply_cache"] = server.capture_reply_cache()
    return state


def snapshot_server(server: "CricketServer") -> bytes:
    """The full recoverable state of a Cricket server, as one container."""
    return encode_full(capture_server_state(server))


def restore_server_state(server: "CricketServer", state: dict) -> None:
    """Restore a captured state dict onto ``server`` (same GPU model).

    Each component restores the part it captured; the stream table goes
    after the device image, whose restore resets the device."""
    if state.get("version") != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {state.get('version')!r}", offset=1
        )
    # Device memory (allocations at exact addresses).
    server.device.restore(state["device"])
    server.driver.restore_state(state)
    server.blas.restore_state(state["blas_handles"])
    server.solver.restore_state(state["solver_handles"])
    # Streams and events (virtual-time tails survive the checkpoint).
    server.device.streams.restore_state(state)
    # Session table.  Leases are re-anchored at the restoring server's
    # current time: the state's absolute expiry times belong to the old
    # server's timeline.
    server.sessions.restore_state(state["sessions"], server.clock.now_ns)
    # Leadership epoch (absent in unfenced states).  Adopting is one-way
    # monotonic: a fenced server restoring an *older* state keeps its
    # newer epoch, and a leader restoring a newer one fences itself.
    fencing = getattr(server, "fencing", None)
    if fencing is not None and "leader_epoch" in state:
        fencing.observe_epoch(state["leader_epoch"])
    server.restore_reply_cache(state["reply_cache"])


def restore_server(server: "CricketServer", blob: bytes) -> None:
    """Restore a :func:`snapshot_server` container onto ``server``."""
    restore_server_state(server, decode_full(decode_container(blob)))


# -- deltas --------------------------------------------------------------------


def materialize(
    meta: dict, fragments: list[tuple[int, bytes]], base: dict | None = None
) -> tuple[dict, int]:
    """A full state from a metadata capture plus dirty-page fragments.

    ``meta`` is a capture without device contents; its metadata (modules,
    streams, sessions, reply cache, ...) is taken outright and its
    ``device_meta`` allocation table is authoritative.  An allocation
    ``base`` (a full state) holds at the same address and size keeps its
    bytes; every other one starts zeroed.  Fragments land in order (last
    write wins), clipped to the allocation they start in.

    Returns the state and the number of fragment bytes that fell outside
    the final allocation table.  A checkpoint store refuses a delta that
    dropped any; a migration drops the bytes of an allocation freed after
    they were shipped.
    """
    device_meta = meta.get("device_meta")
    if device_meta is None:
        raise CheckpointFormatError("state capture lacks device_meta", offset=0)
    kept = {}
    if base is not None:
        kept = {addr: (size, data) for addr, size, data in base["device"]["allocations"]}
    sizes = dict(device_meta["allocations"])
    buffers = {}
    for addr, size in sizes.items():
        old = kept.get(addr)
        buffers[addr] = bytearray(old[1]) if old and old[0] == size else bytearray(size)
    addrs = sorted(buffers)
    dropped = 0
    for frag_addr, data in fragments:
        index = bisect_right(addrs, frag_addr) - 1
        usable = 0
        if index >= 0:
            addr = addrs[index]
            offset = frag_addr - addr
            usable = max(0, min(len(data), sizes[addr] - offset))
            if usable:
                buffers[addr][offset : offset + usable] = data[:usable]
        dropped += len(data) - usable
    state = dict(meta)
    del state["device_meta"]
    state["device"] = {
        "spec_name": device_meta["spec_name"],
        "capacity": device_meta["capacity"],
        "allocations": [(addr, sizes[addr], bytes(buffers[addr])) for addr in addrs],
        "launch_count": device_meta["launch_count"],
    }
    return state, dropped
