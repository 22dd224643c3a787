"""Crash-consistent, generation-numbered checkpoint store.

The raw blob :func:`~repro.cricket.checkpoint.save_checkpoint` writes is a
single point of failure: one torn write and the only checkpoint is gone.
This module gives checkpoints the durability story CRAC-style
checkpoint/restart needs in production:

* **Framed container** -- magic, format version, and named sections, each
  protected by the same CRC32 trailer the RPC transport uses
  (:func:`~repro.oncrpc.record.append_crc`), plus a whole-file trailer CRC.
  Corruption is detected *and located*: every failure raises
  :class:`~repro.cricket.errors.CheckpointFormatError` with the offending
  byte offset.
* **Atomic persistence** -- containers land in a same-directory temp file,
  are fsynced, and are moved into place with ``os.replace``.  A crash
  leaves either the previous generation or the new one, never a hybrid.
  :class:`MemoryStorage` is the same interface over a dict, for scratch
  stores (the deterministic simulator's) that must outlive no process.
* **Generations with fallback** -- each save produces a new numbered
  generation; :meth:`CheckpointStore.load_state` walks newest-to-oldest
  past any torn or corrupt generation to the last verifiable one.
* **Incremental (delta) checkpoints** -- a delta generation carries only
  the allocation table plus the pages dirtied since the previous save
  (tracked by :class:`~repro.gpu.memory.DeviceAllocator`), chained to a
  base generation and materialized transparently on load.
  :meth:`CheckpointStore.compact` folds a chain back into one full
  container so restore cost and retention stay bounded.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import re
import struct
import tempfile
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cricket.checkpoint import (
    FORMAT_VERSION,
    capture_server_state,
    restore_server_state,
)
from repro.cricket.errors import CheckpointError, CheckpointFormatError
from repro.oncrpc.errors import RpcIntegrityError
from repro.oncrpc.record import append_crc, verify_crc
from repro.resilience.health import HealthTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer
    from repro.resilience.stats import ServerStats

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

_CKPT_NAME = re.compile(r"^ckpt-(\d{8})\.ckpt$")


# -- container encoding ------------------------------------------------------


@dataclass(frozen=True)
class Container:
    """One decoded checkpoint container."""

    kind: int
    generation: int
    base_generation: int
    sections: dict[str, bytes] = field(repr=False)
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
    leadership recency without unpickling the state section.
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
    out = bytearray(
        _HEADER.pack(
            MAGIC, STORE_VERSION, kind, 0, generation, base_generation, len(framed)
        )
    )
    for name, payload in framed:
        name_bytes = name.encode()
        protected = append_crc(payload)
        out += _NAME_LEN.pack(len(name_bytes))
        out += name_bytes
        out += _PAYLOAD_LEN.pack(len(protected))
        out += protected
    out += _TRAILER.pack(_TRAILER_MAGIC, zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def decode_container(blob: bytes) -> Container:
    """Parse and verify a container; raises :class:`CheckpointFormatError`.

    Every structural failure carries the byte offset of the first bad
    structure, so a torn tail (offset near ``len(blob)``) is
    distinguishable from a flipped bit mid-file.
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
    if zlib.crc32(blob[:trailer_at]) & 0xFFFFFFFF != t_crc:
        raise CheckpointFormatError("file CRC mismatch", offset=trailer_at + 4)
    pos = _HEADER.size
    sections: dict[str, bytes] = {}
    for _ in range(n_sections):
        if pos + _NAME_LEN.size > trailer_at:
            raise CheckpointFormatError("section table truncated", offset=pos)
        (name_len,) = _NAME_LEN.unpack_from(blob, pos)
        pos += _NAME_LEN.size
        if pos + name_len + _PAYLOAD_LEN.size > trailer_at:
            raise CheckpointFormatError("section name truncated", offset=pos)
        name = blob[pos : pos + name_len].decode()
        pos += name_len
        (payload_len,) = _PAYLOAD_LEN.unpack_from(blob, pos)
        pos += _PAYLOAD_LEN.size
        if pos + payload_len > trailer_at:
            raise CheckpointFormatError(
                f"section {name!r} payload truncated", offset=pos
            )
        try:
            sections[name] = bytes(
                verify_crc(memoryview(blob)[pos : pos + payload_len])
            )
        except RpcIntegrityError as exc:
            raise CheckpointFormatError(
                f"section {name!r} CRC mismatch: {exc}", offset=pos
            ) from exc
        pos += payload_len
    if pos != trailer_at:
        raise CheckpointFormatError(
            f"{trailer_at - pos} trailing bytes after last section", offset=pos
        )
    if "manifest" not in sections:
        raise CheckpointFormatError("container has no manifest section", offset=_HEADER.size)
    try:
        manifest = json.loads(sections["manifest"])
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


# -- storage abstraction -----------------------------------------------------


class FileStorage:
    """Durable byte storage over a directory, with atomic replace.

    The seam storage fault injection plugs into: the checkpoint store,
    migration cursor and receiver journal all talk to this interface, so
    :class:`~repro.resilience.faults.FaultyStorage` can wrap it and model
    torn writes, bit flips, short reads, ENOSPC and crash-before-rename
    without touching the callers.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as fh:
            return fh.read()

    def write_atomic(self, name: str, data: bytes) -> None:
        """Write ``data`` so a crash leaves either the old or new content."""
        fd, tmp_path = tempfile.mkstemp(prefix=f".{name}.", dir=self.root)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self._path(name))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def append(self, name: str, data: bytes) -> None:
        """Append ``data`` durably (journal writes)."""
        with open(self._path(name), "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def remove(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass

    def listdir(self) -> list[str]:
        return sorted(os.listdir(self.root))


class MemoryStorage:
    """:class:`FileStorage`'s interface over a dict: scratch storage.

    Every write is atomic by construction (one dict assignment), so the
    crash and tear shapes a test needs come from a
    :class:`~repro.resilience.faults.FaultyStorage` wrapper, exactly as
    over a directory.  A missing name reads as ``FileNotFoundError``.
    """

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}

    def read(self, name: str) -> bytes:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(errno.ENOENT, "no such file", name) from None

    def write_atomic(self, name: str, data: bytes) -> None:
        self._files[name] = bytes(data)

    def append(self, name: str, data: bytes) -> None:
        self._files[name] = self._files.get(name, b"") + data

    def exists(self, name: str) -> bool:
        return name in self._files

    def remove(self, name: str) -> None:
        self._files.pop(name, None)

    def listdir(self) -> list[str]:
        return sorted(self._files)

    def clear(self) -> None:
        """Drop every file (the scratch store's end of life)."""
        self._files.clear()


# -- the store ---------------------------------------------------------------


def _generation_name(generation: int) -> str:
    return f"ckpt-{generation:08d}.ckpt"


class CheckpointStore:
    """Generation-numbered checkpoint store with corruption fallback."""

    def __init__(
        self,
        directory: str | None = None,
        *,
        storage: FileStorage | MemoryStorage | None = None,
        retain: int = 3,
        stats: "ServerStats | None" = None,
        clock=None,
    ) -> None:
        if storage is None:
            if directory is None:
                raise ValueError("CheckpointStore needs a directory or a storage")
            storage = FileStorage(directory)
        self.storage = storage
        self.retain = max(1, retain)
        self.stats = stats
        #: virtual clock for write-latency tracking (None = untracked).
        #: Sits *above* any FaultyStorage wrapper, so injected slow-fsync
        #: time is visible to the tracker -- feed ``write_latency`` to
        #: ``CricketServer.attach_checkpoint_health`` and a limping disk
        #: becomes a brownout signal instead of silent checkpoint drift.
        self.clock = clock
        #: per-save container write latency (fsync + rename), virtual ns
        self.write_latency = HealthTracker("checkpoint-write")
        #: generation of the last *successful* save; deltas chain to the
        #: generation that last advanced the dirty-page epoch.
        self.last_generation = max(self.generations(), default=0)
        #: base generation (0 for a full) of every container this store
        #: wrote and still retains: retention's record, so it reads back
        #: only generations someone else wrote.
        self._bases: dict[int, int] = {}

    def _timed_write(self, name: str, blob: bytes) -> None:
        """``write_atomic`` with the container write timed on the clock."""
        if self.clock is None:
            self.storage.write_atomic(name, blob)
            return
        started_ns = self.clock.now_ns
        self.storage.write_atomic(name, blob)
        now_ns = self.clock.now_ns
        self.write_latency.record(now_ns - started_ns, now_ns)

    # -- enumeration ---------------------------------------------------------

    def generations(self) -> list[int]:
        """Generation numbers present on storage, ascending."""
        out = []
        for name in self.storage.listdir():
            match = _CKPT_NAME.match(name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    # -- saving --------------------------------------------------------------

    def save_full(self, server: "CricketServer") -> int:
        """Write a full checkpoint generation; returns its number."""
        state = capture_server_state(server)
        generation = self._next_generation()
        blob = encode_container(
            KIND_FULL,
            generation,
            0,
            [("state", pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))],
            epoch=state.get("leader_epoch", 0),
        )
        self._timed_write(_generation_name(generation), blob)
        # Only a persisted full advances the dirty epoch: the next delta
        # ships changes relative to *this* baseline.
        server.device.allocator.clear_dirty()
        self.last_generation = generation
        self._bases[generation] = 0
        if self.stats is not None:
            self.stats.checkpoint_generations_written += 1
            self.stats.checkpoint_bytes_written += len(blob)
        self._apply_retention()
        return generation

    def save_delta(self, server: "CricketServer") -> int:
        """Write a delta generation chained to the last successful save.

        Ships only the allocation table plus pages dirtied since that
        save.  If the write fails, the dirty set is re-marked so the
        *next* delta still carries everything -- a failed save must never
        silently narrow future checkpoints.
        """
        if self.last_generation == 0:
            raise CheckpointError("no base generation to chain a delta to")
        allocator = server.device.allocator
        pages = allocator.clear_dirty()
        try:
            fragments = allocator.dirty_fragments(pages)
            meta = capture_server_state(server, include_device_data=False)
            generation = self._next_generation()
            blob = encode_container(
                KIND_DELTA,
                generation,
                self.last_generation,
                [
                    ("meta", pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)),
                    (
                        "pages",
                        pickle.dumps(fragments, protocol=pickle.HIGHEST_PROTOCOL),
                    ),
                ],
                epoch=meta.get("leader_epoch", 0),
            )
            self._timed_write(_generation_name(generation), blob)
        except BaseException:
            allocator._dirty.update(pages)
            raise
        self._bases[generation] = self.last_generation
        self.last_generation = generation
        if self.stats is not None:
            self.stats.checkpoint_generations_written += 1
            self.stats.checkpoint_deltas_written += 1
            self.stats.checkpoint_bytes_written += len(blob)
        self._apply_retention()
        return generation

    def save(self, server: "CricketServer") -> int:
        """Delta if a baseline exists, else full (the iterative-save entry)."""
        if self.last_generation == 0:
            return self.save_full(server)
        return self.save_delta(server)

    def _next_generation(self) -> int:
        return max(self.generations(), default=self.last_generation) + 1

    # -- loading -------------------------------------------------------------

    def load_state(self, generation: int | None = None) -> tuple[int, dict]:
        """Materialize a generation into a full state dict.

        With ``generation=None``, tries newest first and falls back past
        torn/corrupt generations (or broken delta chains) to the last
        verifiable one -- the crash-recovery path.
        """
        if generation is not None:
            candidates = [generation]
        else:
            candidates = sorted(self.generations(), reverse=True)
        if not candidates:
            raise CheckpointError("checkpoint store is empty")
        last_error: Exception | None = None
        for index, candidate in enumerate(candidates):
            try:
                return candidate, self._materialize(candidate, seen=set())
            except (CheckpointFormatError, CheckpointError, OSError) as exc:
                last_error = exc
                if self.stats is not None and index + 1 < len(candidates):
                    self.stats.checkpoint_fallbacks += 1
        raise CheckpointError(
            f"no verifiable checkpoint generation (last error: {last_error})"
        )

    def restore_latest(self, server: "CricketServer") -> int:
        """Restore the newest verifiable generation onto ``server``."""
        generation, state = self.load_state()
        restore_server_state(server, state)
        return generation

    def _materialize(self, generation: int, *, seen: set[int]) -> dict:
        if generation in seen:
            raise CheckpointError(
                f"delta chain cycle at generation {generation}"
            )
        seen.add(generation)
        name = _generation_name(generation)
        if not self.storage.exists(name):
            raise CheckpointError(f"generation {generation} missing from store")
        container = decode_container(self.storage.read(name))
        if container.generation != generation:
            raise CheckpointFormatError(
                f"file {name} holds generation {container.generation}", offset=10
            )
        if not container.is_delta:
            state = pickle.loads(container.sections["state"])
            if not isinstance(state, dict) or "device" not in state:
                raise CheckpointFormatError(
                    "full container state section malformed", offset=_HEADER.size
                )
            return state
        base = self._materialize(container.base_generation, seen=seen)
        meta = pickle.loads(container.sections["meta"])
        fragments = pickle.loads(container.sections["pages"])
        return _apply_delta(base, meta, fragments)

    # -- compaction and retention -------------------------------------------

    def compact(self) -> int:
        """Fold the newest verifiable chain into one full generation.

        Bounds restore cost (no chain walk) and lets retention drop the
        old chain.  All generations older than the new full are removed.
        """
        _, state = self.load_state()
        generation = self._next_generation()
        blob = encode_container(
            KIND_FULL,
            generation,
            0,
            [("state", pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))],
            epoch=state.get("leader_epoch", 0),
        )
        self._timed_write(_generation_name(generation), blob)
        self.last_generation = generation
        if self.stats is not None:
            self.stats.checkpoint_generations_written += 1
            self.stats.checkpoint_bytes_written += len(blob)
        for old in self.generations():
            if old < generation:
                self.storage.remove(_generation_name(old))
        self._bases = {generation: 0}
        return generation

    def _apply_retention(self) -> None:
        """Drop old generations, never orphaning a kept delta's base chain."""
        generations = self.generations()
        keep = self._retained(generations)
        for generation in generations:
            if generation not in keep:
                self.storage.remove(_generation_name(generation))
        # What left the store leaves the record, whoever removed it.
        self._bases = {g: b for g, b in self._bases.items() if g in keep}

    def _retained(self, generations: list[int]) -> set[int]:
        """The generations retention keeps out of ``generations`` (ascending).

        The newest ``retain``, plus the transitive bases of any kept
        delta even when they fall outside that window.
        """
        present = set(generations)
        keep = set(generations[-self.retain :])
        frontier = list(keep)
        while frontier:
            base = self._base_of(frontier.pop())
            if base in present and base not in keep:
                keep.add(base)
                frontier.append(base)
        return keep

    def _base_of(self, generation: int) -> int:
        """``generation``'s base, 0 for a full or a container that pins none.

        A container this store wrote answers from the record, so a read
        fault cannot orphan the chain it needs.  Any other (another
        instance's, or a torn one) is read and decoded: one that does not
        decode cannot be restored, so it keeps no base alive.
        """
        base = self._bases.get(generation)
        if base is not None:
            return base
        try:
            container = decode_container(
                self.storage.read(_generation_name(generation))
            )
        except (CheckpointFormatError, OSError):
            return 0
        return container.base_generation if container.is_delta else 0


def _apply_delta(
    base: dict, meta: dict, fragments: list[tuple[int, bytes]]
) -> dict:
    """Materialize a delta over a full base state.

    The delta's metadata (modules, streams, sessions, reply cache, ...)
    replaces the base's outright -- it is a complete capture minus device
    contents.  Device memory is reconciled: allocations surviving from
    the base keep their bytes, new allocations start zeroed, freed ones
    drop, and dirty-page fragments overwrite in place.
    """
    device_meta = meta.get("device_meta")
    if device_meta is None:
        raise CheckpointFormatError("delta meta lacks device_meta", offset=_HEADER.size)
    base_payload = pickle.loads(base["device"])
    base_allocs = {
        addr: (size, data) for addr, size, data in base_payload["allocations"]
    }
    buffers: dict[int, tuple[int, bytearray]] = {}
    for addr, size in device_meta["allocations"]:
        if addr in base_allocs and base_allocs[addr][0] == size:
            buffers[addr] = (size, bytearray(base_allocs[addr][1]))
        else:
            buffers[addr] = (size, bytearray(size))
    addrs = sorted(buffers)
    for frag_addr, frag_data in fragments:
        index = bisect_right(addrs, frag_addr) - 1
        if index < 0:
            raise CheckpointFormatError(
                f"fragment at {frag_addr:#x} outside any allocation", offset=0
            )
        addr = addrs[index]
        size, buffer = buffers[addr]
        offset = frag_addr - addr
        if offset + len(frag_data) > size:
            raise CheckpointFormatError(
                f"fragment at {frag_addr:#x} overruns allocation", offset=0
            )
        buffer[offset : offset + len(frag_data)] = frag_data
    payload = {
        "spec_name": device_meta["spec_name"],
        "capacity": device_meta["capacity"],
        "allocations": [
            (addr, buffers[addr][0], bytes(buffers[addr][1])) for addr in addrs
        ],
        "launch_count": device_meta["launch_count"],
    }
    state = dict(meta)
    state.pop("device_meta", None)
    state["device"] = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return state
