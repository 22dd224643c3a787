"""Crash-consistent, generation-numbered checkpoint store.

Storage, generations and retention for the CRKT containers
:mod:`repro.cricket.checkpoint` frames (that module owns the format: the
container, its CRCs, the serializer and delta materialization).  This
module gives checkpoints the durability story CRAC-style checkpoint/restart
needs in production:

* **Atomic persistence** -- containers land in a same-directory temp file,
  are fsynced, and are moved into place with ``os.replace``.  A crash
  leaves either the previous generation or the new one, never a hybrid.
  :class:`MemoryStorage` is the same interface over a dict, for scratch
  stores (the deterministic simulator's) that must outlive no process.
* **Generations with fallback** -- each save produces a new numbered
  generation; :meth:`CheckpointStore.load_state` walks newest-to-oldest
  past any torn or corrupt generation (a
  :class:`~repro.cricket.errors.CheckpointFormatError` naming the offending
  byte offset) to the last verifiable one.
* **Incremental (delta) checkpoints** -- a delta generation carries only
  the allocation table plus the pages dirtied since the previous save
  (tracked by :class:`~repro.gpu.memory.DeviceAllocator`), chained to a
  base generation and materialized transparently on load.
  :meth:`CheckpointStore.compact` folds a chain back into one full
  container so restore cost and retention stay bounded.
"""

from __future__ import annotations

import errno
import os
import re
import tempfile
from typing import TYPE_CHECKING

from repro.cricket.checkpoint import (
    KIND_DELTA,
    capture_server_state,
    decode_container,
    decode_full,
    decode_state,
    encode_container,
    encode_full,
    encode_state,
    materialize,
    restore_server_state,
)
from repro.cricket.errors import CheckpointError, CheckpointFormatError
from repro.resilience.health import HealthTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer
    from repro.resilience.stats import ServerStats

_CKPT_NAME = re.compile(r"^ckpt-(\d{8})\.ckpt$")


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

    #: newest generations retention keeps (plus the bases they chain to)
    RETAIN = 3

    def __init__(
        self,
        directory: str | None = None,
        *,
        storage: FileStorage | MemoryStorage | None = None,
        stats: "ServerStats | None" = None,
        clock=None,
    ) -> None:
        if storage is None:
            if directory is None:
                raise ValueError("CheckpointStore needs a directory or a storage")
            storage = FileStorage(directory)
        self.storage = storage
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
        generation = self._next_generation()
        blob = encode_full(capture_server_state(server), generation)
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
                [("meta", encode_state(meta)), ("pages", encode_state(fragments))],
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
            return decode_full(container)
        base = self._materialize(container.base_generation, seen=seen)
        state, dropped = materialize(
            decode_state(container.sections["meta"]),
            decode_state(container.sections["pages"]),
            base,
        )
        if dropped:
            raise CheckpointFormatError(
                f"{dropped} delta fragment bytes outside the allocation table",
                offset=0,
            )
        return state

    # -- compaction and retention -------------------------------------------

    def compact(self) -> int:
        """Fold the newest verifiable chain into one full generation.

        Bounds restore cost (no chain walk) and lets retention drop the
        old chain.  All generations older than the new full are removed.
        """
        _, state = self.load_state()
        generation = self._next_generation()
        blob = encode_full(state, generation)
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

        The newest :attr:`RETAIN`, plus the transitive bases of any kept
        delta even when they fall outside that window.
        """
        present = set(generations)
        keep = set(generations[-self.RETAIN :])
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

