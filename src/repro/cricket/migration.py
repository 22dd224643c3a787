"""Resumable live migration of a Cricket server's GPU state.

The paper's conclusion promises "runtime reorganization of tasks" from
decoupling the GPU; :mod:`examples.checkpoint_migration`'s original flow
was a stop-the-world blob copy -- the whole workload pauses for as long as
the full device image takes to move, and any network fault restarts the
copy from byte zero.  This module implements iterative pre-copy migration
(the scheme live VM migration settled on, applied to CRAC-style GPU
checkpoints), built for faults:

* **Pre-copy rounds** -- the source keeps serving while dirty-page
  fragments (:meth:`~repro.gpu.device.GpuDevice.delta_fragments`) stream
  to the target in CRC'd chunks.  Each round ships only what changed
  since the previous one, so the final pause covers the residual dirty
  set, not the whole device.
* **Resume from the last ack** -- the sender's in-memory outbox holds
  every unacknowledged chunk.  A channel disconnect (or a target kill)
  resends from the last chunk the target acknowledged: the counters
  prove no full restart.
* **Receiver journal** -- the target writes every chunk as one
  atomically written record (the chunk's own CRC trailer covers it)
  *before* acknowledging it, so a killed target process recovers its
  staging state (a torn record is dropped) and the sender resends only
  the genuinely unacknowledged suffix.  Sequence numbers de-duplicate
  redelivery, so resends are idempotent.
* **Bounded stop-and-copy** -- the source pauses serving (RPC_BUSY to
  non-exempt calls), ships the final dirty set plus the metadata state,
  and charges the modeled pause to virtual time.  A pause over budget
  aborts the migration with the source serving again.
* **Cutover via endpoint rotation** -- killing the source makes every
  client's :class:`~repro.resilience.failover.FailoverTransport` rotate
  to the target endpoint; the migrated reply cache keeps retransmitted
  in-flight calls at-most-once across the move.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cricket.checkpoint import (
    capture_server_state,
    decode_state,
    encode_state,
    materialize,
    restore_server_state,
)
from repro.cricket.errors import (
    ChunkRejectedError,
    MigrationChannelError,
    MigrationError,
)
from repro.oncrpc.errors import RpcIntegrityError
from repro.oncrpc.record import append_crc, verify_crc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer
    from repro.resilience.stats import ServerStats

#: chunk header: magic, protocol version, kind, sequence number, pre-copy
#: round, payload length.  The CRC trailer covers header + payload.
_CHUNK_HEADER = struct.Struct(">2sBBIIQ")
_CHUNK_MAGIC = b"MG"
CHUNK_VERSION = 1

KIND_BEGIN = 1
KIND_FRAGS = 2
KIND_COMMIT = 3
KIND_ABORT = 4

_KIND_NAMES = {
    KIND_BEGIN: "begin",
    KIND_FRAGS: "frags",
    KIND_COMMIT: "commit",
    KIND_ABORT: "abort",
}

#: the receiver journal's records: this prefix, then the chunk's seq
JOURNAL_PREFIX = "migration.journal."


def _record_name(seq: int) -> str:
    return f"{JOURNAL_PREFIX}{seq:08d}"


@dataclass(frozen=True)
class Chunk:
    """One decoded migration chunk."""

    kind: int
    seq: int
    round: int
    payload: bytes = field(repr=False)


def encode_chunk(kind: int, seq: int, round_: int, payload: bytes) -> bytes:
    """Frame one migration chunk; the CRC trailer covers everything."""
    header = _CHUNK_HEADER.pack(
        _CHUNK_MAGIC, CHUNK_VERSION, kind, seq, round_, len(payload)
    )
    return append_crc(header + payload)


def decode_chunk(blob: bytes) -> Chunk:
    """Verify and parse a chunk; :class:`ChunkRejectedError` on corruption."""
    try:
        framed = verify_crc(blob)
    except RpcIntegrityError as exc:
        raise ChunkRejectedError(f"chunk CRC mismatch: {exc}") from exc
    if len(framed) < _CHUNK_HEADER.size:
        raise ChunkRejectedError(f"chunk truncated ({len(framed)} bytes)")
    magic, version, kind, seq, round_, payload_len = _CHUNK_HEADER.unpack_from(
        framed, 0
    )
    if magic != _CHUNK_MAGIC:
        raise ChunkRejectedError(f"bad chunk magic {magic!r}")
    if version != CHUNK_VERSION:
        raise ChunkRejectedError(f"unsupported chunk version {version}")
    payload = bytes(framed[_CHUNK_HEADER.size :])  # the chunk outlives ``blob``
    if len(payload) != payload_len:
        raise ChunkRejectedError(
            f"chunk payload length mismatch ({len(payload)} != {payload_len})"
        )
    if kind not in _KIND_NAMES:
        raise ChunkRejectedError(f"unknown chunk kind {kind}")
    return Chunk(kind=kind, seq=seq, round=round_, payload=payload)


# -- channels ----------------------------------------------------------------


class LoopbackMigrationChannel:
    """In-process channel: chunks go straight to a :class:`MigrationTarget`."""

    def __init__(self, target: "MigrationTarget") -> None:
        self.target = target

    def send(self, blob: bytes) -> int:
        """Deliver one chunk; returns the receiver's acknowledged seq."""
        return self.target.receive(blob)


class FaultyMigrationChannel:
    """Channel wrapper injecting scheduled disconnects and corruption.

    ``disconnect_before`` maps send ordinals (1-based, counted across the
    channel's lifetime) to a break *before* that send reaches the target;
    ``corrupt_sends`` flips one byte of those sends so the receiver NAKs
    them.  Both are one-shot per ordinal, so the retransmission path is
    exercised deterministically.
    """

    def __init__(
        self,
        inner,
        *,
        disconnect_before: set[int] | None = None,
        corrupt_sends: set[int] | None = None,
    ) -> None:
        self.inner = inner
        self.disconnect_before = set(disconnect_before or ())
        self.corrupt_sends = set(corrupt_sends or ())
        self.sends = 0
        self.disconnects = 0

    def send(self, blob: bytes) -> int:
        self.sends += 1
        if self.sends in self.disconnect_before:
            self.disconnect_before.discard(self.sends)
            self.disconnects += 1
            raise MigrationChannelError(
                f"injected disconnect before send {self.sends}"
            )
        if self.sends in self.corrupt_sends:
            self.corrupt_sends.discard(self.sends)
            blob = blob[:8] + bytes([blob[8] ^ 0x5A]) + blob[9:]
        return self.inner.send(blob)


# -- the receiving side ------------------------------------------------------


class MigrationTarget:
    """Receives, journals and finally applies a migration's chunks.

    The journal is the receiver's crash story: every chunk is written to
    ``storage`` (a :class:`~repro.cricket.ckptstore.FileStorage`-shaped
    object, or ``None`` for no journal) as its own atomically written
    record (:data:`JOURNAL_PREFIX` and its seq) *before* it is
    acknowledged.  A killed target process is modeled by building a fresh
    ``MigrationTarget`` over the same storage and calling :meth:`recover`
    -- the records replay, a torn one (the write the crash interrupted)
    is dropped, and ``last_acked`` lands exactly on the last chunk the
    sender may believe delivered.
    """

    def __init__(
        self,
        server: "CricketServer",
        *,
        storage=None,
        stats: "ServerStats | None" = None,
    ) -> None:
        self.server = server
        self.storage = storage
        self.stats = stats if stats is not None else server.server_stats
        self.last_acked = 0
        self.began = False
        self.aborted = False
        #: staged (addr, data) fragments in arrival order
        self.fragments: list[tuple[int, bytes]] = []
        self.commit_state: dict | None = None

    # -- receive path --------------------------------------------------------

    def receive(self, blob: bytes) -> int:
        """Apply one chunk; returns the acknowledged sequence number.

        Duplicates (seq <= last ack) are acknowledged again without
        re-applying -- redelivery after a resume is idempotent.  The
        journal record is written before the ack: an acked chunk is always
        recoverable.
        """
        chunk = decode_chunk(blob)  # ChunkRejectedError -> sender resends
        if chunk.seq <= self.last_acked:
            if self.stats is not None:
                self.stats.migration_chunks_duplicate += 1
            return self.last_acked
        if chunk.seq != self.last_acked + 1:
            raise MigrationError(
                f"chunk gap: got seq {chunk.seq}, expected {self.last_acked + 1}"
            )
        if self.storage is not None:
            try:
                if chunk.seq == 1:  # an earlier migration's records are not this one's
                    self._clear_journal()
                self.storage.write_atomic(_record_name(chunk.seq), blob)
            except OSError as exc:
                # Not journaled -> must not be acked; the sender retries.
                raise MigrationChannelError(
                    f"receiver journal write failed: {exc}"
                ) from exc
        self._apply(chunk)
        self.last_acked = chunk.seq
        return self.last_acked

    def _apply(self, chunk: Chunk) -> None:
        if chunk.kind == KIND_BEGIN:
            self.began = True
            self.aborted = False
            self.fragments.clear()
            self.commit_state = None
        elif chunk.kind == KIND_FRAGS:
            self.fragments.extend(decode_state(chunk.payload))
        elif chunk.kind == KIND_COMMIT:
            self.commit_state = decode_state(chunk.payload)
        elif chunk.kind == KIND_ABORT:
            self.aborted = True
            self.fragments.clear()
            self.commit_state = None

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> int:
        """Rebuild staging state from the journal; returns ``last_acked``.

        Applies records in seq order from 1.  The first one that is
        missing or does not decode ends the walk -- it is the write a
        crash interrupted, by construction never acknowledged -- and it is
        removed with every record after it.
        """
        if self.storage is None:
            return self.last_acked
        self.last_acked = 0
        self.began = False
        self.fragments.clear()
        self.commit_state = None
        records = {n for n in self.storage.listdir() if n.startswith(JOURNAL_PREFIX)}
        while (name := _record_name(self.last_acked + 1)) in records:
            try:
                chunk = decode_chunk(self.storage.read(name))
            except (ChunkRejectedError, OSError):
                break
            self._apply(chunk)
            self.last_acked = chunk.seq
            records.discard(name)
        for name in records:  # the first bad record and everything after it
            self.storage.remove(name)
        return self.last_acked

    def _clear_journal(self) -> None:
        for name in self.storage.listdir():
            if name.startswith(JOURNAL_PREFIX):
                self.storage.remove(name)

    # -- finalization --------------------------------------------------------

    def finalize(self) -> "CricketServer":
        """Assemble the received state and restore it onto the target server."""
        if self.commit_state is None:
            raise MigrationError("cannot finalize before the COMMIT chunk")
        # The COMMIT allocation table is authoritative: bytes of an
        # allocation freed after they were shipped have nowhere to land.
        state, _dropped = materialize(self.commit_state, self.fragments)
        restore_server_state(self.server, state)
        if self.storage is not None:
            self._clear_journal()
        return self.server


# -- the sending side --------------------------------------------------------


@dataclass
class MigrationReport:
    """What one migration did (returned by :func:`migrate_live`)."""

    migration_id: str
    rounds: int = 0
    chunks_sent: int = 0
    chunks_resent: int = 0
    resumes: int = 0
    precopy_bytes: int = 0
    stop_copy_bytes: int = 0
    pause_ns: int = 0
    completed: bool = False
    aborted: bool = False


class MigrationSource:
    """Drives a migration from the source server's side.

    Phases: ``idle -> precopy -> paused -> cutover-ready -> done`` (or
    ``aborted``).  ``acked`` is the last chunk the target acknowledged;
    unacknowledged chunks wait in the in-memory outbox for
    :meth:`resume` to resend.
    """

    #: pre-copy rounds before forcing stop-and-copy
    MAX_ROUNDS = 8
    #: stop iterating once the dirty set is at or below this
    DIRTY_FLOOR_BYTES = 256 * 1024
    #: fragment bytes per FRAGS chunk (bounds loss per disconnect)
    CHUNK_BYTES = 256 * 1024
    #: virtual-time budget for the stop-and-copy pause, nanoseconds
    PAUSE_BUDGET_NS = 200_000_000
    #: modeled migration-link bandwidth for the paused final copy
    BANDWIDTH_BYTES_PER_S = 10e9
    #: delivery attempts per chunk before the migration fails
    MAX_CHUNK_ATTEMPTS = 3
    #: the id BEGIN carries
    MIGRATION_ID = "mig-1"

    def __init__(
        self,
        server: "CricketServer",
        *,
        stats: "ServerStats | None" = None,
    ) -> None:
        self.server = server
        self.stats = stats if stats is not None else server.server_stats
        self.phase = "idle"
        self.round = 0
        self._seq = 0
        self.acked = 0
        #: unacknowledged chunks by seq (pruned as acks advance)
        self._outbox: dict[int, bytes] = {}
        self.report = MigrationReport(migration_id=self.MIGRATION_ID)

    # -- chunk plumbing ------------------------------------------------------

    def _next_chunk(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        self._seq += 1
        blob = encode_chunk(kind, self._seq, self.round, payload)
        self._outbox[self._seq] = blob
        return self._seq, blob

    def _deliver(self, channel, seq: int, blob: bytes, *, resend: bool = False) -> None:
        """Send one chunk until acked; NAKs retransmit, disconnects raise."""
        attempts = 0
        while True:
            attempts += 1
            try:
                ack = channel.send(blob)
            except ChunkRejectedError:
                self.report.chunks_resent += 1
                self.stats.migration_chunks_resent += 1
                if attempts >= self.MAX_CHUNK_ATTEMPTS:
                    raise MigrationError(
                        f"chunk {seq} rejected {attempts} times; giving up"
                    ) from None
                continue
            break
        if resend:
            self.report.chunks_resent += 1
            self.stats.migration_chunks_resent += 1
        else:
            self.report.chunks_sent += 1
            self.stats.migration_chunks_sent += 1
        self._note_ack(ack)

    def _note_ack(self, ack: int) -> None:
        if ack > self.acked:
            self.acked = ack
            for seq in [s for s in self._outbox if s <= ack]:
                del self._outbox[seq]

    def _send(self, channel, kind: int, payload: bytes) -> None:
        seq, blob = self._next_chunk(kind, payload)
        self._deliver(channel, seq, blob)

    def _send_fragments(
        self,
        channel,
        fragments: list[tuple[int, bytes]],
        *,
        account_precopy: bool = False,
    ) -> int:
        """Ship fragments split into bounded chunks; returns payload bytes.

        Every chunk is queued to the outbox *before* the first delivery
        attempt: ``delta_fragments`` already cleared the dirty set, so a
        disconnect mid-round must leave the whole round recoverable from
        the outbox (``resume`` resends everything past the ack).  With
        ``account_precopy`` the payload bytes are charged to the report
        at queue time for the same reason -- a delivery fault is healed
        by resuming the outbox, never by regenerating the round.
        """
        total = 0
        batch: list[tuple[int, bytes]] = []
        batch_bytes = 0
        limit = self.CHUNK_BYTES
        queued: list[tuple[int, bytes]] = []

        def flush() -> None:
            nonlocal batch, batch_bytes
            if not batch:
                return
            queued.append(self._next_chunk(KIND_FRAGS, encode_state(batch)))
            batch = []
            batch_bytes = 0

        for addr, data in fragments:
            total += len(data)
            batch.append((addr, data))
            batch_bytes += len(data)
            if batch_bytes >= limit:
                flush()
        flush()
        if account_precopy:
            self.report.precopy_bytes += total
        for seq, blob in queued:
            self._deliver(channel, seq, blob)
        return total

    # -- phases --------------------------------------------------------------

    def start(self, channel) -> None:
        """BEGIN the migration and ship round 0 (all live memory)."""
        if self.phase == "precopy":
            # Re-entry after a mid-round-0 fault.  BEGIN and every chunk
            # generated so far sit in the outbox (resume() resends them);
            # only pages dirtied since the interruption remain to ship.
            self._send_fragments(
                channel,
                self.server.device.delta_fragments(),
                account_precopy=True,
            )
            return
        if self.phase != "idle":
            raise MigrationError(f"cannot start from phase {self.phase!r}")
        self.phase = "precopy"
        self.round = 0
        device = self.server.device
        begin = {
            "migration_id": self.MIGRATION_ID,
            "spec_name": device.spec.name,
            "capacity": device.allocator.capacity,
        }
        self._send(channel, KIND_BEGIN, encode_state(begin))
        # Round 0 is the full copy: everything live is "dirty".
        device.allocator.mark_all_dirty()
        self._send_fragments(
            channel, device.delta_fragments(), account_precopy=True
        )
        self.report.rounds += 1
        self.stats.migration_rounds += 1

    def run_precopy(self, channel) -> None:
        """Iterate dirty-page rounds until the residual set is small."""
        if self.phase != "precopy":
            raise MigrationError(f"cannot pre-copy from phase {self.phase!r}")
        device = self.server.device
        while (
            self.round + 1 < self.MAX_ROUNDS
            and device.dirty_bytes > self.DIRTY_FLOOR_BYTES
        ):
            self.round += 1
            self._send_fragments(
                channel, device.delta_fragments(), account_precopy=True
            )
            self.report.rounds += 1
            self.stats.migration_rounds += 1

    def stop_and_copy(self, channel) -> None:
        """Pause serving, ship the residual dirty set and the state metadata.

        The pause is charged to virtual time as (bytes shipped while
        paused) / (modeled bandwidth).  Exceeding the budget aborts: the
        source resumes serving and the migration reports ``aborted``.
        """
        if self.phase not in ("precopy", "paused"):
            raise MigrationError(f"cannot stop-and-copy from phase {self.phase!r}")
        # "paused" re-entry = finishing after a mid-pause disconnect: the
        # dirty set is tiny (nothing executed while paused) and a fresh
        # COMMIT supersedes any partial one on the receiver.
        self.phase = "paused"
        self.server.pause_serving()
        try:
            device = self.server.device
            final_bytes = self._send_fragments(channel, device.delta_fragments())
            self.round += 1
            self.report.rounds += 1
            self.stats.migration_rounds += 1
            meta = capture_server_state(self.server, include_device_data=False)
            commit_payload = encode_state(meta)
            final_bytes += len(commit_payload)
            pause_ns = int(final_bytes / self.BANDWIDTH_BYTES_PER_S * 1e9)
            if pause_ns > self.PAUSE_BUDGET_NS:
                raise MigrationError(
                    f"stop-and-copy pause {pause_ns}ns exceeds budget "
                    f"{self.PAUSE_BUDGET_NS}ns"
                )
            self._send(channel, KIND_COMMIT, commit_payload)
            self.server.clock.advance_s(pause_ns / 1e9)
            self.report.stop_copy_bytes += final_bytes
            self.report.pause_ns += pause_ns
            self.stats.migration_pause_ns += pause_ns
            self.phase = "cutover-ready"
        except MigrationChannelError:
            # Still paused: resume() will finish the stop-and-copy.
            raise
        except MigrationError:
            self.abort(channel=None)
            raise

    def cutover(self, *, kill_source: bool = True) -> None:
        """Commit the move: the source stops answering, clients rotate.

        Killing the source is what makes every client's
        :class:`~repro.resilience.failover.FailoverTransport` walk its
        endpoint list to the migrated-to server on the next reconnect.
        """
        if self.phase != "cutover-ready":
            raise MigrationError(f"cannot cut over from phase {self.phase!r}")
        if kill_source:
            self.server.kill()
        self.phase = "done"
        self.report.completed = True
        self.stats.migrations_completed += 1

    def abort(self, channel=None) -> None:
        """Abandon the migration; the source serves again immediately."""
        if self.phase in ("done", "aborted"):
            return
        if channel is not None:
            try:
                seq, blob = self._next_chunk(KIND_ABORT, b"")
                self._deliver(channel, seq, blob)
            except (MigrationChannelError, MigrationError):
                pass  # best effort: the target discards on its own timeout
        self.server.resume_serving()
        self.phase = "aborted"
        self.report.aborted = True
        self.stats.migrations_aborted += 1

    # -- resume after a fault ------------------------------------------------

    def resume(self, channel, *, receiver_acked: int | None = None) -> None:
        """Resend the unacknowledged suffix after a disconnect or target kill.

        ``receiver_acked`` is the target's recovered ack (from
        :meth:`MigrationTarget.recover`); ``None`` trusts our own.
        Everything after ``min(ours, theirs)`` is redelivered from the
        outbox -- duplicates are absorbed by the receiver's seq check, so
        resuming is idempotent and never restarts from chunk one.
        """
        if self.phase not in ("precopy", "paused"):
            raise MigrationError(f"cannot resume from phase {self.phase!r}")
        self.report.resumes += 1
        self.stats.migration_resumes += 1
        if receiver_acked is not None and receiver_acked < self.acked:
            # The target lost acked-but-unjournaled state?  Impossible by
            # construction (journal before ack) -- but a recovered ack
            # behind ours means resending from theirs; dedupe absorbs it.
            self.acked = receiver_acked
        for seq in sorted(self._outbox):
            if seq <= self.acked:
                continue
            self._deliver(channel, seq, self._outbox[seq], resend=True)


# -- convenience driver ------------------------------------------------------


def migrate_live(
    source: MigrationSource,
    target: MigrationTarget,
    channel=None,
    *,
    max_resumes: int = 8,
) -> MigrationReport:
    """Run a full migration, transparently resuming across channel faults.

    Drives ``start -> run_precopy -> stop_and_copy -> finalize -> cutover``
    and, on any :class:`MigrationChannelError`, resumes from the last ack
    (up to ``max_resumes`` times) instead of restarting.  Returns the
    source's :class:`MigrationReport`.
    """
    if channel is None:
        channel = LoopbackMigrationChannel(target)
    resumes_left = max_resumes

    def guarded(step) -> None:
        nonlocal resumes_left
        pending_resume = False
        while True:
            try:
                if pending_resume:
                    source.resume(channel, receiver_acked=target.last_acked)
                    pending_resume = False
                step()
                return
            except MigrationChannelError:
                if resumes_left <= 0:
                    raise
                resumes_left -= 1
                pending_resume = True

    guarded(lambda: source.start(channel))
    guarded(lambda: source.run_precopy(channel))
    guarded(lambda: source.stop_and_copy(channel))
    target.finalize()
    source.cutover()
    return source.report
