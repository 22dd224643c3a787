"""Checkpoint / restart of Cricket server state.

Cricket's flagship capability from the authors' previous work: capture the
GPU-side state of running applications so they can be restarted elsewhere
(enabling the "runtime reorganization of tasks" the conclusion describes).
A checkpoint covers everything the server holds on behalf of clients:

* device memory -- every live allocation with contents and exact addresses
  (device pointers are application state: clients hold them),
* loaded modules -- metadata, function handles and global bindings,
* cuBLAS/cuSOLVER handle tables,
* stream/event handle tables with their virtual-time tails,
* the at-most-once reply cache (format version 2) -- so a client that
  retransmits a non-idempotent call *across* a restore (drain -> restart,
  or failover to a standby) is answered from cache instead of re-executed.

Restoring onto a fresh server of the same GPU model reproduces all handles
and pointers, so a client can resume issuing calls as if nothing happened.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import TYPE_CHECKING

from repro.cricket.errors import CheckpointFormatError
from repro.cubin.metadata import decode_metadata, encode_metadata
from repro.cuda.driver import LoadedModule
from repro.cubin.loader import CubinImage
from repro.gpu.stream import Event, Stream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer

#: version 2 added the reply-cache summary; version-1 blobs still restore.
FORMAT_VERSION = 2

#: every pickle protocol >= 2 stream opens with this opcode; a blob that
#: does not is garbage (or a torn fragment), not a checkpoint.
_PICKLE_MAGIC = b"\x80"


def capture_server_state(
    server: "CricketServer", *, include_device_data: bool = True
) -> dict:
    """The full recoverable state of a Cricket server, as a plain dict.

    Every value is an independent copy (device memory is serialized, the
    session/ledger snapshots deep-copy) so the dict stays valid after the
    server mutates.  :func:`snapshot_server` pickles this; the checkpoint
    store and live migration consume it directly so they can ship the
    small metadata separately from bulk device memory.

    With ``include_device_data=False`` the ``"device"`` blob (the bulk of
    a checkpoint) is replaced by a ``"device_meta"`` allocation table --
    the shape a delta checkpoint or a stop-and-copy metadata chunk wants,
    with contents shipped separately as dirty-page fragments.
    """
    driver = server.driver
    modules = []
    for module in driver.loaded_modules():
        modules.append(
            {
                "handle": module.handle,
                "arch": module.image.arch,
                "metadata": encode_metadata(module.image.metadata),
                "functions": {
                    fh: meta.name for fh, meta in module.functions.items()
                },
                "globals": dict(module.globals),
            }
        )
    streams = server.device.streams
    state = {
        "version": FORMAT_VERSION,
        "modules": modules,
        "next_module": driver._next_module.__reduce__()[1][0],
        "next_function": driver._next_function.__reduce__()[1][0],
        "blas_handles": sorted(server.blas._handles),
        "solver_handles": sorted(server.solver._handles),
        "streams": {s.handle: (s.tail_ns, s.ops_submitted) for s in streams.streams()},
        "events": {
            e.handle: e.timestamp_ns for e in streams._events.values()
        },
        "clock_ns": server.clock.now_ns,
    }
    if include_device_data:
        state["device"] = server.device.snapshot()
    else:
        state["device_meta"] = server.device.snapshot_meta()
    sessions = getattr(server, "sessions", None)
    if sessions is not None:
        # Session ownership travels with the state it owns, so a restored
        # server can keep enforcing quotas and reclaiming orphans.  The key
        # is optional: blobs from before session tracking restore fine.
        state["sessions"] = sessions.snapshot_state()
    fencing = getattr(server, "fencing", None)
    if fencing is not None:
        # The leadership epoch travels with the state it protects: a
        # standby seeded from this blob (or a server restored from a
        # checkpoint file) must refuse op-log ships stamped with any
        # older epoch.  Optional key; unfenced blobs restore fine.
        state["leader_epoch"] = fencing.epoch
    # At-most-once survives the restore: without the reply cache, a client
    # whose call executed just before the drain/failure would retransmit
    # against the restored server and re-execute a non-idempotent call.
    # The cache is already budget-bounded, so the blob stays bounded too.
    with server._stats_lock:
        state["reply_cache"] = list(server._reply_cache.items())
    return state


def snapshot_server(server: "CricketServer") -> bytes:
    """Serialize the full recoverable state of a Cricket server."""
    return pickle.dumps(
        capture_server_state(server), protocol=pickle.HIGHEST_PROTOCOL
    )


def validate_checkpoint_blob(blob: bytes) -> None:
    """Structural validation of a checkpoint blob, before unpickling.

    Raises :class:`CheckpointFormatError` (with the offending offset) on
    garbage, truncation, or a stream that does not terminate -- so a torn
    file surfaces as a typed, catchable error instead of a raw
    ``UnpicklingError``/``EOFError`` from deep inside ``pickle``.
    """
    if not blob:
        raise CheckpointFormatError("empty checkpoint blob", offset=0)
    if blob[:1] != _PICKLE_MAGIC:
        raise CheckpointFormatError(
            f"bad checkpoint magic {blob[:1]!r} (expected {_PICKLE_MAGIC!r})",
            offset=0,
        )
    # A complete pickle stream ends with the STOP opcode; a torn write
    # truncates mid-stream.  pickletools walks the opcodes without
    # executing them, so this rejects truncation before any load.
    import pickletools

    try:
        for _op, _arg, _pos in pickletools.genops(blob):
            pass
    except Exception as exc:
        raise CheckpointFormatError(
            f"truncated or corrupt checkpoint stream: {exc}", offset=len(blob)
        ) from exc


def restore_server_state(server: "CricketServer", state: dict) -> None:
    """Restore a captured state dict onto ``server`` (same GPU model)."""
    if state.get("version") not in (1, FORMAT_VERSION):
        raise CheckpointFormatError(
            f"unsupported checkpoint version {state.get('version')!r}", offset=1
        )
    # Device memory (allocations at exact addresses).
    server.device.restore(state["device"])
    # Driver module/function tables.
    driver = server.driver
    driver._modules.clear()
    driver._functions.clear()
    for entry in state["modules"]:
        metadata = decode_metadata(entry["metadata"])
        image = CubinImage(arch=entry["arch"], metadata=metadata)
        module = LoadedModule(entry["handle"], image)
        module.globals = dict(entry["globals"])
        for fhandle, kernel_name in entry["functions"].items():
            driver._bind(fhandle, module, metadata.kernel(kernel_name))
        driver._modules[module.handle] = module
    import itertools

    driver._next_module = itertools.count(state["next_module"])
    driver._next_function = itertools.count(state["next_function"])
    # Library handle tables; like streams and events below, the counter
    # restarts after the largest restored handle, never at a live one.
    for context, handles in (
        (server.blas, state["blas_handles"]),
        (server.solver, state["solver_handles"]),
    ):
        context._handles = set(handles)
        context._next = itertools.count(max(handles, default=0) + 1)
    # Streams and events (virtual-time tails survive the checkpoint).
    streams = server.device.streams
    streams._streams.clear()
    for handle, (tail_ns, ops) in state["streams"].items():
        streams._streams[handle] = Stream(handle, tail_ns, ops)
    max_stream = max(state["streams"], default=0)
    streams._next_stream = iter(_count_from(max_stream + 1))
    streams._events.clear()
    for handle, timestamp in state["events"].items():
        streams._events[handle] = Event(handle, timestamp)
    max_event = max(state["events"], default=0)
    streams._next_event = iter(_count_from(max_event + 1))
    # Session table (absent in pre-session checkpoints).  Leases are
    # re-anchored at the restoring server's current time: the blob's
    # absolute expiry times belong to the old server's timeline.
    sessions = getattr(server, "sessions", None)
    if sessions is not None and "sessions" in state:
        sessions.restore_state(state["sessions"], server.clock.now_ns)
    # Leadership epoch (absent in unfenced blobs).  Adopting is one-way
    # monotonic: a fenced server restoring an *older* blob keeps its
    # newer epoch, and a leader restoring a newer one fences itself.
    fencing = getattr(server, "fencing", None)
    if fencing is not None and "leader_epoch" in state:
        fencing.observe_epoch(state["leader_epoch"])
    # Reply cache (absent in version-1 blobs).
    if "reply_cache" in state:
        from collections import OrderedDict

        with server._stats_lock:
            server._reply_cache = OrderedDict(state["reply_cache"])
            server._reply_cache_total = sum(
                len(reply) for reply in server._reply_cache.values()
            )
            server.server_stats.reply_cache_bytes = server._reply_cache_total


def restore_server(server: "CricketServer", blob: bytes) -> None:
    """Restore a checkpoint blob onto ``server`` (same GPU model required)."""
    validate_checkpoint_blob(blob)
    restore_server_state(server, pickle.loads(blob))


def _count_from(start: int):
    import itertools

    return itertools.count(start)


def save_checkpoint(server: "CricketServer", path: str) -> int:
    """Write a checkpoint file crash-consistently; returns its size in bytes.

    The blob lands in a temp file *in the same directory* (so the rename
    cannot cross filesystems), is fsynced, and is then moved into place
    with ``os.replace`` -- a crash at any point leaves either the old
    checkpoint or the new one at ``path``, never a torn hybrid.
    """
    blob = snapshot_server(server)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(blob)


def load_checkpoint(server: "CricketServer", path: str) -> None:
    """Restore a server from a checkpoint file."""
    with open(path, "rb") as fh:
        restore_server(server, fh.read())
