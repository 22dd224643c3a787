"""Tests for the checkpoint container format and the crash-consistent store."""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cricket import (
    CheckpointFormatError,
    CheckpointStore,
    CricketClient,
    CricketServer,
    FileStorage,
)
from repro.cricket.checkpoint import (
    FORMAT_VERSION,
    KIND_DELTA,
    KIND_FULL,
    capture_server_state,
    decode_container,
    encode_container,
    restore_server,
    restore_server_state,
    snapshot_server,
)
from repro.cricket.ckptstore import MemoryStorage, _generation_name
from repro.cricket.errors import CheckpointError
from repro.cricket.replication import state_fingerprint
from repro.gpu import A100, GpuDevice
from repro.net.simclock import SimClock
from repro.resilience.faults import (
    FaultyStorage,
    StorageCrashError,
    StorageFaultPlan,
)

MIB = 1 << 20


def small_server() -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=128 * MIB)])


def populated_server() -> tuple[CricketServer, CricketClient, int]:
    server = small_server()
    client = CricketClient.loopback(server)
    ptr = client.malloc(256 * 1024)
    client.memcpy_h2d(ptr, b"\x42" * 4096)
    return server, client, ptr


class TestContainerFormat:
    def test_roundtrip(self):
        sections = [("state", b"hello state"), ("extra", b"\x00" * 100)]
        blob = encode_container(KIND_FULL, 7, 0, sections)
        container = decode_container(blob)
        assert container.kind == KIND_FULL
        assert container.generation == 7
        assert container.base_generation == 0
        assert not container.is_delta
        assert container.sections["state"] == b"hello state"
        assert container.sections["extra"] == b"\x00" * 100
        assert container.manifest["sections"]["state"] == len(b"hello state")

    def test_delta_kind(self):
        blob = encode_container(KIND_DELTA, 3, 2, [("meta", b"m")])
        container = decode_container(blob)
        assert container.is_delta
        assert container.base_generation == 2

    def test_empty_blob_offset(self):
        with pytest.raises(CheckpointFormatError) as err:
            decode_container(b"")
        assert err.value.offset == 0

    def test_bad_magic_offset_zero(self):
        blob = bytearray(encode_container(KIND_FULL, 1, 0, [("state", b"x")]))
        blob[:4] = b"JUNK"
        with pytest.raises(CheckpointFormatError) as err:
            decode_container(bytes(blob))
        assert err.value.offset == 0
        assert "magic" in str(err.value)

    def test_torn_tail_offset_near_end(self):
        blob = encode_container(KIND_FULL, 1, 0, [("state", b"y" * 500)])
        torn = blob[: len(blob) // 2]
        with pytest.raises(CheckpointFormatError) as err:
            decode_container(torn)
        # a torn tail is located at/near the end of what remains
        assert err.value.offset >= len(torn) - 8

    def test_flipped_bit_is_located_midfile(self):
        blob = bytearray(encode_container(KIND_FULL, 1, 0, [("state", b"z" * 500)]))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(CheckpointFormatError) as err:
            decode_container(bytes(blob))
        # whole-file CRC catches it first, pointing at the trailer
        assert err.value.offset > 0

    def test_error_message_carries_offset(self):
        err = CheckpointFormatError("boom", offset=17)
        assert "17" in str(err)
        assert err.offset == 17


class TestBlobValidation:
    """A checkpoint blob is a container: bad input fails typed, before any load."""

    def assert_refused(self, blob: bytes) -> None:
        restored = small_server()
        with pytest.raises(CheckpointFormatError) as err:
            restore_server(restored, blob)
        assert 0 <= err.value.offset <= len(blob)
        assert restored.device.allocator.used_bytes == 0  # nothing touched

    def test_empty_blob(self):
        self.assert_refused(b"")

    def test_garbage_magic(self):
        self.assert_refused(b"not a checkpoint")

    def test_truncated_blob_offset_near_length(self):
        server, _client, _ptr = populated_server()
        blob = snapshot_server(server)
        torn = blob[: len(blob) // 2]
        with pytest.raises(CheckpointFormatError) as err:
            restore_server(small_server(), torn)
        # the torn tail is located at the end of what remains
        assert len(torn) - 8 <= err.value.offset <= len(torn)

    def test_restore_server_rejects_torn_blob_typed(self):
        server, _client, _ptr = populated_server()
        self.assert_refused(snapshot_server(server)[:-10])

    def test_valid_blob_passes(self):
        server, _client, _ptr = populated_server()
        restored = small_server()
        restore_server(restored, snapshot_server(server))
        assert state_fingerprint(restored) == state_fingerprint(server)


class TestBlobVersions:
    def test_v2_roundtrip(self):
        server, _client, ptr = populated_server()
        state = capture_server_state(server)
        assert state["version"] == FORMAT_VERSION
        restored = small_server()
        restore_server_state(restored, state)
        assert state_fingerprint(restored) == state_fingerprint(server)

    def test_unknown_version_rejected(self):
        server, _client, _ptr = populated_server()
        state = capture_server_state(server)
        state["version"] = 99
        with pytest.raises(CheckpointFormatError) as err:
            restore_server_state(small_server(), state)
        assert err.value.offset == 1


class TestAtomicSave:
    """``FileStorage.write_atomic``: the one path a checkpoint file takes."""

    def test_no_temp_files_left_behind(self, tmp_path):
        server, _client, _ptr = populated_server()
        FileStorage(str(tmp_path)).write_atomic("cricket.ckpt", snapshot_server(server))
        assert sorted(os.listdir(tmp_path)) == ["cricket.ckpt"]

    def test_failed_replace_preserves_old_checkpoint(self, tmp_path, monkeypatch):
        server, client, ptr = populated_server()
        storage = FileStorage(str(tmp_path))
        storage.write_atomic("cricket.ckpt", snapshot_server(server))
        good = storage.read("cricket.ckpt")
        client.memcpy_h2d(ptr, b"\x99" * 4096)

        def exploding_replace(src, dst):
            raise OSError("injected crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            storage.write_atomic("cricket.ckpt", snapshot_server(server))
        monkeypatch.undo()
        # the old checkpoint is untouched and no temp files linger
        assert storage.read("cricket.ckpt") == good
        assert sorted(os.listdir(tmp_path)) == ["cricket.ckpt"]
        restored = small_server()
        restore_server(restored, storage.read("cricket.ckpt"))
        client2 = CricketClient.loopback(restored)
        assert client2.memcpy_d2h(ptr, 4096) == b"\x42" * 4096


class TestCheckpointStore:
    def test_full_save_restore(self, tmp_path):
        server, _client, _ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        generation = store.save_full(server)
        assert generation == 1
        restored = small_server()
        assert CheckpointStore(str(tmp_path)).restore_latest(restored) == 1
        assert state_fingerprint(restored) == state_fingerprint(server)

    def test_delta_chain_restores_exactly(self, tmp_path):
        server, client, ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        store.save_full(server)
        client.memset(ptr + 128, 0xAB, 64)
        ptr2 = client.malloc(64 * 1024)
        client.memcpy_h2d(ptr2, b"\x11" * 1024)
        store.save_delta(server)
        client.free(ptr2)  # the next delta must drop it again
        store.save_delta(server)
        restored = small_server()
        CheckpointStore(str(tmp_path)).restore_latest(restored)
        assert state_fingerprint(restored) == state_fingerprint(server)

    def test_delta_without_base_raises(self, tmp_path):
        server, _client, _ptr = populated_server()
        with pytest.raises(CheckpointError):
            CheckpointStore(str(tmp_path)).save_delta(server)

    def test_save_picks_delta_after_full(self, tmp_path):
        server, _client, _ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        g1 = store.save(server)
        g2 = store.save(server)
        first = decode_container(store.storage.read(_generation_name(g1)))
        second = decode_container(store.storage.read(_generation_name(g2)))
        assert not first.is_delta
        assert second.is_delta
        assert second.base_generation == g1

    def test_delta_is_smaller_than_full(self, tmp_path):
        server, client, ptr = populated_server()
        client.memcpy_h2d(ptr, b"\x55" * (256 * 1024))  # bulk payload
        store = CheckpointStore(str(tmp_path))
        g1 = store.save_full(server)
        client.memset(ptr, 0x01, 16)  # dirty a single page
        g2 = store.save_delta(server)
        full_size = len(store.storage.read(_generation_name(g1)))
        delta_size = len(store.storage.read(_generation_name(g2)))
        assert delta_size < full_size

    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        server, client, ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        g1 = store.save_full(server)
        fingerprint = state_fingerprint(server)
        client.memset(ptr, 0xEE, 256)
        g2 = store.save_full(server)
        # tear the newest generation in half
        name = _generation_name(g2)
        blob = store.storage.read(name)
        path = tmp_path / name
        path.write_bytes(blob[: len(blob) // 2])
        restored = small_server()
        recovery = CheckpointStore(str(tmp_path), stats=restored.server_stats)
        assert recovery.restore_latest(restored) == g1
        assert state_fingerprint(restored) == fingerprint
        assert restored.server_stats.checkpoint_fallbacks == 1

    @pytest.mark.parametrize(
        "where", ["below-every-allocation", "overruns-its-allocation"]
    )
    def test_stray_delta_fragment_is_refused(self, tmp_path, monkeypatch, where):
        server, client, ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        g1 = store.save_full(server)
        fingerprint = state_fingerprint(server)
        client.memset(ptr, 0x33, 64)
        stray_addr = ptr - 4096 if where == "below-every-allocation" else ptr + 256 * 1024 - 8
        allocator = server.device.allocator
        real = allocator.dirty_fragments
        monkeypatch.setattr(
            allocator,
            "dirty_fragments",
            lambda pages: real(pages) + [(stray_addr, b"\x01" * 16)],
        )
        g2 = store.save_delta(server)
        recovery = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointError, match="fragment"):
            recovery.load_state(g2)
        assert recovery.load_state()[0] == g1
        restored = small_server()
        assert recovery.restore_latest(restored) == g1
        assert state_fingerprint(restored) == fingerprint

    def test_all_generations_corrupt_raises(self, tmp_path):
        server, _client, _ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        store.save_full(server)
        for name in os.listdir(tmp_path):
            (tmp_path / name).write_bytes(b"JUNK")
        with pytest.raises(CheckpointError):
            CheckpointStore(str(tmp_path)).load_state()

    def test_compaction_equivalent_and_prunes(self, tmp_path):
        server, client, ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        store.save_full(server)
        client.memset(ptr, 0x01, 32)
        store.save_delta(server)
        client.memset(ptr + 4096, 0x02, 32)
        store.save_delta(server)
        fingerprint = state_fingerprint(server)
        compacted = store.compact()
        assert store.generations() == [compacted]
        restored = small_server()
        CheckpointStore(str(tmp_path)).restore_latest(restored)
        assert state_fingerprint(restored) == fingerprint

    def test_retention_keeps_delta_bases(self, tmp_path):
        server, client, ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        base = store.save_full(server)
        for i in range(2 * store.RETAIN):
            client.memset(ptr + i * 4096, i + 1, 32)
            store.save_delta(server)
        kept = store.generations()
        # the newest RETAIN plus the transitive bases of any kept delta
        assert len(kept) > store.RETAIN
        assert base in kept  # every delta chains back to the only full
        restored = small_server()
        CheckpointStore(str(tmp_path)).restore_latest(restored)
        assert state_fingerprint(restored) == state_fingerprint(server)

    def test_failed_delta_remarks_dirty_pages(self, tmp_path):
        server, client, ptr = populated_server()
        faulty = FaultyStorage(
            FileStorage(str(tmp_path)), StorageFaultPlan(seed=1)
        )
        store = CheckpointStore(storage=faulty)
        store.save_full(server)
        client.memset(ptr, 0x77, 8192)
        dirty_before = server.device.dirty_bytes
        assert dirty_before > 0
        faulty._enospc_left = 1
        with pytest.raises(OSError):
            store.save_delta(server)
        # the failed save must not have narrowed the next checkpoint
        assert server.device.dirty_bytes == dirty_before
        generation = store.save_delta(server)
        restored = small_server()
        CheckpointStore(str(tmp_path)).restore_latest(restored)
        assert state_fingerprint(restored) == state_fingerprint(server)
        assert generation == 2


class TestStorageFaults:
    def test_torn_write_leaves_prefix(self, tmp_path):
        faulty = FaultyStorage(
            FileStorage(str(tmp_path)), StorageFaultPlan(torn_write_next=1, seed=3)
        )
        with pytest.raises(StorageCrashError):
            faulty.write_atomic("f", b"A" * 1000)
        torn = faulty.read("f")
        assert 0 < len(torn) < 1000
        assert torn == b"A" * len(torn)

    def test_arming_mid_run_faults_exactly_the_next_writes(self, tmp_path):
        clock = SimClock()
        faulty = FaultyStorage(
            FileStorage(str(tmp_path)), StorageFaultPlan(seed=3), clock=clock
        )
        faulty.arm_torn(1)
        with pytest.raises(StorageCrashError):
            faulty.write_atomic("f", b"B" * 100)
        faulty.write_atomic("f", b"only the one write tore")
        faulty.arm_slow_fsync(2, 0.25)
        faulty.arm_slow_fsync(1, 0.25)  # arming adds up...
        faulty.write_atomic("f", b"slow")
        faulty.arm_slow_fsync(0, 0.0)  # ...until the disk is replaced
        faulty.write_atomic("f", b"fast")
        assert clock.now_ns == int(0.25e9)

    def test_crash_before_rename_keeps_old(self, tmp_path):
        faulty = FaultyStorage(FileStorage(str(tmp_path)), StorageFaultPlan(seed=3))
        faulty.write_atomic("f", b"old content")
        faulty._crash_left = 1
        with pytest.raises(StorageCrashError):
            faulty.write_atomic("f", b"new content")
        assert faulty.read("f") == b"old content"

    def test_enospc_writes_nothing(self, tmp_path):
        faulty = FaultyStorage(
            FileStorage(str(tmp_path)), StorageFaultPlan(enospc_next=1, seed=3)
        )
        with pytest.raises(OSError):
            faulty.write_atomic("f", b"data")
        assert not faulty.exists("f")

    def test_bit_flip_detected_by_store(self, tmp_path):
        server, client, ptr = populated_server()
        faulty = FaultyStorage(FileStorage(str(tmp_path)), StorageFaultPlan(seed=3))
        store = CheckpointStore(storage=faulty)
        g1 = store.save_full(server)
        client.memset(ptr, 0x31, 64)
        faulty._flip_left = 1
        g2 = store.save_full(server)  # silently corrupted on disk
        assert g2 > g1
        restored = small_server()
        recovery = CheckpointStore(str(tmp_path), stats=restored.server_stats)
        assert recovery.restore_latest(restored) == g1
        assert restored.server_stats.checkpoint_fallbacks == 1

    def test_partial_read_detected(self, tmp_path):
        server, _client, _ptr = populated_server()
        store = CheckpointStore(str(tmp_path))
        store.save_full(server)
        faulty = FaultyStorage(
            FileStorage(str(tmp_path)),
            StorageFaultPlan(partial_read_next=1, seed=3),
        )
        with pytest.raises((CheckpointError, CheckpointFormatError)):
            CheckpointStore(storage=faulty).load_state()


class TestDirtyTracking:
    def test_writes_mark_pages_dirty(self):
        server, client, ptr = populated_server()
        server.device.allocator.clear_dirty()
        assert server.device.dirty_bytes == 0
        client.memset(ptr, 0x01, 64)
        assert server.device.dirty_bytes > 0

    def test_reads_do_not_mark(self):
        server, client, ptr = populated_server()
        server.device.allocator.clear_dirty()
        client.memcpy_d2h(ptr, 4096)
        assert server.device.dirty_bytes == 0

    def test_fragments_cover_only_live_allocations(self):
        server, client, _ptr = populated_server()
        ptr2 = client.malloc(64 * 1024)
        client.memcpy_h2d(ptr2, b"\x01" * 1024)
        client.free(ptr2)
        fragments = server.device.delta_fragments()
        for addr, data in fragments:
            assert not (ptr2 <= addr < ptr2 + 64 * 1024) or addr < ptr2

    def test_restore_marks_everything_dirty(self):
        server, _client, _ptr = populated_server()
        blob = snapshot_server(server)
        restored = small_server()
        restore_server(restored, blob)
        # the next delta after a restore must cover all live memory
        assert restored.device.dirty_bytes > 0


# -- hypothesis property: snapshot -> restore reproduces the fingerprint --

_OPS = st.lists(
    st.one_of(
        # allocations are at least 16 bytes so the fixed-size memset fits
        st.tuples(st.just("malloc"), st.integers(16, 64 * 1024)),
        st.tuples(st.just("memset"), st.integers(0, 255)),
        st.tuples(st.just("free"), st.integers(0, 7)),
        st.tuples(st.just("stream"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


class TestSnapshotProperty:
    @given(ops=_OPS, use_store=st.booleans())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_restore_reproduces_fingerprint(self, tmp_path_factory, ops, use_store):
        server = small_server()
        client = CricketClient.loopback(server)
        live: list[int] = []
        for op, arg in ops:
            if op == "malloc":
                live.append(client.malloc(arg))
            elif op == "memset" and live:
                client.memset(live[-1], arg, 16)
            elif op == "free" and live:
                client.free(live.pop(arg % len(live)))
            elif op == "stream":
                client.stream_create()
        fingerprint = state_fingerprint(server)
        restored = small_server()
        if use_store:
            directory = str(tmp_path_factory.mktemp("store"))
            store = CheckpointStore(directory)
            store.save_full(server)
            CheckpointStore(directory).restore_latest(restored)
        else:
            restore_server(restored, snapshot_server(server))
        assert state_fingerprint(restored) == fingerprint


# -- retention from the store's own record -------------------------------------
#
# Two differential references: MemoryStorage against FileStorage under the
# same storage faults, and the kept set a store computes from its record
# against the one a fresh store (empty record, so the read-and-decode walk)
# computes over the same storage.


class TestReadFaultDuringRetention:
    def test_short_reads_do_not_orphan_a_kept_delta(self, tmp_path):
        server, client, ptr = populated_server()
        faulty = FaultyStorage(FileStorage(str(tmp_path)), StorageFaultPlan(seed=1))
        store = CheckpointStore(storage=faulty)
        for i in range(5):
            client.memset(ptr, i + 1, 64)
            store.save(server)
        client.memset(ptr, 0x66, 64)
        faulty._short_left = 3  # the disk answers the next three reads short
        assert store.save(server) == 6
        # generation 6 is a delta chained down to the full at 1
        assert store.generations() == [1, 2, 3, 4, 5, 6]
        restored = small_server()
        assert CheckpointStore(str(tmp_path)).restore_latest(restored) == 6
        assert state_fingerprint(restored) == state_fingerprint(server)

    def test_record_forgets_what_the_store_dropped(self):
        server, client, ptr = populated_server()
        store = CheckpointStore(storage=MemoryStorage())
        for i in range(6):
            client.memset(ptr, i, 64)
            store.save(server)
        assert store._bases == {g: g - 1 for g in range(2, 7)} | {1: 0}
        generation = store.compact()
        assert store.generations() == [generation]
        assert store._bases == {generation: 0}
        for i in range(4):
            client.memset(ptr, i, 64)
            store.save_full(server)
        assert sorted(store._bases) == store.generations() == [
            generation + 2, generation + 3, generation + 4
        ]


# -- (a) MemoryStorage against FileStorage -------------------------------------

_NAMES = ("ckpt-00000001.ckpt", "ckpt-00000002.ckpt", "journal")
_TRIGGERS = ("torn", "crash", "enospc", "flip", "short", "slow")


def _storage_script(seed: int, steps: int = 200) -> list[tuple]:
    rng = random.Random(seed)
    script = []
    for _ in range(steps):
        op = rng.choice(
            ("write", "write", "read", "read", "exists", "remove", "listdir", "arm")
        )
        if op == "write":
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            script.append((op, rng.choice(_NAMES), payload))
        elif op == "arm":
            script.append((op, rng.choice(_TRIGGERS), rng.randrange(1, 3)))
        else:
            script.append((op, rng.choice(_NAMES), None))
    return script


def _arm(faulty: FaultyStorage, trigger: str, count: int) -> None:
    if trigger == "torn":
        faulty.arm_torn(count)
    elif trigger == "slow":
        faulty.arm_slow_fsync(count, 0.05)
    else:
        attr = {"crash": "_crash_left", "enospc": "_enospc_left",
                "flip": "_flip_left", "short": "_short_left"}[trigger]
        setattr(faulty, attr, getattr(faulty, attr) + count)


def _replay(inner, seed: int, script: list[tuple]):
    clock = SimClock()
    plan = StorageFaultPlan(
        seed=seed, torn_write_rate=0.05, bit_flip_rate=0.05, partial_read_rate=0.05
    )
    faulty = FaultyStorage(inner, plan, clock=clock)
    outcomes = []
    for op, name, arg in script:
        try:
            if op == "arm":
                _arm(faulty, name, arg)
                result = None
            elif op == "write":
                result = faulty.write_atomic(name, arg)
            elif op == "read":
                result = bytes(faulty.read(name))
            elif op == "exists":
                result = faulty.exists(name)
            elif op == "remove":
                result = faulty.remove(name)
            else:
                result = faulty.listdir()
            outcomes.append(("ok", result))
        except OSError as exc:  # StorageCrashError, ENOSPC, a missing file
            outcomes.append((type(exc), exc.errno))
    return outcomes, faulty.listdir(), clock.now_ns, faulty.stats.faults_injected


class TestMemoryStorageMatchesFileStorage:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_faults_same_story(self, tmp_path, seed):
        script = _storage_script(seed)
        memory = _replay(MemoryStorage(), seed, script)
        disk = _replay(FileStorage(str(tmp_path)), seed, script)
        assert memory == disk
        kinds = {kind for kind, _ in memory[0]}
        assert StorageCrashError in kinds and FileNotFoundError in kinds


# -- (b) the record's kept set against the read-and-decode walk ---------------


def _checked(store: CheckpointStore, inner, compared: list[set[int]]):
    """Make ``store`` check each kept set against a fresh store's walk."""
    retained = store._retained

    def check(generations):
        kept = retained(generations)
        walk = CheckpointStore(storage=inner)
        assert walk._bases == {}
        assert kept == walk._retained(generations), generations
        compared.append(kept)
        return kept

    store._retained = check


@pytest.mark.parametrize("seed", range(8))
def test_record_keeps_what_the_walk_keeps(seed):
    rng = random.Random(seed)
    inner = MemoryStorage()
    faulty = FaultyStorage(inner, StorageFaultPlan(seed=seed))
    compared: list[set[int]] = []
    instances = []
    for _ in range(2):  # a second instance writes to the same storage
        server, client, ptr = populated_server()
        store = CheckpointStore(storage=faulty)
        _checked(store, inner, compared)
        instances.append((store, server, client, ptr))
    for _ in range(40):
        store, server, client, ptr = rng.choice(instances)
        client.memset(ptr + rng.randrange(0, 64) * 4096, rng.randrange(256), 32)
        action = rng.choices(
            ("save", "full", "torn", "crash", "enospc", "compact"),
            (10, 2, 2, 1, 1, 1),
        )[0]
        if action == "torn":
            faulty.arm_torn(1)
        elif action == "crash":
            faulty._crash_left += 1
        elif action == "enospc":
            faulty._enospc_left += 1
        try:
            if action == "compact":
                store.compact()
            elif action == "full":
                store.save_full(server)
            else:
                store.save(server)
        except (StorageCrashError, OSError, CheckpointError):
            pass
    assert len(compared) >= 20
    # the window alone would have dropped a base some kept delta needed
    assert any(len(kept) > CheckpointStore.RETAIN for kept in compared)
