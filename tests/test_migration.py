"""Tests for resumable live migration and the ``migration`` nemesis profile."""

import struct

import pytest

from repro.cricket import (
    CricketClient,
    CricketServer,
    FaultyMigrationChannel,
    LoopbackMigrationChannel,
    MigrationSource,
    MigrationTarget,
    migrate_live,
)
from repro.cricket.errors import (
    ChunkRejectedError,
    MigrationChannelError,
    MigrationError,
)
from repro.cricket.migration import (
    KIND_BEGIN,
    KIND_FRAGS,
    decode_chunk,
    encode_chunk,
)
from repro.cricket.replication import state_fingerprint
from repro.gpu import A100, GpuDevice
from repro.resilience.failover import LoopbackEndpoint
from repro.resilience.retry import RetryPolicy
from repro.resilience.simulation import (
    MIGRATE,
    NemesisEvent,
    profile_plan,
    run_simulation,
)

MIB = 1 << 20


def small_server() -> CricketServer:
    return CricketServer([GpuDevice(A100, mem_bytes=128 * MIB)])


def populated(allocs: int = 5, size: int = 128 * 1024):
    server = small_server()
    client = CricketClient.loopback(server)
    ptrs = []
    for i in range(allocs):
        ptr = client.malloc(size)
        client.memcpy_h2d(ptr, bytes([i + 1]) * min(size, 4096))
        ptrs.append(ptr)
    return server, client, ptrs


class TestChunkFormat:
    def test_roundtrip(self):
        blob = encode_chunk(KIND_FRAGS, 3, 1, b"payload")
        chunk = decode_chunk(blob)
        assert chunk.kind == KIND_FRAGS
        assert chunk.seq == 3
        assert chunk.round == 1
        assert chunk.payload == b"payload"

    def test_corrupt_chunk_rejected(self):
        blob = bytearray(encode_chunk(KIND_BEGIN, 1, 0, b"x" * 64))
        blob[8] ^= 0xFF
        with pytest.raises(ChunkRejectedError):
            decode_chunk(bytes(blob))

    def test_truncated_chunk_rejected(self):
        blob = encode_chunk(KIND_BEGIN, 1, 0, b"x" * 64)
        with pytest.raises(ChunkRejectedError):
            decode_chunk(blob[:10])


class TestLiveMigration:
    def test_loopback_migration_preserves_state(self):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        assert report.completed and not report.aborted
        assert state_fingerprint(target.server) == fingerprint
        assert source.killed  # cutover kills the source
        assert report.pause_ns <= MigrationSource.PAUSE_BUDGET_NS

    def test_precopy_rounds_shrink_the_pause(self):
        source, client, ptrs = populated(allocs=8, size=256 * 1024)
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        # pre-copy shipped the bulk; the pause covered only the residual
        assert report.precopy_bytes > report.stop_copy_bytes
        assert report.rounds >= 2

    def test_disconnect_resumes_from_cursor(self, tmp_path):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(target), disconnect_before={3}
        )
        mig = MigrationSource(source, storage=str(tmp_path))
        report = migrate_live(mig, target, channel)
        assert report.completed
        assert report.resumes == 1
        # the counters prove a resume, not a restart: duplicates stay 0
        # because redelivery starts exactly after the last ack
        assert target.server.server_stats.migration_chunks_duplicate == 0
        assert state_fingerprint(target.server) == fingerprint

    def test_corrupt_chunk_naks_and_retransmits(self):
        source, _client, _ptrs = populated()
        fingerprint = state_fingerprint(source)
        target = MigrationTarget(small_server())
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(target), corrupt_sends={2}
        )
        report = migrate_live(MigrationSource(source), target, channel)
        assert report.completed
        assert report.chunks_resent >= 1
        assert report.resumes == 0  # a NAK is handled in-band
        assert state_fingerprint(target.server) == fingerprint

    def test_target_kill_recovers_from_journal(self, tmp_path):
        source, _client, _ptrs = populated(allocs=6, size=192 * 1024)
        fingerprint = state_fingerprint(source)
        mig = MigrationSource(source, storage=str(tmp_path))
        first = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = FaultyMigrationChannel(
            LoopbackMigrationChannel(first), disconnect_before={4}
        )
        with pytest.raises(MigrationChannelError):
            mig.start(channel)
            mig.run_precopy(channel)
            mig.stop_and_copy(channel)
        # the target process dies; a fresh one recovers from the journal
        second = MigrationTarget(small_server(), storage=str(tmp_path))
        acked = second.recover()
        assert acked == mig.acked  # journal-before-ack: nothing acked is lost
        channel2 = LoopbackMigrationChannel(second)
        mig.resume(channel2, receiver_acked=acked)
        if mig.phase == "precopy":
            mig.run_precopy(channel2)
        mig.stop_and_copy(channel2)
        second.finalize()
        mig.cutover()
        assert state_fingerprint(second.server) == fingerprint
        assert mig.report.resumes == 1

    def test_journal_recovery_drops_torn_tail(self, tmp_path):
        source, _client, _ptrs = populated()
        mig = MigrationSource(source)
        target = MigrationTarget(small_server(), storage=str(tmp_path))
        channel = LoopbackMigrationChannel(target)
        mig.start(channel)
        acked = target.last_acked
        # simulate the append a crash interrupted: a torn trailing record
        with open(tmp_path / "migration.journal", "ab") as fh:
            fh.write(struct.pack(">I", 500) + b"torn")
        recovered = MigrationTarget(small_server(), storage=str(tmp_path))
        assert recovered.recover() == acked

    def test_duplicate_chunks_are_absorbed(self):
        source, _client, _ptrs = populated(allocs=2)
        target = MigrationTarget(small_server())
        channel = LoopbackMigrationChannel(target)
        mig = MigrationSource(source)
        mig.start(channel)
        blob = encode_chunk(KIND_BEGIN, 1, 0, b"ignored-duplicate")
        assert target.receive(blob) == target.last_acked
        assert target.server.server_stats.migration_chunks_duplicate == 1

    def test_chunk_gap_is_rejected(self):
        target = MigrationTarget(small_server())
        with pytest.raises(MigrationError):
            target.receive(encode_chunk(KIND_FRAGS, 5, 0, b"out of order"))

    def test_pause_budget_exceeded_aborts_and_source_serves(self):
        source, client, ptrs = populated(allocs=4, size=MIB)
        target = MigrationTarget(small_server())
        mig = MigrationSource(source)
        mig.PAUSE_BUDGET_NS = 1  # any pause is over budget
        with pytest.raises(MigrationError):
            migrate_live(mig, target)
        assert mig.report.aborted
        assert not source.serving_paused
        assert not source.killed
        # the source still answers after the abort
        ptr = client.malloc(4096)
        client.memcpy_h2d(ptr, b"\x07" * 64)
        assert client.memcpy_d2h(ptr, 64) == b"\x07" * 64

    def test_serving_paused_sheds_nonexempt_calls(self):
        source, client, _ptrs = populated(allocs=1)
        source.pause_serving()
        from repro.cuda.errors import CudaError

        with pytest.raises((CudaError, Exception)):
            client.malloc(4096)
        source.resume_serving()
        assert client.malloc(4096) > 0

    def test_cutover_rotates_failover_clients(self):
        source, _client, ptrs = populated()
        target = MigrationTarget(small_server())
        report = migrate_live(MigrationSource(source), target)
        assert report.completed
        verifier = CricketClient.failover(
            [
                LoopbackEndpoint(source, name="source"),
                LoopbackEndpoint(target.server, name="target"),
            ],
            retry_policy=RetryPolicy(max_attempts=6),
        )
        assert verifier.memcpy_d2h(ptrs[0], 64) == bytes([1]) * 64
        assert verifier.stats.failovers >= 1

    def test_reply_cache_travels_with_migration(self):
        from repro.oncrpc import message as msg
        from repro.oncrpc.auth import client_token_auth

        source, _client, _ptrs = populated(allocs=1)
        call = msg.CallBody(
            prog=source.interface.prog_number,
            vers=source.interface.vers_number,
            proc=source.interface.signatures["rpc_cudaMalloc"].number,
            cred=client_token_auth(b"at-most-once"),
            args=(1 << 12).to_bytes(8, "big"),
        )
        record = msg.RpcMessage(77, call).encode()
        original = source.dispatch_record(record)
        target = MigrationTarget(small_server())
        migrate_live(MigrationSource(source), target)
        migrated = target.server
        used_before = sum(d.allocator.used_bytes for d in migrated.devices)
        replay = migrated.dispatch_record(record)
        used_after = sum(d.allocator.used_bytes for d in migrated.devices)
        assert replay == original  # cached, byte-identical
        assert used_after == used_before  # no re-execution

    def test_allocation_freed_after_shipping_is_dropped(self):
        source, client, ptrs = populated(allocs=3)
        target = MigrationTarget(small_server())
        channel = LoopbackMigrationChannel(target)
        mig = MigrationSource(source)
        mig.start(channel)  # round 0 ships every allocation's pages
        assert any(addr == ptrs[1] for addr, _data in target.fragments)
        client.free(ptrs[1])  # freed after its pages were shipped
        mig.stop_and_copy(channel)
        target.finalize()
        mig.cutover()
        live = [a.addr for a in target.server.device.allocator.live_allocations()]
        assert ptrs[1] not in live
        assert live == [ptrs[0], ptrs[2]]
        assert state_fingerprint(target.server) == state_fingerprint(source)

    def test_abort_sends_abort_chunk_and_resumes_serving(self):
        source, client, _ptrs = populated(allocs=1)
        target = MigrationTarget(small_server())
        channel = LoopbackMigrationChannel(target)
        mig = MigrationSource(source)
        mig.start(channel)
        mig.abort(channel)
        assert target.aborted
        assert not source.serving_paused
        assert client.malloc(1024) > 0


class TestMigrationProfile:
    """The ``migration`` nemesis profile on the simulator."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_schedule_is_clean(self, profile_run, seed):
        result = profile_run("migration", seed)
        assert result.clean, result.violations
        move = result.facts("migration")
        assert move["completed"] and not move["diverged"]
        assert move["faults"] >= 3  # two disconnects and the torn journal append
        assert move["resumes"] > 0
        assert move["target_recoveries"] == 1
        assert move["begin_deliveries"] == 1  # never restarted from chunk one
        assert move["duplicates"] == 0
        assert move["pause_ns"] <= move["pause_budget_ns"]
        assert result.facts("torn_generation")["fell_back"]
        # the post-cutover retransmit hit the migrated reply cache
        assert result.counters["server.reply_cache_hits"] >= 1

    def test_fault_free_control(self):
        result = run_simulation(
            profile_plan("migration", 0),
            schedule=[NemesisEvent(6.0, MIGRATE, {"disconnect_at": []})],
        )
        assert result.clean, result.violations
        move = result.facts("migration")
        assert move["completed"] and move["begin_deliveries"] == 1
        assert move["faults"] == move["resumes"] == move["target_recoveries"] == 0

    def test_kill_target_requires_a_disconnect(self):
        # the target kill rides on the first wire fault; with none
        # scheduled it never fires
        result = run_simulation(
            profile_plan("migration", 0),
            schedule=[NemesisEvent(6.0, MIGRATE, {"kill_target": True})],
        )
        assert result.clean, result.violations
        assert result.facts("migration")["target_recoveries"] == 0
