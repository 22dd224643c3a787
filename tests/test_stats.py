"""The stats classes derive ``as_dict``/``reset`` from their fields.

The key lists below are the hand-written ``as_dict`` lists of the commit
before that derivation, in order, less the counters deleted since: the
tracer summary and every artefact that prints counters must not notice the
difference.
"""

from repro.resilience.stats import ResilienceStats, ServerStats

CLIENT_KEYS = """
    retries timeouts reconnects recoveries stale_replies_discarded
    deadlines_exceeded retries_exhausted failovers crc_rejected
    busy_rejections not_leader_rejections leader_redirects probe_rtt_last_ns
    hedged_probes endpoints_ejected endpoints_readmitted
""".split()

SERVER_KEYS = """
    reply_cache_hits reply_cache_evictions reply_cache_bytes sessions_opened
    sessions_expired sessions_reclaimed sessions_reattached bytes_reclaimed
    admission_denied quota_denied drains_completed replication_ops_shipped
    replication_ops_applied replication_full_syncs replication_lag
    standby_promotions device_failovers crc_rejected overload_shed
    deadline_expired_in_queue deadline_expired_in_execution
    cancelled_in_queue cancelled_in_flight queue_peak_depth paused_rejections
    checkpoint_generations_written checkpoint_deltas_written
    checkpoint_bytes_written checkpoint_fallbacks migration_rounds
    migration_chunks_sent migration_chunks_resent migration_chunks_duplicate
    migration_resumes migration_pause_ns migrations_completed
    migrations_aborted sanitizer_oob_writes sanitizer_oob_reads
    sanitizer_use_after_free sanitizer_double_frees sanitizer_redzone_hits
    sanitizer_leaks_reported watchdog_hangs ladder_cooperative_cancels
    ladder_stream_aborts ladder_context_resets ladder_device_failovers
    ladder_session_reclaims fencing_leases_acquired fencing_leases_renewed
    fencing_leases_expired fencing_self_fences fencing_not_leader_sheds
    fencing_stale_epoch_rejections fencing_epoch brownout_entries
    brownout_exits brownout_sheds sweeps_suspended replication_demotions
    ladder_preemptive_failovers
""".split()


def test_as_dict_keys_and_order_are_the_hand_written_ones():
    assert list(ResilienceStats().as_dict()) == CLIENT_KEYS
    assert list(ServerStats().as_dict()) == ["server." + key for key in SERVER_KEYS]
    assert len(CLIENT_KEYS) == 16 and len(SERVER_KEYS) == 62


def test_as_dict_reports_values_and_sorted_fault_kinds():
    stats = ResilienceStats(retries=3, probe_rtt_last_ns=1500)
    for kind in ("reset", "drop", "drop"):
        stats.note_fault(kind)
    out = stats.as_dict()
    assert out["retries"] == 3 and out["probe_rtt_last_ns"] == 1500
    assert list(out)[len(CLIENT_KEYS):] == ["fault.drop", "fault.reset"]
    assert out["fault.drop"] == 2 and stats.total_faults == 3
    assert ServerStats(brownout_sheds=2).as_dict()["server.brownout_sheds"] == 2


def test_reset_returns_to_a_fresh_instance():
    client = ResilienceStats(**{key: i + 1 for i, key in enumerate(CLIENT_KEYS)})
    client.note_fault("corrupt")
    faults = client.faults_injected
    client.reset()
    assert client == ResilienceStats()
    assert client.faults_injected is faults  # cleared in place: it is shared
    assert list(client.as_dict()) == CLIENT_KEYS  # no fault.<kind> key survives

    server = ServerStats(**{key: i + 1 for i, key in enumerate(SERVER_KEYS)})
    assert all(server.as_dict().values())
    server.reset()
    assert server == ServerStats()
