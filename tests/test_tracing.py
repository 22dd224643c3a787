"""Tests for the per-RPC tracer."""

import json

import pytest

from repro import GpuSession, SessionConfig
from repro.core.tracing import Tracer
from repro.net import SimClock
from repro.unikernel import rustyhermit

MIB = 1 << 20


@pytest.fixture()
def session():
    config = SessionConfig(platform=rustyhermit(), device_mem_bytes=64 * MIB)
    with GpuSession(config) as s:
        yield s


class TestTracer:
    def test_events_carry_timing(self):
        clock = SimClock()
        tracer = Tracer(clock)
        tracer.record("x", 0, 1000, 4, 8)
        assert tracer.events[0].duration_ns == 1000
        assert tracer.total_ns() == 1000

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(SimClock(), enabled=False)
        tracer.record("x", 0, 1, 0, 0)
        assert tracer.events == []

    def test_by_procedure_sorted_by_total(self):
        tracer = Tracer(SimClock())
        tracer.record("cheap", 0, 10, 0, 0)
        tracer.record("hot", 10, 1000, 0, 0)
        tracer.record("hot", 1000, 2000, 0, 0)
        table = tracer.by_procedure()
        assert list(table) == ["hot", "cheap"]
        assert table["hot"] == (2, 1990)

    def test_percentiles_share_histogram_semantics(self):
        from repro.resilience.health import LatencyHistogram

        tracer = Tracer(SimClock())
        now = 0
        for duration in [2_000] * 95 + [2_000_000] * 5:
            tracer.record("launch", now, now + duration, 0, 0)
            now += duration
        reference = LatencyHistogram()
        for duration in [2_000] * 95 + [2_000_000] * 5:
            reference.record(duration)
        q = tracer.percentiles()["launch"]
        assert q["p50"] == reference.p50
        assert q["p95"] == reference.p95
        assert q["p99"] == reference.p99
        assert q["p50"] < q["p99"]  # the tail is visible, the median not

    def test_summary_has_percentile_columns(self):
        tracer = Tracer(SimClock())
        tracer.record("memcpy", 0, 5_000, 16, 0)
        lines = tracer.summary().splitlines()
        assert "p50 [us]" in lines[0]
        assert "p95 [us]" in lines[0]
        assert "p99 [us]" in lines[0]
        assert lines[1] == "-" * len(lines[0])
        # 5 us falls in the (3.16, 5.62] bucket: upper bound 5623 ns
        assert "5.6" in lines[2]


class TestSessionTracing:
    def test_traces_named_procedures(self, session):
        tracer = session.enable_tracing()
        session.client.get_device_count()
        buffer = session.alloc(1024)
        buffer.write(b"\x00" * 1024)
        names = [e.name for e in tracer.events]
        assert names[0] == "rpc_cudaGetDeviceCount"
        assert "rpc_cudaMalloc" in names
        assert "rpc_cudaMemcpyH2D" in names

    def test_durations_match_virtual_clock(self, session):
        tracer = session.enable_tracing()
        start = session.clock.now_ns
        session.client.get_device_count()
        elapsed = session.clock.now_ns - start
        assert tracer.events[0].duration_ns == elapsed
        assert tracer.events[0].duration_ns > 0

    def test_payload_sizes_recorded(self, session):
        tracer = session.enable_tracing()
        buffer = session.alloc(4 * MIB)
        buffer.write(b"\x00" * (4 * MIB))
        memcpy = next(e for e in tracer.events if e.name == "rpc_cudaMemcpyH2D")
        assert memcpy.args_bytes > 4 * MIB  # payload plus dst pointer

    def test_summary_identifies_hot_procedure(self, session):
        tracer = session.enable_tracing()
        buffer = session.alloc(8 * MIB)
        buffer.write(b"\x00" * (8 * MIB))
        for _ in range(5):
            session.client.get_device_count()
        summary = tracer.summary()
        # the bulk memcpy dominates; it must be the first data row
        first_row = summary.splitlines()[2]
        assert first_row.startswith("rpc_cudaMemcpyH2D")
        assert "TOTAL" in summary

    def test_chrome_trace_export(self, session, tmp_path):
        tracer = session.enable_tracing()
        session.client.get_device_count()
        path = str(tmp_path / "trace.json")
        tracer.save_chrome_trace(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"][0]["name"] == "rpc_cudaGetDeviceCount"
        assert doc["traceEvents"][0]["ph"] == "X"
        assert doc["traceEvents"][0]["dur"] > 0

    def test_trace_total_accounts_for_rpc_time(self, session):
        tracer = session.enable_tracing()
        start = session.clock.now_ns
        for _ in range(10):
            session.client.get_device_count()
        elapsed = session.clock.now_ns - start
        assert tracer.total_ns() == pytest.approx(elapsed, rel=1e-9)
