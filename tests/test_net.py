"""Unit tests for the simulated network and virtual clock."""

import pytest

from repro.net import LinkModel, SimClock, TETHER_100G
from repro.net.simclock import Stopwatch


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance_ns(100) == 100
        assert clock.advance_s(1e-6) == 1100
        assert clock.now_s == pytest.approx(1.1e-6)

    def test_advance_rounds_fractions(self):
        clock = SimClock()
        clock.advance_ns(0.6)
        assert clock.now_ns == 1

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_ns(-1)

    def test_advance_to_ignores_past(self):
        clock = SimClock()
        clock.advance_ns(500)
        clock.advance_to_ns(300)
        assert clock.now_ns == 500
        clock.advance_to_ns(900)
        assert clock.now_ns == 900

    def test_reset(self):
        clock = SimClock()
        clock.advance_ns(10)
        clock.reset()
        assert clock.now_ns == 0

    def test_stopwatch_span(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        with watch.measure() as span:
            clock.advance_ns(12345)
        assert span.elapsed_ns == 12345
        assert span.elapsed_s == pytest.approx(12.345e-6)


class TestLinkModel:
    def test_wire_time_scales_linearly(self):
        assert TETHER_100G.wire_time_s(0) == 0
        t1 = TETHER_100G.wire_time_s(1_000_000)
        t2 = TETHER_100G.wire_time_s(2_000_000)
        assert t2 == pytest.approx(2 * t1)

    def test_line_rate(self):
        assert TETHER_100G.line_rate_Bps == pytest.approx(12.5e9)

    def test_one_way_includes_latency(self):
        assert TETHER_100G.one_way_s(0) == pytest.approx(10e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TETHER_100G.wire_time_s(-1)

    def test_segments_mtu9000(self):
        assert TETHER_100G.segments(0) == 1
        assert TETHER_100G.segments(1) == 1
        assert TETHER_100G.segments(8960) == 1
        assert TETHER_100G.segments(8961) == 2
        assert TETHER_100G.segments(89600) == 10

    def test_custom_link(self):
        link = LinkModel("10GbE", 10e9, 50e-6, mtu=1500)
        assert link.one_way_s(12500) == pytest.approx(50e-6 + 10e-6)
