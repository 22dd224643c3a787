"""Unit tests for kernel-parameter packing and the GPU-sharing scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cricket.params import pack_params, unpack_params
from repro.cricket.scheduler import (
    FairSharePolicy,
    FifoPolicy,
    GpuScheduler,
    RoundRobinPolicy,
    WorkItem,
)
from repro.cubin.metadata import KernelMeta
from repro.gpu.errors import KernelParamError


class TestParamPacking:
    META = KernelMeta.from_kinds("k", ("ptr", "i32", "f32", "u64", "f64", "u32"))

    def test_roundtrip(self):
        values = (0x7F0000001000, -5, 2.5, 2**63, 3.141592653589793, 4096)
        assert unpack_params(self.META, pack_params(self.META, values)) == values

    def test_block_size_matches_meta(self):
        block = pack_params(self.META, (1, 2, 3.0, 4, 5.0, 6))
        assert len(block) == self.META.param_block_size

    def test_wrong_arity(self):
        with pytest.raises(KernelParamError):
            pack_params(self.META, (1, 2))

    def test_wrong_block_size_on_unpack(self):
        with pytest.raises(KernelParamError):
            unpack_params(self.META, b"\x00" * 4)

    def test_out_of_range_value(self):
        meta = KernelMeta.from_kinds("k", ("u32",))
        with pytest.raises(KernelParamError):
            pack_params(meta, (2**40,))

    def test_empty_params(self):
        meta = KernelMeta.from_kinds("nop", ())
        assert pack_params(meta, ()) == b""
        assert unpack_params(meta, b"") == ()

    @given(
        st.tuples(
            st.integers(0, 2**64 - 1),
            st.integers(-(2**31), 2**31 - 1),
            st.floats(width=32, allow_nan=False, allow_infinity=False),
        )
    )
    def test_property_roundtrip(self, values):
        meta = KernelMeta.from_kinds("k", ("u64", "i32", "f32"))
        out = unpack_params(meta, pack_params(meta, values))
        assert out[0] == values[0]
        assert out[1] == values[1]
        assert out[2] == pytest.approx(values[2], rel=1e-6) or out[2] == values[2]


class TestFifo:
    def test_submission_order(self):
        sched = GpuScheduler(FifoPolicy())
        items = [
            WorkItem("a", 100, 0, 1),
            WorkItem("b", 50, 0, 2),
            WorkItem("a", 25, 0, 3),
        ]
        done = sched.schedule(items)
        assert [d.item.seq for d in done] == [1, 2, 3]
        assert done[-1].end_ns == 175

    def test_device_idles_until_submission(self):
        sched = GpuScheduler(FifoPolicy())
        done = sched.schedule([WorkItem("a", 10, 1000, 1)])
        assert done[0].start_ns == 1000
        assert sched.makespan_ns() == 1010

    def test_online_submit(self):
        sched = GpuScheduler(FifoPolicy())
        first = sched.submit("a", 100, 0)
        second = sched.submit("b", 100, 0)
        assert second.start_ns == first.end_ns


class TestRoundRobin:
    def test_interleaves_clients(self):
        sched = GpuScheduler(RoundRobinPolicy())
        items = [WorkItem("a", 10, 0, i) for i in range(1, 4)] + [
            WorkItem("b", 10, 0, i) for i in range(4, 7)
        ]
        done = sched.schedule(items)
        clients = [d.item.client for d in done]
        # strict alternation once both clients have pending work
        assert clients[0] != clients[1]
        assert clients.count("a") == clients.count("b") == 3

    def test_prevents_starvation(self):
        """A client with many items cannot monopolize the device."""
        sched = GpuScheduler(RoundRobinPolicy())
        items = [WorkItem("greedy", 10, 0, i) for i in range(1, 11)]
        items.append(WorkItem("meek", 10, 0, 99))
        done = sched.schedule(items)
        meek_index = next(i for i, d in enumerate(done) if d.item.client == "meek")
        assert meek_index <= 2


class TestFairShare:
    def test_balances_usage(self):
        sched = GpuScheduler(FairSharePolicy())
        items = [WorkItem("heavy", 100, 0, i) for i in range(1, 6)] + [
            WorkItem("light", 10, 0, i) for i in range(6, 11)
        ]
        done = sched.schedule(items)
        # light's short items should not all wait behind heavy's long ones
        light_total_wait = sum(d.wait_ns for d in done if d.item.client == "light")
        sched_fifo = GpuScheduler(FifoPolicy())
        done_fifo = sched_fifo.schedule(
            [WorkItem(d.item.client, d.item.duration_ns, 0, d.item.seq) for d in done]
        )
        fifo_wait = sum(d.wait_ns for d in done_fifo if d.item.client == "light")
        assert light_total_wait < fifo_wait

    def test_weights_respected(self):
        policy = FairSharePolicy(weights={"vip": 4.0})
        sched = GpuScheduler(policy)
        items = [WorkItem("vip", 100, 0, 1), WorkItem("std", 100, 0, 2)]
        sched.schedule(items)
        # after one item each, vip's vruntime is a quarter of std's
        assert policy._vruntime("vip", sched.usage_ns) < policy._vruntime(
            "std", sched.usage_ns
        )

    def test_fairness_index(self):
        sched = GpuScheduler(FairSharePolicy())
        sched.schedule(
            [WorkItem("a", 100, 0, 1), WorkItem("b", 100, 0, 2), WorkItem("c", 100, 0, 3)]
        )
        assert sched.fairness_index() == pytest.approx(1.0)

    def test_fairness_index_empty(self):
        assert GpuScheduler().fairness_index() == 1.0


class TestHelpers:
    def test_usage_accumulates(self):
        sched = GpuScheduler()
        sched.schedule([WorkItem("a", 10, 0, 1), WorkItem("a", 15, 0, 2)])
        assert sched.usage_ns["a"] == 25

    def test_note_launch(self):
        sched = GpuScheduler()
        sched.note_launch("x")
        sched.note_launch("x")
        assert sched.launches["x"] == 2
