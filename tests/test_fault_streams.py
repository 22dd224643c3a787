"""Lazy fault streams against the eager ones they replace.

A fault wrapper whose window is shut builds no ``random.Random``: it
counts the draws each operation would make, and the first decision that
can fire builds the stream and replays them.  The eager wrappers below
build every stream when the wrapper is built and draw every decision of
every operation, open window or shut -- the behavior the lazy ones must
reproduce draw for draw.  They are the slow reference and live only here.

Every check drives a lazy and an eager wrapper through the same seeded
schedule of sends, receives, reconnects and window flips, and compares
what each operation did (sent, received bytes, or the error), the faults
counted, the virtual clock and the bytes that reached the inner transport.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.net.simclock import SimClock
from repro.oncrpc.errors import RpcTransportError
from repro.resilience.faults import (
    FaultInjectingTransport,
    FaultPlan,
    FaultyEndpoint,
    SlowFaultPlan,
    SlowTransport,
)
from repro.resilience.stats import ResilienceStats
from repro.xdr.encoder import flatten

SEEDS = range(150)
#: the harness's own streams, bound before any test counts constructions
Stream = random.Random


# -- the eager reference -------------------------------------------------------


class EagerFaultTransport:
    """A :class:`FaultInjectingTransport` with both streams built up front
    and every decision drawn whether or not the window is open."""

    def __init__(self, inner, plan: FaultPlan, *, clock, stats, active) -> None:
        self.inner, self.plan, self.clock, self.stats = inner, plan, clock, stats
        self.active = active
        self._rng = random.Random(plan.seed)
        self._corrupt_rng = random.Random(plan.seed ^ 0xC0FFEE)
        self._broken = False
        self._bytes_sent = 0
        self._byte_trip_armed = plan.disconnect_after_bytes is not None
        self._requests_seen = 0
        self._replies_seen = 0
        self._stash: list[bytes] = []

    def set_active(self, active: bool) -> None:
        self.active = active
        if not active:
            self._broken = False

    def _flip_byte(self, record):
        if not len(record):
            return record
        record = flatten(record)
        idx = self._corrupt_rng.randrange(len(record))
        return record[:idx] + bytes([record[idx] ^ 0x5A]) + record[idx + 1 :]

    def _broken_check(self) -> None:
        if self._broken:
            raise RpcTransportError("transport broken by injected disconnect")

    def send_record(self, record) -> None:
        self._broken_check()
        plan = self.plan
        self._requests_seen += 1
        delay_hit = self._rng.random() < plan.delay_rate
        disconnect_hit = self._rng.random() < plan.disconnect_rate
        drop_hit = self._rng.random() < plan.drop_request_rate
        corrupt_hit = self._corrupt_rng.random() < plan.corrupt_rate
        if self.active:
            if delay_hit:
                self.stats.note_fault("delay")
                self.clock.advance_s(plan.delay_s)
            if disconnect_hit:
                self.stats.note_fault("disconnect")
                self._broken = True
                raise RpcTransportError("injected disconnect during send")
            if self._byte_trip_armed and (
                self._bytes_sent + len(record) > plan.disconnect_after_bytes
            ):
                self._byte_trip_armed = False
                self.stats.note_fault("disconnect_after_bytes")
                self._broken = True
                raise RpcTransportError(
                    f"injected disconnect after {self._bytes_sent} bytes sent"
                )
            if self._requests_seen <= plan.drop_request_first or drop_hit:
                self.stats.note_fault("drop_request")
                return
            if self._requests_seen <= plan.corrupt_request_first or corrupt_hit:
                self.stats.note_fault("corrupt")
                record = self._flip_byte(record)
        self._bytes_sent += len(record)
        self.inner.send_record(record)

    def recv_record(self):
        self._broken_check()
        plan = self.plan
        if self._stash:
            return self._stash.pop(0)
        record = self.inner.recv_record()
        self._replies_seen += 1
        drop_hit = self._rng.random() < plan.drop_reply_rate
        truncate_hit = self._rng.random() < plan.truncate_rate
        duplicate_hit = self._rng.random() < plan.duplicate_rate
        corrupt_hit = self._corrupt_rng.random() < plan.corrupt_rate
        if self.active:
            if self._replies_seen <= plan.drop_reply_first or drop_hit:
                self.stats.note_fault("drop_reply")
                raise RpcTransportError("injected reply loss")
            if truncate_hit and len(record) > 4:
                self.stats.note_fault("truncate")
                return flatten(record)[: len(record) // 2]
            if self._replies_seen <= plan.corrupt_reply_first or corrupt_hit:
                self.stats.note_fault("corrupt")
                record = self._flip_byte(record)
            if duplicate_hit:
                self.stats.note_fault("duplicate")
                record = flatten(record)
                self._stash.append(record)
        return record

    def reconnect(self, *, force: bool = False) -> None:
        self.inner.reconnect(force=force)
        self._broken = False
        self._stash.clear()


class EagerSlowTransport:
    """A :class:`SlowTransport` whose stream is built up front and drawn
    on every operation."""

    def __init__(self, inner, plan: SlowFaultPlan, *, clock, stats, active) -> None:
        self.inner, self.plan, self.clock, self.stats = inner, plan, clock, stats
        self.active = active
        self._rng = random.Random(plan.seed)
        self.charged_s = 0.0

    def set_active(self, active: bool) -> None:
        self.active = active

    def _charge(self, nbytes: int) -> None:
        delay = self.plan.delay_s(self._rng, nbytes)
        if not self.active or delay <= 0.0:
            return
        self.stats.note_fault("slow")
        self.charged_s += delay
        self.clock.advance_s(delay)

    def send_record(self, record) -> None:
        self._charge(len(record))
        self.inner.send_record(record)

    def recv_record(self):
        record = self.inner.recv_record()
        self._charge(len(record))
        return record

    def reconnect(self, *, force: bool = False) -> None:
        self.inner.reconnect(force=force)


# -- the harness ---------------------------------------------------------------


class Wire:
    """An inner transport: keeps what is sent, answers from a seeded stream."""

    def __init__(self, seed: int) -> None:
        self.sent: list[bytes] = []
        self._replies = Stream(seed)

    def send_record(self, record) -> None:
        self.sent.append(bytes(record))

    def recv_record(self) -> bytearray:
        return bytearray(self._replies.randbytes(self._replies.randrange(0, 48)))

    def reconnect(self, *, force: bool = False) -> None:
        pass

    def close(self) -> None:
        pass


class Dialer:
    """A failover endpoint whose ``n``-th connection is ``Wire(n)``."""

    def __init__(self) -> None:
        self.dials = 0

    def connect(self) -> Wire:
        self.dials += 1
        return Wire(self.dials)


def random_fault_plan(rng: random.Random) -> FaultPlan:
    def rate() -> float:
        return rng.choice((0.0, 0.0, 0.05, 0.3, 0.7, 1.0))

    return FaultPlan(
        drop_request_rate=rate(),
        drop_reply_rate=rate(),
        truncate_rate=rate(),
        corrupt_rate=rate(),
        duplicate_rate=rate(),
        delay_rate=rate(),
        delay_s=rng.choice((0.0, 0.001, 0.002)),
        disconnect_rate=rng.choice((0.0, 0.0, 0.1, 0.4)),
        disconnect_after_bytes=rng.choice((None, rng.randrange(0, 600))),
        drop_request_first=rng.randrange(4),
        drop_reply_first=rng.randrange(4),
        corrupt_request_first=rng.randrange(4),
        corrupt_reply_first=rng.randrange(4),
        seed=rng.randrange(1 << 32),
    )


def random_slow_plan(rng: random.Random) -> SlowFaultPlan:
    return SlowFaultPlan(
        base_delay_s=rng.choice((0.0, 0.001)),
        jitter_s=rng.choice((0.0, 0.002)),
        spike_rate=rng.choice((0.0, 0.1, 0.5)),
        spike_s=0.01,
        throughput_Bps=rng.choice((None, 1e6)),
        seed=rng.randrange(1 << 32),
    )


def random_schedule(rng: random.Random, pipes: int = 1) -> list[tuple]:
    """Seeded operations: ``("open"|"shut",)``, ``("reconnect", pipe)``,
    ``("recv", pipe)`` or ``("send", pipe, payload)``.  The window stays
    shut for long runs, flips often, or never opens, as the seed says."""
    flip_rate = rng.choice((0.0, 0.02, 0.1, 0.3))
    ops: list[tuple] = []
    for _ in range(rng.randrange(20, 90)):
        pipe = rng.randrange(pipes)
        roll = rng.random()
        if roll < flip_rate:
            ops.append((rng.choice(("open", "shut")),))
        elif roll < flip_rate + 0.08:
            ops.append(("reconnect", pipe))
        elif roll < 0.55:
            ops.append(("send", pipe, rng.randbytes(rng.randrange(0, 64))))
        else:
            ops.append(("recv", pipe))
    return ops


def drive(pipes, set_active, schedule) -> list[tuple]:
    """Run ``schedule`` and return what each operation did."""
    outcomes: list[tuple] = []
    for op in schedule:
        kind = op[0]
        if kind in ("open", "shut"):
            set_active(kind == "open")
            continue
        pipe = pipes[op[1]]
        try:
            if kind == "reconnect":
                pipe.reconnect()
                outcomes.append(("reconnected",))
            elif kind == "send":
                pipe.send_record(bytearray(op[2]))
                outcomes.append(("sent",))
            else:
                outcomes.append(("received", bytes(pipe.recv_record())))
        except RpcTransportError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes


def run(pipes, set_active, schedule, clock, stats) -> dict:
    return {
        "outcomes": drive(pipes, set_active, schedule),
        "faults": stats.as_dict(),
        "clock_ns": clock.now_ns,
        "wire": [pipe.inner.sent for pipe in pipes],
        "charged_s": [getattr(pipe, "charged_s", None) for pipe in pipes],
    }


LAZY = {"fault": FaultInjectingTransport, "slow": SlowTransport}
EAGER = {"fault": EagerFaultTransport, "slow": EagerSlowTransport}
PLANS = {"fault": random_fault_plan, "slow": random_slow_plan}


# -- the checks ----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(LAZY))
def test_one_transport_matches_the_eager_reference(kind):
    for seed in SEEDS:
        rng = Stream(seed)
        plan = PLANS[kind](rng)
        active = rng.random() < 0.5
        schedule = random_schedule(rng)

        def side(cls, flip):
            clock, stats = SimClock(), ResilienceStats()
            pipe = cls(Wire(seed), plan, clock=clock, stats=stats, active=active)
            return run([pipe], lambda on: flip(pipe, on), schedule, clock, stats)

        lazy = side(LAZY[kind], lambda pipe, on: setattr(pipe, "active", on))
        eager = side(EAGER[kind], lambda pipe, on: pipe.set_active(on))
        assert lazy == eager, f"seed {seed}: {plan}"


@pytest.mark.parametrize("kind", sorted(LAZY))
def test_endpoint_connections_match_plans_built_per_connection(kind):
    # connection n of an endpoint draws what a transport built the old
    # way, on replace(plan, seed=plan.seed + n), draws; one set_active
    # reaches every pipe.
    for seed in SEEDS:
        rng = Stream(seed)
        plan = PLANS[kind](rng)
        active = rng.random() < 0.5
        count = rng.randrange(1, 4)
        schedule = random_schedule(rng, pipes=count)

        clock, stats = SimClock(), ResilienceStats()
        endpoint = FaultyEndpoint(Dialer(), plan, clock=clock, stats=stats, active=active)
        pipes = [endpoint.connect() for _ in range(count)]
        assert all(pipe.plan is plan for pipe in pipes)
        lazy = run(pipes, endpoint.set_active, schedule, clock, stats)

        clock, stats = SimClock(), ResilienceStats()
        pipes = [
            EAGER[kind](
                Wire(n + 1), replace(plan, seed=plan.seed + n),
                clock=clock, stats=stats, active=active,
            )
            for n in range(count)
        ]

        def set_active(on, pipes=pipes):
            for pipe in pipes:
                pipe.set_active(on)

        eager = run(pipes, set_active, schedule, clock, stats)
        assert lazy == eager, f"seed {seed}: {plan}"


def test_a_window_that_never_opens_builds_no_stream(monkeypatch):
    built: list[int] = []

    class Counted(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)  # what the wrappers build
    # the simulator's stack: a fault endpoint over a limplock endpoint
    slow = FaultyEndpoint(Dialer(), SlowFaultPlan(jitter_s=0.002, seed=3), active=False)
    endpoint = FaultyEndpoint(
        slow, FaultPlan(drop_request_rate=0.5, corrupt_rate=0.5, seed=7), active=False
    )
    pipes = [endpoint.connect() for _ in range(5)]
    for pipe in pipes:
        for _ in range(4):
            pipe.send_record(bytearray(b"call"))
            pipe.recv_record()
    assert built == []
    # the window opens: the next operation of a pipe builds its streams
    endpoint.set_active(True)
    slow.set_active(True)
    pipes[2].recv_record()
    assert sorted(built) == sorted([9, 9 ^ 0xC0FFEE, 5])
