"""Admission precedence of ``RpcServer.dispatch_record``, as a table.

The call path is decode -> reply-cache lookup -> admit -> run.  *Admit* is
a chain of checks built when a plane is installed (pause, fence, brownout,
expiry, overload -- in that order); these tests pin what the order means:
which refusal wins when two apply, which counter moves, that a refused
call never reaches its handler and (but for the queue's CALL_CANCELLED)
is never cached.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.cricket.server import CricketServer
from repro.cricket.witness import LeadershipFence, Witness
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice
from repro.net.simclock import SimClock
from repro.oncrpc import message as msg
from repro.oncrpc.auth import AUTH_LEADER_EPOCH, call_meta_auth, client_token_auth
from repro.resilience.overload import OverloadConfig
from repro.resilience.simulation import (
    BUG_DOUBLE_EXECUTE,
    NemesisEvent,
    SimulationPlan,
    run_simulation,
)
from repro.resilience.simulation.harness import _Cluster

MIB = 1 << 20
TENANT = b"tenant"
IDENTITY = "token:" + TENANT.hex()
LEASE_S = 0.25
ALL_PLANES = ("overload", "brownout", "fence")


class Rig:
    """One server with the planes a row asks for, and the spies the rows read."""

    def __init__(self, planes=ALL_PLANES, **overload):
        self.clock = SimClock()
        self.server = CricketServer(
            [GpuDevice(A100, mem_bytes=16 * MIB)],
            clock=self.clock,
            overload=OverloadConfig(**overload) if "overload" in planes else None,
            brownout="brownout" in planes,
        )
        self.stats = self.server.server_stats
        self.fence = None
        if "fence" in planes:
            self.install_fence().lead()
        #: (xid, stat, replica_apply) per handler execution
        self.executed = []
        self.server.execution_taps.append(
            lambda identity, xid, proc, stat, replica: self.executed.append(
                (xid, stat, replica)
            )
        )
        self.xids = iter(range(1000, 2000))

    def install_fence(self):
        self.fence = LeadershipFence(
            self.server,
            Witness(self.clock, lease_s=LEASE_S),
            name="primary",
            peer_hint="standby",
        )
        return self.fence

    def record(self, name="rpc_cudaMalloc", args=(4096,), *, remaining_ns=None):
        # NULLPROC (``name=None``) is in no interface: proc 0, void
        sig = self.server.interface.signatures.get(name)
        call = msg.CallBody(
            prog=self.server.interface.prog_number,
            vers=self.server.interface.vers_number,
            proc=sig.number if sig else 0,
            cred=client_token_auth(TENANT),
            verf=call_meta_auth(remaining_ns, priority=0),  # low: brownout sheds it
            args=sig.encode_args(args) if sig else b"",
        )
        xid = next(self.xids)
        return xid, msg.RpcMessage(xid, call).encode()

    def call(self, *args, replica_apply=False, **kwargs):
        xid, record = self.record(*args, **kwargs)
        reply = self.server.dispatch_record(record, replica_apply=replica_apply)
        return xid, msg.RpcMessage.decode(reply).body

    def moved(self, before):
        """Server counters that differ from the ``before`` snapshot."""
        after = asdict(self.stats)
        return {k: after[k] - v for k, v in before.items() if after[k] != v}

    # -- conditions ---------------------------------------------------------

    def pause(self):
        self.server.pause_serving()

    def depose(self):
        self.fence.fence()  # deposed by the test

    def brown_out(self, stage=1):
        ratio = {1: 1.5, 2: 5.0}[stage]
        self.server.brownout.add_signal("test", lambda: ratio)
        assert self.server.brownout.update() == stage

    def spy(self, owner, name):
        """Count calls of ``owner.name`` (the checks resolve it per call)."""
        calls, real = [], getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        setattr(owner, name, counting)
        return calls


EXPIRED = dict(remaining_ns=0)

#: row -> (conditions, call keywords, accept_stat, the one counter that moves)
REFUSALS = {
    "paused": (["pause"], {}, msg.RPC_BUSY, "paused_rejections"),
    "fenced": (["depose"], {}, msg.RPC_NOT_LEADER, "fencing_not_leader_sheds"),
    "browned-out": (["brown_out"], {}, msg.RPC_BUSY, "brownout_sheds"),
    "expired": ([], EXPIRED, msg.CALL_EXPIRED, "deadline_expired_in_queue"),
    # pause precedes the fence: a paused server does not even ask it
    "paused+fenced": (["pause", "depose"], {}, msg.RPC_BUSY, "paused_rejections"),
    # the fence precedes brownout: not-leader whatever the priority
    "fenced+browned-out": (
        ["depose", "brown_out"], {}, msg.RPC_NOT_LEADER, "fencing_not_leader_sheds"),
    # brownout precedes expiry
    "browned-out+expired": (["brown_out"], EXPIRED, msg.RPC_BUSY, "brownout_sheds"),
    # replica_apply skips fence and brownout -- and nothing else
    "replica+paused": (
        ["depose", "brown_out", "pause"], dict(replica_apply=True),
        msg.RPC_BUSY, "paused_rejections"),
    "replica+expired": (
        ["depose", "brown_out"], dict(replica_apply=True, **EXPIRED),
        msg.CALL_EXPIRED, "deadline_expired_in_queue"),
}


@pytest.mark.parametrize("row", REFUSALS)
def test_refusal_precedence(row):
    conditions, kwargs, stat, counter = REFUSALS[row]
    rig = Rig()
    for condition in conditions:
        getattr(rig, condition)()
    before = asdict(rig.stats)
    xid, body = rig.call(**kwargs)
    assert body.stat == stat
    assert rig.moved(before) == {counter: 1}
    assert rig.executed == []
    assert (IDENTITY, xid) not in rig.server._reply_cache


def test_paused_server_does_not_consult_its_fence():
    # shed_stat has side effects -- with the lease run out it would renew
    # at the witness (or self-fence); a paused server must leave it alone
    rig = Rig()
    rig.pause()
    rig.clock.advance_s(2 * LEASE_S)
    consulted = rig.spy(rig.fence, "shed_stat")
    before = asdict(rig.stats)
    _, body = rig.call()
    assert body.stat == msg.RPC_BUSY
    assert consulted == []
    assert rig.moved(before) == {"paused_rejections": 1}
    assert rig.fence.is_leader


def test_expired_call_is_never_offered_to_the_queue():
    rig = Rig()
    offered = rig.spy(rig.server.overload, "acquire")
    _, body = rig.call(**EXPIRED)
    assert body.stat == msg.CALL_EXPIRED
    assert offered == []
    assert rig.stats.deadline_expired_in_queue == 1  # once, not once per layer


def test_replica_apply_skips_fence_and_brownout_but_not_the_queue():
    rig = Rig()
    rig.depose()
    rig.brown_out(stage=2)
    fence_asked = rig.spy(rig.fence, "shed_stat")
    brownout_asked = rig.spy(rig.server.brownout, "shed_stat")
    xid, body = rig.call(replica_apply=True)
    assert body.stat == msg.SUCCESS
    assert rig.executed == [(xid, msg.SUCCESS, True)]
    assert fence_asked == [] and brownout_asked == []

    full = Rig(max_queue_depth=0)
    full.depose()
    before = asdict(full.stats)
    _, body = full.call(replica_apply=True)
    assert body.stat == msg.RPC_BUSY
    assert full.moved(before) == {"overload_shed": 1}
    assert full.executed == []


@pytest.mark.parametrize("condition", ["pause", "depose", "brown_out"])
def test_retransmit_of_executed_call_replays_whatever_happened_since(condition):
    rig = Rig()
    xid, record = rig.record()
    first = rig.server.dispatch_record(record)
    assert rig.executed == [(xid, msg.SUCCESS, False)]
    getattr(rig, condition)()
    before = asdict(rig.stats)
    assert rig.server.dispatch_record(record) == first
    assert rig.moved(before) == {"reply_cache_hits": 1}
    assert len(rig.executed) == 1


@pytest.mark.parametrize(
    "name,args", [(None, ()), ("rpc_ping", ()), ("rpc_cancel", (7,))],
    ids=["null", "ping", "cancel"],
)
def test_exempt_procedures_execute_under_every_plane(name, args):
    rig = Rig(max_queue_depth=0)
    rig.pause()
    rig.depose()
    rig.brown_out(stage=2)
    asked = [
        rig.spy(rig.fence, "shed_stat"),
        rig.spy(rig.server.brownout, "shed_stat"),
        rig.spy(rig.server.overload, "acquire"),
        rig.spy(rig.server.overload, "release"),
    ]
    xid, body = rig.call(name, args, **EXPIRED)
    assert body.stat == msg.SUCCESS
    assert rig.executed == [(xid, msg.SUCCESS, False)]
    assert asked == [[], [], [], []]


def test_call_cancelled_in_the_queue_is_the_one_cached_refusal():
    rig = Rig()
    queue = rig.server.overload.queue
    real_offer = queue.offer

    def offer_then_cancel(*args, **kwargs):
        ticket = real_offer(*args, **kwargs)
        ticket.cancel.cancel()  # rpc_cancel lands while the call is queued
        return ticket

    queue.offer = offer_then_cancel
    xid, record = rig.record()
    before = asdict(rig.stats)
    first = rig.server.dispatch_record(record)
    assert msg.RpcMessage.decode(first).body.stat == msg.CALL_CANCELLED
    assert rig.moved(before) == {
        "cancelled_in_queue": 1,
        "queue_peak_depth": 1,  # gauges: it did queue, and it is cached
        "reply_cache_bytes": len(first),
    }
    assert rig.server._reply_cache[(IDENTITY, xid)] == first

    queue.offer = real_offer  # the retransmission is not cancelled by anyone
    assert rig.server.dispatch_record(record) == first
    assert rig.stats.reply_cache_hits == 1
    assert rig.executed == []
    assert rig.server.overload.active == 0  # no slot was taken, none leaked


def test_late_success_is_still_counted():
    rig = Rig()
    cost_ns = int(rig.server.dispatch_cost_s * 1e9)
    _, body = rig.call(remaining_ns=cost_ns // 2)  # runs out while executing
    assert body.stat == msg.SUCCESS
    assert rig.stats.deadline_expired_in_execution == 1
    assert rig.server.overload.active == 0


# -- composition: what is not installed is not on the path ---------------------


def _chain(server):
    return [check.__name__ for check in server._admission]


def test_default_server_has_no_stage_for_a_plane_it_lacks():
    assert _chain(CricketServer()) == ["_check_paused", "_check_expired"]
    assert _chain(Rig().server) == [
        "_check_paused", "_check_fence", "_check_brownout",
        "_check_expired", "_check_overload",
    ]


def test_fence_installed_after_construction_takes_effect_on_the_next_call():
    rig = Rig(planes=())
    _, body = rig.call()
    assert body.stat == msg.SUCCESS and body.verf.flavor != AUTH_LEADER_EPOCH
    rig.install_fence()  # a follower: it never led
    assert "_check_fence" in _chain(rig.server)
    _, body = rig.call()
    assert body.stat == msg.RPC_NOT_LEADER
    assert body.verf.flavor == AUTH_LEADER_EPOCH
    assert len(rig.executed) == 1


def test_a_connection_builds_its_identities_set_once():
    rig = Rig(planes=())
    session: dict = {}
    for _ in range(3):
        _, record = rig.record()
        rig.server.dispatch_record(record, client_id="10.0.0.1:4000", session=session)
        identities = session["identities"]
    assert identities is session["identities"] == {IDENTITY}
    # a call without a token is still known by its address, on the same connection
    bare = msg.RpcMessage(7, msg.CallBody(rig.server.interface.prog_number, 1, 0)).encode()
    rig.server.dispatch_record(bare, client_id="10.0.0.1:4000", session=session)
    assert identities == {IDENTITY, "10.0.0.1:4000"} and list(session) == ["identities"]


# -- the injected bug lives in the simulator, not in the serve path ------------


def test_double_execute_wrapper_doubles_a_client_call_not_a_replica_apply():
    rig = Rig(planes=())
    cluster = SimpleNamespace(leader=lambda: ("server", rig.server))
    _Cluster._apply_bug_double_execute(
        cluster, NemesisEvent(0.0, BUG_DOUBLE_EXECUTE, {"count": 1})
    )
    replica, _ = rig.call(replica_apply=True)
    _, body = rig.call("rpc_ping", ())  # exempt: not doubled, count not spent
    doubled, body = rig.call()
    after, _ = rig.call()
    assert body.stat == msg.SUCCESS
    assert [xid for xid, _, _ in rig.executed].count(replica) == 1
    assert [xid for xid, _, _ in rig.executed].count(doubled) == 2
    assert [xid for xid, _, _ in rig.executed].count(after) == 1
    assert len(rig.executed) == 5
    assert rig.server.server_stats.reply_cache_hits == 0  # the cache was bypassed, not hit


@pytest.mark.parametrize("topology", ["single", "ha_pair"])
def test_bug_double_execute_fires_two_taps_for_exactly_one_xid(topology):
    plan = SimulationPlan(topology=topology, seed=3, steps=24, nemesis_events=0)
    bug = NemesisEvent(0.3, BUG_DOUBLE_EXECUTE, {"count": 1})
    result = run_simulation(plan, [bug])
    assert "double-execution" in result.violation_kinds()
    taps: dict[tuple, int] = {}
    for event in result.events:
        if event.kind == "execute":
            key = (event.node, event.identity, event.xid, event.replica)
            taps[key] = taps.get(key, 0) + 1
    twice = [key for key, count in taps.items() if count != 1]
    assert len(twice) == 1 and taps[twice[0]] == 2
    assert twice[0][3] is False  # never a replica apply
