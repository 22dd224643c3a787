"""Split-brain protection: witness leases, epoch fencing, partition chaos.

Exercises the whole fencing stack: the witness's lease/epoch arbitration,
the server-side leadership fence (shed, renew, self-fence, demote), epoch
stamping on op-log ships and checkpoints, the failover client's epoch
awareness (redirects, stale-endpoint marks), the partition fault model,
and the end-to-end ``partition_*`` nemesis profiles across every cut shape --
zero double executions, zero lost acknowledged writes, at most one
mutation-accepting server per epoch, and a provably fenced ex-primary.
"""

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.ckptstore import CheckpointStore
from repro.cricket.checkpoint import (
    capture_server_state,
    decode_container,
    restore_server_state,
)
from repro.cricket.replication import (
    ReplicationLink,
    make_ha_pair,
    promote_with_witness,
)
from repro.cricket.witness import (
    LeadershipFence,
    LeadershipRefused,
    StaleEpochError,
    Witness,
    WitnessUnreachableError,
)
from repro.net.simclock import SimClock
from repro.oncrpc import message as msg
from repro.oncrpc.auth import leader_epoch_auth, leader_epoch_from
from repro.oncrpc.errors import RpcNotLeaderError, RpcTransportError
from repro.resilience import (
    FailoverTransport,
    LoopbackEndpoint,
    PartitionPlan,
    PartitionState,
    PartitionWindow,
    RetryPolicy,
)
from repro.resilience.simulation import PARTITION_SHAPES, SimulationPlan

MB = 1 << 20


def fenced_pair():
    """A fenced HA pair sharing ONE clock (as real deployments share time)."""
    clock = SimClock()
    primary = CricketServer(clock=clock)
    standby = CricketServer(clock=clock)
    link, endpoints = make_ha_pair(primary, standby)
    return clock, primary, standby, link, endpoints


# -- the witness ----------------------------------------------------------


class TestWitness:
    def test_first_acquire_grants_epoch_one(self):
        witness = Witness(SimClock())
        lease = witness.acquire("a")
        assert lease.epoch == 1 and lease.holder == "a"
        assert witness.leader() == "a"

    def test_incumbent_reacquire_is_renewal_same_epoch(self):
        witness = Witness(SimClock())
        witness.acquire("a")
        lease = witness.acquire("a")
        assert lease.epoch == 1
        assert witness.renewals == 1 and witness.grants == 1

    def test_challenger_refused_while_lease_live(self):
        witness = Witness(SimClock(), lease_s=1.0)
        witness.acquire("a")
        with pytest.raises(LeadershipRefused) as exc_info:
            witness.acquire("b")
        assert exc_info.value.epoch == 1
        assert exc_info.value.holder == "a"
        assert witness.refusals == 1

    def test_challenger_granted_next_epoch_after_expiry(self):
        clock = SimClock()
        witness = Witness(clock, lease_s=0.1)
        witness.acquire("a")
        clock.advance_s(0.2)
        lease = witness.acquire("b")
        assert lease.epoch == 2 and witness.leader() == "b"

    def test_epoch_never_reused(self):
        clock = SimClock()
        witness = Witness(clock, lease_s=0.1)
        epochs = []
        for holder in ("a", "b", "a", "b"):
            clock.advance_s(0.2)
            epochs.append(witness.acquire(holder).epoch)
        assert epochs == sorted(set(epochs))  # strictly increasing

    def test_renew_extends_lease(self):
        clock = SimClock()
        witness = Witness(clock, lease_s=0.1)
        witness.acquire("a")
        clock.advance_s(0.05)
        witness.renew("a", 1)
        clock.advance_s(0.08)  # beyond the original expiry, not the renewed
        assert witness.leader() == "a"

    def test_renew_after_expiry_ok_if_epoch_unchanged(self):
        # a quiet leader is not forced into re-election: nobody else was
        # granted in the gap, so extending epoch 1 is safe
        clock = SimClock()
        witness = Witness(clock, lease_s=0.1)
        witness.acquire("a")
        clock.advance_s(1.0)
        lease = witness.renew("a", 1)
        assert lease.epoch == 1 and witness.leader() == "a"

    def test_renew_refused_once_superseded(self):
        clock = SimClock()
        witness = Witness(clock, lease_s=0.1)
        witness.acquire("a")
        clock.advance_s(0.2)
        witness.acquire("b")  # epoch 2
        with pytest.raises(LeadershipRefused) as exc_info:
            witness.renew("a", 1)
        assert exc_info.value.epoch == 2 and exc_info.value.holder == "b"

    def test_link_filter_models_partition(self):
        witness = Witness(SimClock())
        witness.link_filter = lambda holder: holder != "a"
        with pytest.raises(WitnessUnreachableError):
            witness.acquire("a")
        assert witness.acquire("b").epoch == 1


# -- the leadership fence -------------------------------------------------


class TestLeadershipFence:
    def make_fence(self, lease_s=0.25):
        clock = SimClock()
        server = CricketServer(clock=clock)
        witness = Witness(clock, lease_s=lease_s)
        fence = LeadershipFence(
            server,
            witness,
            name="primary",
            peer_hint="standby",
        )
        return clock, server, witness, fence

    def mutating_proc(self, server):
        return server.interface.signatures["rpc_cudaMalloc"].number

    def reading_proc(self, server):
        return server.interface.signatures["rpc_cudaGetDeviceCount"].number

    def test_installs_as_server_fencing(self):
        _clock, server, _witness, fence = self.make_fence()
        assert server.fencing is fence

    def test_follower_sheds_mutations_reads_drain(self):
        # (an old name) a follower refuses reads as it refuses mutations
        clock, server, _witness, fence = self.make_fence()
        assert (
            fence.shed_stat(self.mutating_proc(server), clock.now_ns)
            == msg.RPC_NOT_LEADER
        )
        assert (
            fence.shed_stat(self.reading_proc(server), clock.now_ns)
            == msg.RPC_NOT_LEADER
        )
        assert server.server_stats.fencing_not_leader_sheds == 2

    def test_leader_serves_and_records_epoch(self):
        clock, server, _witness, fence = self.make_fence()
        fence.lead()
        assert fence.shed_stat(self.mutating_proc(server), clock.now_ns) is None
        assert fence.epochs_served == {1}
        assert server.server_stats.fencing_epoch == 1

    def test_expired_lease_renews_through_witness(self):
        clock, server, witness, fence = self.make_fence(lease_s=0.1)
        fence.lead()
        clock.advance_s(0.2)
        assert fence.shed_stat(self.mutating_proc(server), clock.now_ns) is None
        assert fence.is_leader
        assert witness.renewals == 1
        assert server.server_stats.fencing_leases_renewed == 1

    def test_expired_lease_with_witness_cut_self_fences(self):
        clock, server, witness, fence = self.make_fence(lease_s=0.1)
        fence.lead()
        witness.link_filter = lambda holder: False
        clock.advance_s(0.2)
        assert (
            fence.shed_stat(self.mutating_proc(server), clock.now_ns)
            == msg.RPC_NOT_LEADER
        )
        assert not fence.is_leader
        assert server.server_stats.fencing_self_fences == 1
        assert server.server_stats.fencing_leases_expired == 1

    def test_superseded_renewal_adopts_newer_epoch(self):
        clock, server, witness, fence = self.make_fence(lease_s=0.1)
        fence.lead()
        clock.advance_s(0.2)
        witness.acquire("standby")  # epoch 2 granted away
        stat = fence.shed_stat(self.mutating_proc(server), clock.now_ns)
        assert stat == msg.RPC_NOT_LEADER
        assert fence.epoch == 2 and not fence.is_leader

    def test_observe_higher_epoch_demotes_leader(self):
        _clock, _server, _witness, fence = self.make_fence()
        fence.lead()
        fence.observe_epoch(5, hint="standby")
        assert not fence.is_leader
        assert fence.epoch == 5 and fence.peer_hint == "standby"

    def test_observe_lower_epoch_is_ignored(self):
        _clock, _server, _witness, fence = self.make_fence()
        fence.lead()
        fence.observe_epoch(0)
        assert fence.is_leader and fence.epoch == 1

    def test_unreachable_standby_with_witness_blessing_detaches(self):
        clock, server, witness, fence = self.make_fence()
        fence.lead()

        class FakeLink:
            attached = True

            def reachable(self):
                return False

            def detach(self):
                self.attached = False

        fence.link = FakeLink()
        assert fence.shed_stat(self.mutating_proc(server), clock.now_ns) is None
        assert not fence.link.attached  # witness-blessed solo

    def test_unreachable_standby_and_witness_sheds_busy(self):
        clock, server, witness, fence = self.make_fence()
        fence.lead()
        witness.link_filter = lambda holder: False

        class FakeLink:
            attached = True

            def reachable(self):
                return False

            def detach(self):  # pragma: no cover - must not happen
                raise AssertionError("detached without witness blessing")

        fence.link = FakeLink()
        # the mutation cannot replicate and the witness cannot bless a
        # solo: never acknowledge it
        assert (
            fence.shed_stat(self.mutating_proc(server), clock.now_ns)
            == msg.RPC_BUSY
        )
        assert 1 not in fence.epochs_served or not fence.epochs_served

    def test_fence_pauses_session_reaping_lead_resumes(self):
        _clock, server, _witness, fence = self.make_fence()
        fence.lead()
        assert not server.sessions.reaping_paused
        fence.fence("test")
        assert server.sessions.reaping_paused
        fence.lead()
        assert not server.sessions.reaping_paused

    def test_reply_verf_roundtrip(self):
        _clock, _server, _witness, fence = self.make_fence()
        fence.lead()
        info = leader_epoch_from(fence.reply_verf())
        assert info.epoch == 1 and info.leader and info.hint == "primary"
        fence.fence("demoted")
        info = leader_epoch_from(fence.reply_verf())
        assert not info.leader and info.hint == "standby"

    def test_verf_decode_tolerates_other_flavors(self):
        from repro.oncrpc.auth import NULL_AUTH

        assert leader_epoch_from(NULL_AUTH) is None
        assert leader_epoch_from(leader_epoch_auth(3, True, "x")).epoch == 3


# -- partition fault model ------------------------------------------------


class TestPartitionModel:
    def test_window_blocks_across_groups_only(self):
        window = PartitionWindow(0.0, 1.0, groups=(("a",), ("b", "c")))
        assert window.blocks("a", "b") and window.blocks("b", "a")
        assert not window.blocks("b", "c")
        # unlisted nodes form the rest group: connected to each other,
        # cut from every named group
        assert not window.blocks("x", "y")
        assert window.blocks("x", "a")

    def test_window_oneway_is_directional(self):
        window = PartitionWindow(0.0, 1.0, oneway=(("s", "c"),))
        assert window.blocks("s", "c")
        assert not window.blocks("c", "s")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PartitionWindow(1.0, 0.5)
        with pytest.raises(ValueError):
            PartitionWindow(0.0, 1.0, groups=(("a",), ("a", "b")))

    def test_state_is_clock_driven(self):
        clock = SimClock()
        plan = PartitionPlan(
            windows=(PartitionWindow(0.1, 0.2, groups=(("a",),)),)
        )
        state = PartitionState(plan, clock)
        assert state.allowed("a", "b")
        clock.advance_s(0.15)
        assert not state.allowed("a", "b")
        clock.advance_s(0.1)  # window closed
        assert state.allowed("a", "b")
        assert state.blocked == 1

    def test_endpoint_gate_blocks_connect_and_request(self):
        clock = SimClock()
        server = CricketServer(clock=clock)
        state = PartitionState(
            PartitionPlan(windows=(PartitionWindow(0.0, 1.0, groups=(("s",),)),)),
            clock,
        )
        endpoint = LoopbackEndpoint(server, name="s", link=state, client_name="c")
        with pytest.raises(RpcTransportError):
            endpoint.connect()
        clock.advance_s(2.0)
        client = CricketClient.failover([endpoint], clock=clock)
        assert client.malloc(4096) > 0

    def test_asymmetric_cut_executes_but_loses_reply(self):
        # the worst case for at-most-once: the call runs, the reply dies.
        # The window opens *after* the connection is up, the directional
        # cut only kills server->client traffic.
        clock = SimClock()
        server = CricketServer(clock=clock)
        state = PartitionState(
            PartitionPlan(
                windows=(PartitionWindow(1.0, 10.0, oneway=(("s", "c"),)),)
            ),
            clock,
        )
        endpoint = LoopbackEndpoint(server, name="s", link=state, client_name="c")
        client = CricketClient.failover([endpoint], clock=clock)
        client.ping()
        clock.advance_s(2.0)  # into the window
        with pytest.raises(RpcTransportError):
            client.malloc(1 * MB)
        assert server.device.allocator.used_bytes == 1 * MB  # executed!


# -- epoch-fenced replication ---------------------------------------------


class TestEpochFencedReplication:
    def test_make_ha_pair_is_fenced_by_default(self):
        _clock, primary, standby, link, _eps = fenced_pair()
        assert primary.fencing.is_leader
        assert not standby.fencing.is_leader
        assert link.witness.leader() == "primary"

    def test_ships_apply_on_fenced_standby(self):
        # the follower's fence must not shed the leader's replicated ops
        _clock, primary, standby, link, _eps = fenced_pair()
        client = CricketClient.loopback(primary)
        ptr = client.malloc(1 * MB)
        client.memcpy_h2d(ptr, b"\x21" * 64)
        assert link.lag == 0
        assert standby.device.allocator.used_bytes == 1 * MB
        assert standby.server_stats.fencing_not_leader_sheds == 0
        assert len(standby._reply_cache) == 2  # at-most-once replicated too

    def test_standby_connect_does_not_promote_while_lease_live(self):
        _clock, primary, standby, _link, endpoints = fenced_pair()
        client = CricketClient.failover(
            [endpoints[1], endpoints[0]],  # standby first: connect hook fires
            retry_policy=RetryPolicy(max_attempts=8),
        )
        ptr = client.malloc(4096)
        assert ptr > 0
        # the connect hook ran but the witness refused: no promotion, the
        # mutation was shed with NOT_LEADER and redirected to the primary
        assert not standby.fencing.is_leader
        assert standby.server_stats.standby_promotions == 0
        assert primary.device.allocator.used_bytes == 4096
        assert client.stats.not_leader_rejections >= 1
        assert client.stats.leader_redirects >= 1

    def test_unfenced_escape_hatch_promotes_on_connect(self):
        primary = CricketServer(clock=SimClock())
        standby = CricketServer(clock=SimClock())
        _link, endpoints = make_ha_pair(primary, standby, unfenced=True)
        endpoints[1].connect()
        assert standby.server_stats.standby_promotions == 1

    def test_stale_epoch_ship_rejected_and_primary_demoted(self):
        _clock, primary, standby, link, _eps = fenced_pair()
        client = CricketClient.loopback(primary)
        client.malloc(4096)
        # the standby learns of a newer leader out-of-band (e.g. a
        # checkpoint from epoch 7); the next ship from epoch 1 is stale
        standby.fencing.observe_epoch(7)
        client.malloc(4096)  # executes, ships, ship refused
        assert standby.server_stats.fencing_stale_epoch_rejections == 1
        assert not link.attached
        assert not primary.fencing.is_leader  # demoted on the spot
        assert primary.fencing.epoch == 7
        with pytest.raises(RpcNotLeaderError):
            client.malloc(4096)  # next mutation is shed

    def test_demoted_primary_cannot_reattach_without_fresh_epoch(self):
        clock = SimClock()
        primary = CricketServer(clock=clock)
        standby = CricketServer(clock=clock)
        witness = Witness(clock)
        pf = LeadershipFence(primary, witness, name="p")
        sf = LeadershipFence(standby, witness, name="s")
        pf.lead()
        sf.observe_epoch(9)
        with pytest.raises(StaleEpochError):
            ReplicationLink(primary, standby)

    def test_full_sync_propagates_epoch_to_standby(self):
        _clock, primary, standby, _link, _eps = fenced_pair()
        # the link's construction full-syncs; the standby adopted epoch 1
        assert standby.fencing.epoch == 1
        assert not standby.fencing.is_leader

    def test_witness_gated_promotion_after_lease_lapse(self):
        clock, primary, standby, link, _eps = fenced_pair()
        fence = link.standby_fence
        lease = link.witness.lease
        # the pair runs on the witness's default lease
        assert lease.duration_s == Witness(SimClock()).lease_s
        clock.advance_to_ns(lease.expires_ns - 1)
        promote_with_witness(link, fence)
        assert not fence.is_leader  # refused: primary's lease is still live
        clock.advance_ns(1)
        promote_with_witness(link, fence)
        assert fence.is_leader and fence.epoch == 2
        assert standby.server_stats.standby_promotions == 1
        # idempotent re-promotion
        promote_with_witness(link, fence)
        assert standby.server_stats.standby_promotions == 1


# -- epochs in checkpoints ------------------------------------------------


class TestEpochPersistence:
    def test_capture_and_restore_round_trip_epoch(self):
        _clock, primary, _standby, _link, _eps = fenced_pair()
        state = capture_server_state(primary)
        assert state["leader_epoch"] == 1
        clock2 = SimClock()
        target = CricketServer(clock=clock2)
        witness2 = Witness(clock2)
        LeadershipFence(target, witness2, name="restored")
        restore_server_state(target, state)
        assert target.fencing.epoch == 1
        assert not target.fencing.is_leader

    def test_leader_restoring_newer_blob_self_fences(self):
        _clock, primary, _standby, _link, _eps = fenced_pair()
        state = capture_server_state(primary)
        state["leader_epoch"] = 11
        restore_server_state(primary, state)
        assert primary.fencing.epoch == 11
        assert not primary.fencing.is_leader

    def test_unfenced_blob_restores_on_fenced_server(self):
        source = CricketServer(clock=SimClock())
        state = capture_server_state(source)
        assert "leader_epoch" not in state
        _clock, primary, _standby, _link, _eps = fenced_pair()
        restore_server_state(primary, state)
        assert primary.fencing.is_leader  # nothing observed, nothing lost

    def test_ckptstore_manifest_carries_epoch(self, tmp_path):
        _clock, primary, _standby, _link, _eps = fenced_pair()
        store = CheckpointStore(str(tmp_path))
        generation = store.save_full(primary)
        blob = (tmp_path / f"ckpt-{generation:08d}.ckpt").read_bytes()
        assert decode_container(blob).manifest["leader_epoch"] == 1

    def test_ckptstore_manifest_epoch_zero_unfenced(self, tmp_path):
        server = CricketServer(clock=SimClock())
        store = CheckpointStore(str(tmp_path))
        generation = store.save_full(server)
        blob = (tmp_path / f"ckpt-{generation:08d}.ckpt").read_bytes()
        assert decode_container(blob).manifest["leader_epoch"] == 0


# -- the failover client under fencing ------------------------------------


class TestClientEpochAwareness:
    def test_client_learns_epoch_from_replies(self):
        clock, _primary, _standby, _link, endpoints = fenced_pair()
        client = CricketClient.failover(endpoints, clock=clock)
        client.malloc(4096)
        assert client.leader_epoch == 1
        assert client.active_endpoint_name == "primary"

    def test_demoted_primary_retransmit_hits_replicated_cache(self):
        # The issue's dangerous window, fenced edition: a client executes
        # a non-idempotent call on epoch 1, the reply is lost and the
        # primary goes dark; the retransmit lands on the epoch-2 standby
        # and must be answered from the replicated reply cache -- exactly
        # once, never re-executed.
        clock, primary, standby, _link, endpoints = fenced_pair()
        client = CricketClient.failover(
            endpoints,
            clock=clock,
            retry_policy=RetryPolicy(max_attempts=16, deadline_s=None),
        )
        client.malloc(1 * MB)
        endpoints[0].kill_after_next_execute()
        client.malloc(2 * MB)  # executed+shipped, reply lost, retransmitted
        assert standby.server_stats.reply_cache_hits >= 1
        assert standby.device.allocator.used_bytes == 3 * MB  # no double exec
        # note: the replay did NOT require an election -- the cache check
        # precedes the fence, so at-most-once holds even on a follower.
        # The next *fresh* mutation forces the epoch-2 promotion.
        client.malloc(4096)
        assert standby.fencing.is_leader and standby.fencing.epoch == 2
        assert standby.device.allocator.used_bytes == 3 * MB + 4096
        assert client.leader_epoch == 2
        assert client.active_endpoint_name == "standby"

    def test_client_refuses_rotation_back_to_stale_primary(self):
        clock, primary, standby, link, endpoints = fenced_pair()
        client = CricketClient.failover(
            endpoints,
            clock=clock,
            retry_policy=RetryPolicy(max_attempts=16, deadline_s=None),
        )
        client.malloc(4096)
        # leadership moves while the primary is still alive
        clock.advance_s(0.5)
        promote_with_witness(link, link.standby_fence)
        ptr = client.malloc(4096)  # NOT_LEADER from primary, redirected
        assert ptr > 0
        assert client.active_endpoint_name == "standby"
        transport = client.stub.client.leader_sink
        assert 0 in transport._stale  # the old primary is marked stale
        # further mutations stay on the standby even though the primary
        # still answers connects
        client.malloc(4096)
        assert client.active_endpoint_name == "standby"

    def test_not_leader_retry_dials_dead_endpoint_once_and_skips_probe(self):
        # Leaderless: the promoted standby died and the fenced ex-primary
        # refuses every call, hinting at the dead standby.  One retry is
        # one dial of the dead hint and one unprobed reconnect to the
        # refuser, which answered a moment ago.
        clock, primary, standby, link, (first, second) = fenced_pair()
        dials = {"primary": 0, "standby": 0}

        class Counted:
            def __init__(self, inner):
                self.inner, self.name = inner, inner.name

            def connect(self):
                dials[self.name] += 1
                return self.inner.connect()

        probes = []
        transport = FailoverTransport(
            [Counted(first), Counted(second)],
            clock=clock,
            probe=lambda pipe: probes.append(pipe),
        )
        client = CricketClient(transport, clock=clock)
        clock.advance_s(0.5)
        promote_with_witness(link, link.standby_fence)
        standby.kill()
        dials.update(primary=0, standby=0)
        probes.clear()
        with pytest.raises(RpcNotLeaderError):
            client.get_device_count()  # a read: refused by the fenced primary
        transport.reconnect()
        assert dials == {"primary": 1, "standby": 1}
        assert probes == []
        assert transport.active_endpoint is transport.endpoints[0]

    def test_not_leader_replies_are_not_cached(self):
        _clock, primary, standby, _link, _eps = fenced_pair()
        probe = CricketClient.loopback(standby)
        for _ in range(2):
            with pytest.raises(RpcNotLeaderError) as exc_info:
                probe.malloc(4096)
        assert exc_info.value.epoch == 1
        assert exc_info.value.leader_hint == "primary"
        assert standby.server_stats.reply_cache_hits == 0
        assert len(standby._reply_cache) == 0

    def test_reads_drain_on_fenced_server(self):
        # (an old name) a fenced server refuses reads with the redirect a
        # mutation gets, so no client reads its stale state
        _clock, _primary, standby, _link, _eps = fenced_pair()
        probe = CricketClient.loopback(standby)
        with pytest.raises(RpcNotLeaderError) as refused:
            probe.get_device_count()
        assert refused.value.leader_hint == "primary"

    def test_fencing_counters_surface_in_tracer(self):
        from repro.core.tracing import Tracer

        clock, primary, standby, _link, _eps = fenced_pair()
        with pytest.raises(RpcNotLeaderError):
            CricketClient.loopback(standby).malloc(4096)
        tracer = Tracer(clock)
        tracer.attach_counters(standby.server_stats)
        snapshot = tracer.counter_snapshot()
        assert snapshot["server.fencing_not_leader_sheds"] == 1
        assert snapshot["server.fencing_epoch"] == 1
        assert "server.fencing_not_leader_sheds" in tracer.summary()


# -- the partition profiles -----------------------------------------------


class TestPartitionProfiles:
    """The ``partition_*`` nemesis profiles on the simulator."""

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            SimulationPlan(profile="partition_nonsense")

    @pytest.mark.parametrize("topology", PARTITION_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_split_brain_across_topologies_and_seeds(
        self, profile_run, topology, seed
    ):
        result = profile_run(f"partition_{topology}", seed)
        assert result.clean, result.violations
        facts = result.facts()
        assert facts["split_epochs"] == []
        assert facts["stale_executions"] == 0
        assert facts["converged"] and result.converged

    def test_primary_isolation_elects_standby(self, profile_run):
        result = profile_run("partition_primary_isolated", 3)
        assert result.final_leader == "standby"
        assert result.counters["server.fencing_epoch"] == 2
        # the old primary provably self-fenced: the post-heal probe's
        # mutations were all rejected with NOT_LEADER, none executed
        assert result.facts()["stale_executions"] == 0

    def test_standby_isolation_keeps_primary_solo(self, profile_run):
        result = profile_run("partition_standby_isolated", 3)
        # witness-blessed solo: the primary detaches the dead standby and
        # keeps serving under its original epoch -- no spurious election;
        # the relinked standby is state-identical again after heal
        assert result.final_leader == "primary"
        assert result.counters["server.fencing_epoch"] == 1
        assert result.facts()["diverged"] is False

    def test_witness_isolation_fences_primary_at_lease_expiry(self, profile_run):
        result = profile_run("partition_witness_isolated", 3)
        # the primary cannot renew, self-fences, and the standby wins the
        # next epoch after heal; clients followed the redirects
        assert result.final_leader == "standby"
        assert result.counters["server.fencing_epoch"] == 2
        assert result.counters["server.fencing_self_fences"] == 0  # standby's
        assert result.facts()["stale_executions"] == 0

    def test_heal_divergence_sheds_instead_of_diverging(self, profile_run):
        result = profile_run("partition_heal_divergence", 3)
        # the cut-off primary kept its clients but could neither
        # replicate nor renew: every mutation in the window was refused
        # unexecuted, so heal finds nothing to reconcile
        assert result.final_leader == "standby"
        assert result.facts()["split_epochs"] == []
        assert result.clean, result.violations
