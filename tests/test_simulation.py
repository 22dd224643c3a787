"""Deterministic cluster simulation: nemesis, harness, shrinker, traces.

The acceptance path for the whole subsystem lives here: seeded runs
are bit-reproducible (identical history fingerprints), benign seeds
come out clean under the full composed nemesis, an injected
double-execution bug is caught by the checker and shrunk to a minimal
replayable trace, and the trace replays byte-for-byte.
"""

import errno
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from repro.cricket.ckptstore import MemoryStorage
from repro.resilience.simulation import (
    BUG_DOUBLE_EXECUTE,
    DOUBLE_EXECUTION,
    DRAIN_RESTORE,
    HA_PAIR_KINDS,
    MIGRATE,
    SINGLE_KINDS,
    STORAGE_TORN,
    TOPOLOGIES,
    NemesisEvent,
    SimulationPlan,
    events_from_jsonable,
    events_to_jsonable,
    generate_schedule,
    load_trace,
    replay_trace,
    run_simulation,
    save_trace,
    shrink_schedule,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

#: history fingerprints of the default (``composed``) profile, recorded at
#: the commit before nemesis profiles existed.  The fingerprint is the
#: refactoring oracle: a change that perturbs the default history -- one
#: extra RNG draw, one reordered op -- fails here, on every CI python.
GOLDEN_FINGERPRINTS = {
    ("single", 0): "e6c380e903fd6a95c16a19f8a9374459dcd373245870d3029bc94cb6f5f7a0be",
    ("single", 1): "098be4c1e303e3fc2c7b6c9961fe1a901091d2587d0a5402b23b6bc7049aa05d",
    ("single", 7): "5d33cd1cf8a329e0f24dae51772d3a7850239868b1b436a820048de4279b52b7",
    # (its second kill leaves no node alive: no final leader since the
    # harness stopped reporting a dead one)
    ("ha_pair", 0): "252b65dede448cb540e39c59905495faee463561546fd75ee628a0c2def7f474",
    ("ha_pair", 1): "df4e37e55063a4f3807865bf9575b84a14df754792134c80c7aeea73cab319f9",
    ("ha_pair", 7): "eee74c06ad30c676b4903cacea4fb95772c2e3b000a84f416ba952e76208fc66",
}

#: the benchmark's third ``ha_pair`` schedule, kill at 90 % of the horizon
#: (shares of ``horizon_s``): the killed node is the promoted standby, and
#: the ex-primary, which rejoined as its standby when the cut healed,
#: takes over
KILL_LATE_SCHEDULE = [
    (0.10, "partition", {"shape": "primary_isolated", "duration_s": 0.5}),
    (0.25, "storage_slow", {"count": 1, "delay_s": 0.3}),
    (0.40, "gpu_fault", {"fault": "ecc"}),
    (0.55, "limp_endpoint", {"client": 1, "duration_s": 0.4}),
    (0.70, "partition", {"shape": "heal_divergence", "duration_s": 0.7}),
    (0.90, "kill_primary", {"dangerous": False}),
]
#: its fingerprint at seed 10 and steps=3, the fewest steps that once
#: reached a retry storm after the kill
KILL_LATE_FINGERPRINT = (
    "85b393b24309be3823f41068943e6922b40bf5436475076b94eb10b9348b4cd7"
)

#: the shrunk repro of the once known-red composed schedule (see
#: ``TestKnownRed``), checked in so the bug cannot come back
KNOWN_RED_TRACE = str(
    Path(__file__).parent / "data" / "stale-read-on-deposed-primary.trace.json"
)
#: its replay's fingerprint now that a fenced server refuses reads and
#: the deposed primary rejoins as the new leader's standby at the end
KNOWN_RED_REPLAY_FINGERPRINT = (
    "dd1826dfe214d8fbdd3c31c320a5e5c9d2255e943a8288ff5ad72445e33dfdf3"
)


# -- plan ---------------------------------------------------------------------


class TestSimulationPlan:
    def test_jsonable_round_trip(self):
        plan = SimulationPlan(topology="single", seed=9, clients=3, steps=40)
        clone = SimulationPlan.from_jsonable(
            json.loads(json.dumps(plan.to_jsonable()))
        )
        assert clone == plan

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SimulationPlan(topology="mesh")

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            SimulationPlan(clients=0)
        with pytest.raises(ValueError):
            SimulationPlan(steps=0)
        with pytest.raises(ValueError):
            SimulationPlan(horizon_s=0.0)


# -- nemesis schedule generation ---------------------------------------------


class TestNemesisSchedule:
    def test_same_seed_same_schedule(self):
        kwargs = dict(topology="ha_pair", events=12, clients=2, horizon_s=12.0)
        first = generate_schedule(random.Random(5), **kwargs)
        second = generate_schedule(random.Random(5), **kwargs)
        assert first == second
        assert len(first) == 12

    def test_schedule_sorted_and_inside_horizon(self):
        schedule = generate_schedule(
            random.Random(1), topology="single", events=20, clients=2,
            horizon_s=10.0,
        )
        times = [event.at_s for event in schedule]
        assert times == sorted(times)
        assert all(0.0 < t < 10.0 for t in times)

    def test_kinds_match_topology_and_never_the_bug(self):
        for topology, kinds in (("ha_pair", HA_PAIR_KINDS), ("single", SINGLE_KINDS)):
            schedule = generate_schedule(
                random.Random(2), topology=topology, events=40, clients=2,
                horizon_s=12.0,
            )
            assert {event.kind for event in schedule} <= set(kinds)
            assert BUG_DOUBLE_EXECUTE not in {event.kind for event in schedule}

    def test_events_jsonable_round_trip(self):
        schedule = generate_schedule(
            random.Random(3), topology="ha_pair", events=8, clients=2,
            horizon_s=12.0,
        )
        clone = events_from_jsonable(
            json.loads(json.dumps(events_to_jsonable(schedule)))
        )
        assert clone == schedule


# -- the harness: reproducibility and clean seeds -----------------------------


class TestDeterminism:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bit_reproducible(self, topology):
        plan = SimulationPlan(topology=topology, seed=1)
        first = run_simulation(plan)
        second = run_simulation(plan)
        assert first.fingerprint == second.fingerprint
        assert first.violation_kinds() == second.violation_kinds()
        assert first.outcomes == second.outcomes
        assert first.applied == second.applied

    def test_different_seeds_diverge(self):
        plan_a = SimulationPlan(topology="ha_pair", seed=0)
        plan_b = SimulationPlan(topology="ha_pair", seed=1)
        assert run_simulation(plan_a).fingerprint != run_simulation(plan_b).fingerprint

    def test_explicit_schedule_overrides_generation(self):
        plan = SimulationPlan(topology="single", seed=4, steps=24, horizon_s=6.0)
        quiet = run_simulation(plan, schedule=[])
        assert quiet.clean, quiet.violations
        assert quiet.applied == []
        assert quiet.fingerprint == run_simulation(plan, schedule=[]).fingerprint


class TestCleanSeeds:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_composed_nemesis_run_is_clean(self, topology, seed):
        result = run_simulation(SimulationPlan(topology=topology, seed=seed))
        assert result.clean, result.violations
        # (ha_pair, 0) kills both nodes: nobody is left to converge on
        assert result.converged == ((topology, seed) != ("ha_pair", 0))
        assert result.converged == bool(result.final_leader)
        assert result.applied, "nemesis applied no events"
        assert result.outcomes.get("ok", 0) > 0
        assert result.fingerprint == GOLDEN_FINGERPRINTS[topology, seed]

    def test_post_kill_retry_storm(self):
        plan = SimulationPlan(topology="ha_pair", seed=10, steps=3)
        schedule = [
            NemesisEvent(round(at * plan.horizon_s, 6), kind, dict(params))
            for at, kind, params in KILL_LATE_SCHEDULE
        ]
        result = run_simulation(plan, schedule)
        assert result.clean, result.violations
        assert result.applied[-1] == "kill_primary"
        # the rejoined ex-primary leads again: no op after the kill is lost
        assert result.outcomes == {"ok": 15}
        assert result.final_leader == "primary" and result.converged
        assert result.fingerprint == KILL_LATE_FINGERPRINT

    def test_runs_leave_no_temp_directories_behind(self, tmp_path, monkeypatch):
        # the checkpoint store's scratch directory dies with the run --
        # a clean run, a violating run and a run that raises alike
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for topology in TOPOLOGIES:
            run_simulation(SimulationPlan(topology=topology, seed=2, steps=20))
        plan = SimulationPlan(topology="ha_pair", seed=3)
        assert not run_simulation(plan, schedule=_buggy_schedule(plan)).clean
        with pytest.raises(KeyError):
            run_simulation(plan, schedule=[NemesisEvent(1.0, "no_such_event")])
        assert os.listdir(tmp_path) == []

    def test_runs_touch_no_disk_and_keep_no_checkpoint_bytes(
        self, tmp_path, monkeypatch
    ):
        fsyncs = []

        def no_fsync(fd):
            fsyncs.append(fd)
            raise OSError(errno.EIO, "a simulated store reached a real disk")

        built = []
        init = MemoryStorage.__init__

        def spy(storage):
            init(storage)
            built.append(storage)

        monkeypatch.setattr(os, "fsync", no_fsync)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(MemoryStorage, "__init__", spy)
        plan = SimulationPlan(topology="single", seed=4, steps=60, horizon_s=6.0)
        result = run_simulation(plan, schedule=[
            NemesisEvent(1.0, STORAGE_TORN, {"restore": True}),
            NemesisEvent(2.5, DRAIN_RESTORE, {}),
            NemesisEvent(4.0, MIGRATE, {"disconnect_at": [3], "torn_journal": True}),
        ])
        assert result.clean, result.violations
        assert {"torn-fallback", "migration-restarted"} <= set(result.evaluated)
        assert fsyncs == [] and os.listdir(tmp_path) == []
        # the checkpoint store and the migration journal, emptied at the end
        assert len(built) == 2
        assert all(storage.listdir() == [] for storage in built)

    def test_workload_outcomes_are_typed(self):
        result = run_simulation(SimulationPlan(topology="ha_pair", seed=7))
        unknown = set(result.outcomes) - {
            "ok", "busy", "not_leader", "expired", "cancelled",
            "cuda_error", "ambiguous",
        }
        assert not unknown, unknown


# -- the acceptance path: catch, shrink, replay -------------------------------


def _buggy_schedule(plan):
    """The issue's acceptance scenario: a real nemesis schedule plus the
    intentional double-execution bug, armed before the nemesis's first
    move (generated events start at 5% of the horizon) so the leader is
    guaranteed alive to execute it."""
    rng = random.Random(plan.seed)
    schedule = generate_schedule(
        rng, topology=plan.topology, events=5, clients=plan.clients,
        horizon_s=plan.horizon_s,
    )
    schedule.append(NemesisEvent(
        at_s=plan.horizon_s * 0.02, kind=BUG_DOUBLE_EXECUTE,
        params={"count": 2},
    ))
    return sorted(schedule, key=lambda event: event.at_s)


class TestShrinker:
    def test_bug_caught_shrunk_and_replayable(self, tmp_path):
        plan = SimulationPlan(topology="ha_pair", seed=3)
        schedule = _buggy_schedule(plan)
        full = run_simulation(plan, schedule=schedule)
        assert DOUBLE_EXECUTION in full.violation_kinds()

        runs = []
        minimal, result = shrink_schedule(
            plan, schedule, kinds=[DOUBLE_EXECUTION],
            on_progress=lambda run, size: runs.append((run, size)),
        )
        assert len(minimal) <= 10  # the issue's acceptance bound
        assert [event.kind for event in minimal] == [BUG_DOUBLE_EXECUTE]
        assert DOUBLE_EXECUTION in result.violation_kinds()
        assert runs, "on_progress never fired"

        trace = tmp_path / "repro.json"
        save_trace(str(trace), plan, minimal, result)
        loaded_plan, loaded_schedule, data = load_trace(str(trace))
        assert loaded_plan == plan
        assert loaded_schedule == minimal
        assert data["fingerprint"] == result.fingerprint
        replayed = replay_trace(str(trace))
        assert replayed.fingerprint == result.fingerprint

    def test_shrink_refuses_a_passing_schedule(self):
        plan = SimulationPlan(
            topology="single", seed=0, steps=24, horizon_s=6.0
        )
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_schedule(plan, [])

    def test_kind_filter_ignores_other_violations(self):
        # The armed bug cascades into byte/readback anomalies, but it can
        # never regress an epoch -- filtering on that kind must refuse.
        plan = SimulationPlan(topology="ha_pair", seed=3)
        schedule = _buggy_schedule(plan)
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_schedule(plan, schedule, kinds=["epoch-regression"])

    def test_replay_detects_divergence(self, tmp_path):
        plan = SimulationPlan(topology="ha_pair", seed=3)
        minimal, result = shrink_schedule(
            plan, _buggy_schedule(plan), kinds=[DOUBLE_EXECUTION],
        )
        trace = tmp_path / "repro.json"
        save_trace(str(trace), plan, minimal, result)
        data = json.loads(trace.read_text())
        data["fingerprint"] = "0" * 64
        trace.write_text(json.dumps(data))
        with pytest.raises(AssertionError, match="fingerprint"):
            replay_trace(str(trace))

    def test_trace_rejects_unknown_version(self, tmp_path):
        trace = tmp_path / "repro.json"
        trace.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_trace(str(trace))


# -- the once known-red schedule ----------------------------------------------


class TestKnownRed:
    """A fenced ex-primary served stale reads; now it refuses them.

    The trace: ``ha_pair``, seed 3041, 300 steps, one
    ``transport_faults(client=0, duration_s=0.8)`` at 1.2 s.  Client0 has
    failed over and seen epoch 2 when an injected disconnect rotates it
    back to the deposed primary.  When ``LeadershipFence.shed_stat``
    passed non-mutating procs before it checked ``is_leader``, the ``d2h``
    (proc 13) executed on ``primary`` at epoch 1 and returned the zeros
    from before the write the standby acknowledged: ``lost-acked-write``.
    The trace file keeps that run's fingerprint and verdict; the replay
    now runs clean, the read refused with ``RPC_NOT_LEADER``.
    """

    @pytest.fixture(scope="class")
    def replayed(self):
        plan, schedule, recorded = load_trace(KNOWN_RED_TRACE)
        return run_simulation(plan, schedule=schedule), recorded

    def test_trace_still_reproduces_byte_for_byte(self, replayed):
        result, recorded = replayed
        assert recorded["violation_kinds"] == ["lost-acked-write"]
        assert result.fingerprint == KNOWN_RED_REPLAY_FINGERPRINT
        assert result.violation_kinds() == ()

    def test_reads_are_never_served_by_a_deposed_primary(self, replayed):
        result = replayed[0]
        assert result.clean, result.violations
        executed = [event for event in result.events if event.kind == "execute"]
        promoted = next(
            event.index for event in executed
            if event.node == "standby" and not event.replica
        )
        # once the standby leads, the deposed primary answers NULL pings
        # only; rejoined as the standby, it also applies shipped ops
        assert {
            event.proc for event in executed
            if event.node == "primary" and event.index > promoted and not event.replica
        } == {0}


# -- the nightly matrix, opt-in via `-m soak` ---------------------------------


@pytest.mark.soak
class TestNemesisSoak:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_seed_matrix_clean_and_reproducible(self, topology, seed):
        plan = SimulationPlan(
            topology=topology, seed=seed, steps=80, nemesis_events=8,
            horizon_s=16.0,
        )
        first = run_simulation(plan)
        assert first.clean, (seed, topology, first.violations)
        assert first.fingerprint == run_simulation(plan).fingerprint
