"""Nemesis profiles: clean on their CI seeds, and every guard they watch
is watched for real.

The profile matrix replaces the seven legacy chaos harnesses' soak
tests; the mutation table is the proof no detection power was lost in
the move -- each row breaks one guard (by ``monkeypatch``, in the test
only) and names the profile and the violations that must catch it.
"""

import importlib
import itertools
import json
from dataclasses import replace

import pytest

from repro.resilience.health import EjectionDecision
from repro.resilience.simulation import (
    BUG_DOUBLE_EXECUTE,
    COMPOSED,
    FACT_RULES,
    KILL_CLIENT,
    KILL_PRIMARY,
    PARTITION,
    PROFILES,
    NemesisEvent,
    SimulationPlan,
    load_trace,
    profile_plan,
    replay_trace,
    run_profile,
    run_simulation,
    save_trace,
    shrink_schedule,
)
from repro.resilience.simulation.harness import FAILOVER_BUDGET_S

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

NAMED = sorted(set(PROFILES) - {COMPOSED})

#: history fingerprint of every named profile at its first seed -- the
#: refactoring oracle beside ``GOLDEN_FINGERPRINTS`` in test_simulation.py,
#: which pins ``composed`` at seed 0 (its ``ha_pair`` entry).  A change that
#: moves one of these moves a history: it needs a reason, not a new value.
FIRST_SEED_FINGERPRINTS = {
    "brownout_shed_all": "c308dc1ec28c3df9362f359050f2f07f1423759dbfb5468edf72e04824711250",
    "buggy_tenant": "4945cf7ac4fb561e5daa6842f68228d594cdf86061614f91e2c57728e3033746",
    "client_kill": "1f78dfb4516a2e8511ca5c1e14316fa0f04509983b641b139076c64227d1f444",
    "failover": "ab48cc109c89c01f46230050384dedac540eb3503b693fef7f61dc80efb83261",
    "limplock_endpoint": "790344f7751804e2f1987d83f14b429995fb4239aa7f2445c1a25caef6ceaff2",
    "limplock_fsync": "f784af4afd3522fa2bfbc346b7ecda4464a4594b081956d4493a76a03c1e3f21",
    "limplock_gpu": "d1538917cff66f71fc757164c87b363fb13a37358f3aa3c99ad203c8beeff65d",
    "limplock_standby": "e73f14709899ec2b5994be542d87b1104b009bcf9f6c051da9caeb62acdcaa4f",
    "migration": "b34bd47afed58a9fed9952a53bef94a280a3ac34a9e6b98dcd1e796266aafe80",
    "overload_1x": "169dbf565530ffc9102b07098736054c6b0cb32c009658e5f760f922f45849a4",
    "overload_2x": "bbb124c62f8b844cbcd5dc1696096ab12b80fcd4beac43514754ba122c1f385e",
    "overload_5x": "3b6e928135e1ac897f9eac5cdfb6c988632ac9c17fa5fb46de442a2e6ca56321",
    "overload_hot_20x": "7ac8281b0a499c81fb0aa3c49808ed70e890a493ae166b852de955ab686a7c03",
    "overload_hot_tenant": "a636df7f8929a5f7bf937d4d3883f161303790e28c09931e7c589d2d3808643c",
    "overload_weighted": "15376773fe9481562c0a3e355757d79bb9fab3ec3176028172b84f426809ecb0",
    # (the three cuts that promote the standby moved when the deposed
    # primary began to rejoin as its standby after the heal)
    "partition_heal_divergence": "eac3d4f5f92d2eb18eedde74a2d980c253f8cc546082e015a868869dd416cde2",
    "partition_primary_isolated": "a4e8fdd055c141555e76c370ec69c17f2e9ead35d640eee7c9b85cc4a3390aed",
    "partition_standby_isolated": "5d489914578f8e77e15db776d06ea6de7c649979fd3166a3bdd8fad5209b8912",
    "partition_witness_isolated": "a2e48561dcc56e0bffeda884092bd95e1b47dd1f6091b39b102cbef0c845b950",
    "second_failover": "98e3c15c267f96020b7915c7bef4b00e9dce72e058277230af4ccf409a17e802",
}


class TestProfileTable:
    def test_every_legacy_harness_has_its_profiles(self):
        assert set(NAMED) == {
            "client_kill", "failover", "migration", "buggy_tenant",
            *(f"overload_{v}" for v in ("1x", "2x", "5x", "hot_tenant", "weighted")),
            "overload_hot_20x", "brownout_shed_all",
            *(f"partition_{s}_isolated" for s in ("primary", "standby", "witness")),
            "partition_heal_divergence", "second_failover",
            *(f"limplock_{w}" for w in ("endpoint", "gpu", "fsync", "standby")),
        }

    @pytest.mark.parametrize("name", NAMED)
    def test_profile_is_well_formed(self, name):
        profile = PROFILES[name]
        assert profile.topology in ("single", "ha_pair") and profile.seeds
        # a restricted alphabet or a pinned schedule, never both
        assert bool(profile.alphabet) != bool(profile.schedule)
        assert set(profile.invariants) <= {kind for kind, _ in FACT_RULES}

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            run_profile("limplock_moon")

    def test_profile_fixes_its_topology(self):
        with pytest.raises(ValueError, match="topology"):
            SimulationPlan(profile="migration", topology="ha_pair")
        assert profile_plan("migration", 3).topology == "single"

    def test_plan_round_trips_and_old_traces_mean_composed(self):
        plan = profile_plan("failover", 5)
        data = json.loads(json.dumps(plan.to_jsonable()))
        assert SimulationPlan.from_jsonable(data) == plan
        del data["profile"]  # a trace written before profiles existed
        assert SimulationPlan.from_jsonable(data).profile == COMPOSED


# -- clean and reproducible on the historical CI seeds -------------------------


def _matrix():
    """Every profile x every seed the legacy CI soaks ran.  Tier-1 takes
    the first seed of each list (the per-subsystem test files pin several
    more); the rest carry the ``soak`` mark, which the CI soak step and
    the nightly run."""
    return [
        pytest.param(
            name, seed, marks=() if seed == seeds[0] else pytest.mark.soak
        )
        for name in NAMED
        for seeds in [PROFILES[name].seeds]
        for seed in seeds
    ]


@pytest.mark.parametrize("name,seed", _matrix())
def test_clean_and_reproducible_on_historical_seed(profile_run, name, seed):
    result = profile_run(name, seed)
    assert result.clean, result.violations
    assert result.applied, "the nemesis applied no event"
    assert result.outcomes.get("ok", 0) > 0
    # no vacuous pass: every invariant the profile names was judged
    missing = set(PROFILES[name].invariants) - set(result.evaluated)
    assert not missing, f"no evidence recorded for {sorted(missing)}"
    assert run_profile(name, seed).fingerprint == result.fingerprint
    if seed == PROFILES[name].seeds[0]:
        assert result.fingerprint == FIRST_SEED_FINGERPRINTS[name]


# -- the mutation table --------------------------------------------------------


def _break(path, make):
    """A mutant: ``module:Class.attr`` becomes ``make(the original)``."""
    def mutate(mp):
        module, _, dotted = path.partition(":")
        owner = importlib.import_module(module)
        *parents, attr = dotted.split(".")
        for name in parents:
            owner = getattr(owner, name)
        mp.setattr(owner, attr, make(getattr(owner, attr)))
    return mutate


def _queue_config(**override):
    return _break(
        "repro.resilience.overload:OverloadQueue.__init__",
        lambda real: lambda self, config, stats=None: real(
            self, replace(config, **override), stats
        ),
    )


def _regrant_old_epoch(real):
    from repro.cricket.witness import LeadershipLease

    def acquire(self, holder):
        if real(self, holder).epoch > 1:  # a challenger won: no new epoch for it
            self.epoch = 1
            self.lease = LeadershipLease(holder, 1, self.clock.now_ns, self.lease_s)
        return self.lease
    return acquire


def _pop_expired_too(_real):
    def pop_next(self, now_ns):
        if not self._queue:
            return None, []
        best = min(self._queue, key=lambda t: (t.vft, t.seq))
        self._queue.remove(best)
        return best, []
    return pop_next


def _fifo_tickets(real):
    def make_ticket(self, *args, **kwargs):
        ticket = real(self, *args, **kwargs)
        ticket.vft = float(ticket.seq)  # arrival order, tenant-blind
        return ticket
    return make_ticket


def _restart_from_begin(_real):
    def resume(self, channel, *, receiver_acked=None):
        self.report.resumes += 1
        self._outbox.clear()  # forget the cursor: BEGIN goes out again
        self.phase = "idle"
        self.start(channel)
    return resume


def _unbudgeted_pause(real):
    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.BANDWIDTH_BYTES_PER_S = 1e3  # a pause far past the budget...
        self.PAUSE_BUDGET_NS = 10**18  # ...that this source lets through
    return init


def _eject_everything(_real):
    def evaluate(self, trackers):
        fresh = tuple(sorted(set(trackers) - set(self._ejected)))
        for name in fresh:
            self._ejected[name] = self.clock.now_ns + self.probation_ns
        return EjectionDecision(ejected=fresh)
    return evaluate


def _no_hysteresis(_real):
    def update(self):
        target = 1 if self.score() >= self.ENTER_RATIO else 0
        self.stats.brownout_entries += bool(target and not self.stage)
        self.stats.brownout_exits += bool(self.stage and not target)
        self.stage = target
        return target
    return update


def _cumulative_ckpt_signal(_real):
    def ratio(self):  # p99 of every write the store ever made
        tracker, slo = self.ckpt_health, self.checkpoint_slo
        if tracker is None or tracker.count < slo.min_samples:
            return 0.0
        return tracker.p99 / slo.target_p99_ns
    return ratio


def _brownout_judged_only_on_execute(_real):
    def check(self, call, ctx):  # sheds on the stage the last executed call left
        if ctx.replica_apply:
            return None
        shed = self._brownout.shed_stat(ctx.priority)
        if shed is not None:
            self.server_stats.brownout_sheds += 1
        return shed
    return check


def _refusal_charges_wfq(real):
    def offer(self, identity, xid, now_ns, *, expires_at_ns=None):
        verdict = real(self, identity, xid, now_ns, expires_at_ns=expires_at_ns)
        if getattr(verdict, "detail", "") == "server queue full":
            self._make_ticket(identity, xid, expires_at_ns)  # the refused call pays
        return verdict
    return offer


def _lose_newest_lagged_ship(real):
    def apply_pending(self):
        if self.demoted and self._pending:
            self._pending.pop()
        real(self)
    return apply_pending


def _skip_rejoin(real):
    def relink(self):  # a promoted link stays severed
        if not self.link.promoted:
            real(self)
    return relink


def _both(*mutants):
    return lambda mp: [mutate(mp) for mutate in mutants]


#: broken guard -> (the mutant, the profile that must catch it, the
#: violations it must report -- exactly those)
MUTATIONS = {
    "reaper-noop": (
        _break("repro.cricket.sessions:SessionManager.reap",
               lambda _: lambda self, now_ns, release: 0),
        "client_kill", {"orphan-bytes"}),
    # (partition_heal_divergence would not notice: its clients ride with
    # the cut-off primary, so no second leader is ever promoted; and the
    # probe's writes, which the open fence lets the rejoined ex-primary
    # execute, part it from the leader it now follows)
    "fence-open": (
        _break("repro.cricket.witness:LeadershipFence.shed_stat",
               lambda _: lambda self, proc, now_ns: None),
        "partition_primary_isolated", {"stale-primary-executed", "state-divergence"}),
    "witness-regrants-epoch": (
        _break("repro.cricket.witness:Witness.acquire", _regrant_old_epoch),
        "partition_primary_isolated", {"split-epoch"}),
    "dequeue-keeps-expired": (
        _break("repro.resilience.overload:OverloadQueue.pop_next", _pop_expired_too),
        "overload_5x", {"executed-expired"}),
    "wfq-is-fifo": (  # ...and first come, first queued: no per-tenant bound
        _both(_break("repro.resilience.overload:OverloadQueue._make_ticket",
                     _fifo_tickets),
              _queue_config(max_queue_depth_per_client=0)),
        "overload_hot_tenant", {"unfair-share"}),
    "queue-bound-ignored": (
        _queue_config(max_queue_depth=10_000), "overload_5x", {"queue-unbounded"}),
    "wfq-charges-refusals": (
        _break("repro.resilience.overload:OverloadQueue.offer", _refusal_charges_wfq),
        "overload_hot_20x", {"unfair-share"}),
    "sanitizer-off": (
        _break("repro.cricket.server:CricketServer.__init__",
               lambda real: lambda self, *a, **kw: real(
                   self, *a, **{**kw, "sanitizer": None})),
        "buggy_tenant", {"bug-undetected"}),
    # an unhealed poison also turns the tenant's later bugs into plain
    # device errors, with no sanitizer verdict to their name
    "ladder-off": (
        _break("repro.cricket.recovery:RecoveryLadder.needs_heal",
               lambda _: lambda self: False),
        "buggy_tenant", {"cross-tenant-impact", "bug-undetected"}),
    "resume-restarts": (
        _break("repro.cricket.migration:MigrationSource.resume", _restart_from_begin),
        "migration", {"migration-restarted"}),
    # (skipping only the CRC is invisible: a torn write leaves a prefix,
    # which the container's trailer magic already rejects)
    "no-generation-fallback": (
        _break("repro.cricket.ckptstore:CheckpointStore.generations",
               lambda real: lambda self: real(self)[-1:]),
        "migration", {"torn-fallback"}),
    # (stop_and_copy aborts on an over-budget pause; remove that guard)
    "pause-budget-unenforced": (
        _break("repro.cricket.migration:MigrationSource.__init__", _unbudgeted_pause),
        "migration", {"pause-over-budget"}),
    "ejector-never": (
        _break("repro.resilience.health:OutlierEjector.evaluate",
               lambda _: lambda self, trackers: EjectionDecision()),
        "limplock_endpoint", {"undetected-in-budget"}),
    "ejector-always": (
        _break("repro.resilience.health:OutlierEjector.evaluate", _eject_everything),
        "limplock_endpoint", {"false-ejection"}),
    "brownout-no-hysteresis": (
        _break("repro.resilience.health:BrownoutController.update", _no_hysteresis),
        "limplock_fsync", {"brownout-flap"}),
    "brownout-cumulative-signal": (
        _break("repro.cricket.server:CricketServer._ckpt_ratio", _cumulative_ckpt_signal),
        "brownout_shed_all", {"brownout-stuck"}),
    "brownout-judged-only-on-execute": (
        _break("repro.oncrpc.server:RpcServer._check_brownout",
               _brownout_judged_only_on_execute),
        "brownout_shed_all", {"brownout-stuck"}),
    "demoted-link-lossy": (
        _break("repro.cricket.replication:ReplicationLink._apply_pending",
               _lose_newest_lagged_ship),
        "limplock_standby", {"state-divergence"}),
    # the deposed primary never rejoins, so nobody leads after the kill
    "skip-rejoin": (
        _break("repro.cricket.replication:HaPair.relink", _skip_rejoin),
        "second_failover", {"stuck-after-failover", "unconverged"}),
}


@pytest.mark.parametrize("row", MUTATIONS)
def test_broken_guard_is_caught(monkeypatch, profile_run, row):
    mutate, name, expected = MUTATIONS[row]
    seed = PROFILES[name].seeds[0]
    assert profile_run(name, seed).clean  # the control: unbroken, clean
    mutate(monkeypatch)
    result = run_profile(name, seed)
    assert set(result.violation_kinds()) == expected, result.violations


@pytest.mark.parametrize("name", ["limplock_fsync", "brownout_shed_all"])
def test_profile_runs_with_the_brownout_plane_off(monkeypatch, name):
    # the harness reads the leader's brownout on every step; with the
    # plane off the run still completes, and nothing detects the limp
    profile = PROFILES[name]
    monkeypatch.setitem(
        PROFILES, name, replace(profile, server={**profile.server, "brownout": False})
    )
    result = run_profile(name, profile.seeds[0])
    assert result.violation_kinds() == ("undetected-in-budget",)


# -- a profile failure shrinks and replays like any other ----------------------


def test_armed_bug_in_a_profile_shrinks_to_a_replayable_trace(tmp_path):
    # at-most-once broken by the one hook src/ has: failover catches it
    plan = profile_plan("failover", 1)
    bug = NemesisEvent(0.3, BUG_DOUBLE_EXECUTE, {"count": 1})
    schedule = [bug, *run_simulation(plan).schedule]
    assert "double-execution" in run_simulation(plan, schedule).violation_kinds()
    minimal, shrunk = shrink_schedule(plan, schedule, kinds=["double-execution"])
    assert minimal == [bug]

    trace = tmp_path / "repro.json"
    save_trace(str(trace), plan, minimal, shrunk)
    loaded_plan, loaded_schedule, _ = load_trace(str(trace))
    assert loaded_plan.profile == "failover" and loaded_schedule == minimal
    assert replay_trace(str(trace)).fingerprint == shrunk.fingerprint


def test_fact_rule_violation_shrinks_too(monkeypatch):
    # a fact-rule violation is a Violation like any other: ddmin keeps
    # the one kill that leaked and drops the schedule around it
    MUTATIONS["reaper-noop"][0](monkeypatch)
    plan = profile_plan("client_kill", 1)
    schedule = run_simulation(plan).schedule
    assert len(schedule) == 2
    minimal, shrunk = shrink_schedule(plan, schedule, kinds=["orphan-bytes"])
    assert [event.kind for event in minimal] == [KILL_CLIENT]
    assert shrunk.violation_kinds() == ("orphan-bytes",)


# -- small scope: every schedule of at most two HA faults -----------------------

#: the HA alphabet at its boundaries: a kill before and one after the
#: reply leaves, and each one-node cut, longer than the witness lease
SWEEP_EVENTS = (
    (KILL_PRIMARY, {"dangerous": False}),
    (KILL_PRIMARY, {"dangerous": True}),
    *(
        (PARTITION, {"shape": f"{node}_isolated", "duration_s": 0.5})
        for node in ("primary", "standby", "witness")
    ),
)
#: a coarse grid, its steps longer than the lease plus the failover budget
SWEEP_TIMES = (0.5, 1.5, 2.5)
#: judged as ``second_failover`` runs are, so the end-of-run facts count
SWEEP_PLAN = SimulationPlan(
    topology="ha_pair", seed=0, clients=2, steps=16, horizon_s=4.0,
    profile="second_failover",
)


def _sweep():
    """Every schedule of one event, or of two at distinct grid times, run."""
    moves = [[(at, event)] for at in SWEEP_TIMES for event in SWEEP_EVENTS] + [
        [(first, one), (then, other)]
        for first, then in itertools.combinations(SWEEP_TIMES, 2)
        for one, other in itertools.product(SWEEP_EVENTS, repeat=2)
    ]
    for move in moves:
        schedule = [NemesisEvent(at, kind, dict(params)) for at, (kind, params) in move]
        yield schedule, run_simulation(SWEEP_PLAN, schedule)


def _stuck(result) -> bool:
    """Whether an op started over lease + failover budget after the last
    kill before it, and ended ambiguous."""
    budget_ns = (SWEEP_PLAN.lease_s + FAILOVER_BUDGET_S) * 1e9
    kills = [event.t_ns for event in result.events if event.kind == "crash"]
    started = {e.op_id: e.t_ns for e in result.events if e.kind == "invoke"}
    for event in result.events:
        if event.kind == "return" and event.ambiguous:
            start = started[event.op_id]
            if start - max((k for k in kills if k <= start), default=start) > budget_ns:
                return True
    return False


def test_small_scope_sweep_is_clean_and_only_a_double_kill_is_stuck():
    stuck, judged, runs = set(), set(), 0
    for schedule, result in _sweep():
        runs += 1
        assert result.clean, (schedule, result.violations)
        judged.update(result.evaluated)
        if _stuck(result):
            stuck.add(tuple(event.kind for event in schedule))
    assert runs == 90
    assert "stuck-after-failover" in judged
    # with both nodes dead nobody can serve; every other story fails over
    assert stuck == {(KILL_PRIMARY, KILL_PRIMARY)}


def test_small_scope_sweep_catches_a_skipped_rejoin(monkeypatch):
    MUTATIONS["skip-rejoin"][0](monkeypatch)
    schedule, result = next(
        (schedule, result) for schedule, result in _sweep() if not result.clean
    )
    assert [event.kind for event in schedule] == [PARTITION, KILL_PRIMARY]
    assert result.violation_kinds() == ("stuck-after-failover", "unconverged")
