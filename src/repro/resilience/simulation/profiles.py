"""Nemesis profiles: one reliability story each, told on the one simulator.

A profile is a frozen constant -- a topology, a restricted event
alphabet *or* a pinned schedule, a workload shape, and the fact-rule
invariants the run must evaluate on top of the checker's base
properties.  It has no settable fields: ``SimulationPlan.profile`` names
one, the seed varies the workload (and whatever the events draw), and
everything else is in this table.  ``composed`` is the default -- every
fault model of the topology, no extra invariants.

Pure data over :mod:`~repro.resilience.simulation.events`; the harness
interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.resilience.health import BrownoutConfig, LatencySLO
from repro.resilience.simulation.events import (
    GPU_FAULT,
    GPU_THROTTLE,
    KILL_CLIENT,
    KILL_PRIMARY,
    LIMP_ENDPOINT,
    LIMP_STANDBY,
    MIGRATE,
    OVERLOAD_STORM,
    PARTITION,
    PARTITION_SHAPES,
    STORAGE_SLOW,
    STORAGE_TORN,
    TENANT_BUG,
    TENANT_BUG_KINDS,
    NemesisEvent,
)

#: the default profile: the full composed nemesis of the plan's topology
COMPOSED = "composed"


@dataclass(frozen=True)
class Profile:
    """One named nemesis profile (see the module docstring)."""

    #: topology it runs on; ``None`` leaves the choice to the plan
    topology: str | None = None
    #: kinds the generated schedule draws from (empty: the whole topology's)...
    alphabet: tuple[str, ...] = ()
    #: ...unless this pinned schedule runs instead
    schedule: tuple[NemesisEvent, ...] = ()
    #: ``mixed`` steps as they are, or ``measured`` for limplock phases
    #: (plus a checkpoint per step: ``checkpointing``; plus a hedged probe
    #: round per step: ``probing``)
    workload: str = "mixed"
    #: fact-rule violation kinds a run must have evidence to evaluate
    invariants: tuple[str, ...] = ()
    #: the seeds CI soaks (the legacy harness's historical list)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    #: ``SimulationPlan`` fields the profile fixes (a named profile tells
    #: one story: a shorter workload than composed's 60 steps carries it)
    plan: Mapping[str, Any] = field(default_factory=lambda: _STEPS)
    #: ``CricketServer`` arguments on top of the simulator's defaults
    server: Mapping[str, Any] = field(default_factory=dict)
    #: ``ReplicationLink`` arguments (ha_pair)
    link: Mapping[str, Any] = field(default_factory=dict)
    #: client->server network paths (single topology); with more than one,
    #: clients run outlier ejection over them
    paths: int = 1
    #: call priority of workload client ``i`` (cycled); brownout sheds
    #: low priorities and is only re-evaluated by calls that execute, so
    #: a profile that must see it *exit* keeps one client above the shed line
    priorities: tuple[int, ...] = (0,)


def _at(at_s: float, kind: str, **params: Any) -> NemesisEvent:
    return NemesisEvent(at_s=at_s, kind=kind, params=params)


#: leases long enough that only a *crashed* client ever lapses
_LEASES = {"lease_s": 30.0, "grace_s": 15.0}
_STEPS = {"steps": 40}

_OVERLOAD = dict(
    topology="single",
    invariants=("executed-expired", "queue-unbounded", "unfair-share"),
    seeds=(0, 3, 7, 12),
    plan={"steps": 12},
)
_PARTITION = dict(
    topology="ha_pair",
    invariants=("split-epoch", "stale-primary-executed", "unconverged"),
    seeds=tuple(range(8)),
)
_LIMPLOCK = ("undetected-in-budget", "false-ejection", "tail-unrecovered")

PROFILES: dict[str, Profile] = {
    COMPOSED: Profile(seeds=(0, 1, 2, 3, 7, 11), plan={}),
    # clients crash mid-stream; lease + grace lapse; the reaper must
    # return every byte they held and not one of a survivor's
    "client_kill": Profile(
        topology="single",
        alphabet=(KILL_CLIENT,),
        invariants=("orphan-bytes",),
        plan={"clients": 4, "nemesis_events": 2, **_STEPS},
        server=_LEASES,
    ),
    # the primary dies (half the time after executing, before replying)
    # and GPUs are poisoned: nothing lost, nothing executed twice
    "failover": Profile(
        topology="ha_pair",
        alphabet=(KILL_PRIMARY, GPU_FAULT),
        seeds=tuple(range(8)),
        plan={"clients": 3, "nemesis_events": 2, **_STEPS},
    ),
    # open-loop storms: no expired call executes, the queue stays
    # bounded, contended tenants share goodput within 2x
    **{
        f"overload_{load}x": Profile(
            schedule=(_at(1.0, OVERLOAD_STORM, load=float(load)),), **_OVERLOAD
        )
        for load in (1, 2, 5)
    },
    "overload_hot_tenant": Profile(
        schedule=(_at(1.0, OVERLOAD_STORM, load=5.0, hot=3.0),), **_OVERLOAD
    ),
    # the per-tenant bound is what binds, so the weight shows in goodput
    "overload_weighted": Profile(
        schedule=(
            _at(
                1.0, OVERLOAD_STORM,
                load=5.0, weights={"tenant0": 1.5}, depth=48, per_tenant=6,
            ),
        ),
        **{**_OVERLOAD, "seeds": (1, 4, 8, 13)},
    ),
    # a torn newest generation falls back to the previous one; a live
    # migration resumes from its cursor across two disconnects, a
    # corrupted chunk, a target kill and a torn journal append, and a
    # call retransmitted after cutover is answered from the migrated cache
    "migration": Profile(
        topology="single",
        schedule=(
            _at(3.0, STORAGE_TORN, restore=True),
            _at(
                6.0, MIGRATE,
                disconnect_at=[3, 6], corrupt_at=[2],
                kill_target=True, torn_journal=True, retransmit=True,
            ),
        ),
        invariants=(
            "torn-fallback",
            "migration-restarted",
            "pause-over-budget",
            "state-divergence",
        ),
        seeds=tuple(range(6)),
    ),
    # one buggy tenant commits every bug kind beside healthy neighbours
    # on a sanitized, watchdog-armed server; the leak goes last, so its
    # crash also reaps what the earlier bugs left allocated
    "buggy_tenant": Profile(
        topology="single",
        schedule=tuple(
            _at(1.5 * (slot + 1), TENANT_BUG, bug=bug)
            for slot, bug in enumerate(TENANT_BUG_KINDS)
        ),
        invariants=("bug-undetected", "cross-tenant-impact"),
        seeds=tuple(range(8)),
        plan={"clients": 3, **_STEPS},
        server={"sanitizer": True, "watchdog": True, **_LEASES},
    ),
    **{
        # one cut, longer than the witness lease: at most one server
        # accepts mutations per epoch and a demoted primary stays fenced
        f"partition_{shape}": Profile(
            schedule=(_at(4.0, PARTITION, shape=shape, duration_s=0.8),),
            **_PARTITION,
        )
        for shape in PARTITION_SHAPES
    },
    # limplocks -- nothing fails, something just gets slow -- must be
    # detected within budget, with no false alarm and a recovered tail:
    # one of three paths limps until the outlier ejector drops it
    "limplock_endpoint": Profile(
        topology="single",
        paths=3,
        workload="probing",
        schedule=(_at(2.0, LIMP_ENDPOINT, path=1, duration_s=8.0),),
        invariants=_LIMPLOCK,
    ),
    # a throttled GPU is preempted onto the clean spare by ladder rung 0
    "limplock_gpu": Profile(
        topology="single",
        workload="measured",
        schedule=(_at(4.0, GPU_THROTTLE, severity=4.0),),
        invariants=_LIMPLOCK,
        server={"auto_recover": True},
        priorities=(3, 0),
    ),
    # the checkpoint disk stalls twice in quick succession: brownout
    # enters once and leaves once (its dwell rides out the gap)
    "limplock_fsync": Profile(
        topology="single",
        workload="checkpointing",
        schedule=(
            _at(3.0, STORAGE_SLOW, count=1000, delay_s=0.2, duration_s=1.5),
            _at(4.8, STORAGE_SLOW, count=1000, delay_s=0.2, duration_s=1.5),
        ),
        invariants=(*_LIMPLOCK, "brownout-flap"),
        server={
            "checkpoint_slo": LatencySLO(target_p99_ns=int(50e6), min_samples=1),
            "brownout": BrownoutConfig(min_dwell_s=1.0),
        },
        priorities=(3,),
    ),
    # the standby acknowledges slowly: the ship-RTT SLO demotes the sync
    # link to async-lagged, which may cost lag but never state
    "limplock_standby": Profile(
        topology="ha_pair",
        workload="measured",
        schedule=(_at(4.0, LIMP_STANDBY, delay_s=0.02),),
        invariants=(*_LIMPLOCK, "state-divergence"),
        # demoted, the link batches ships; the lag drains at end of run
        link={
            "ship_slo": LatencySLO(target_p99_ns=int(5e6), min_samples=4),
            "demoted_max_lag": 512,
        },
    ),
}
