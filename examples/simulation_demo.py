#!/usr/bin/env python3
"""Deterministic cluster simulation: composed nemesis, checker, shrinker.

Jepsen-style testing compressed into one process over virtual time.  A
run is a *pure function* of ``(topology, workload, seed)``:

1. the composed nemesis interleaves every fault model in the repo --
   partitions, primary kills, GPU faults, limplocks, transport-fault
   storms, torn checkpoint storage, drain/restore, live migration;
2. a history recorder captures the client edge (typed outcomes: an
   ``RPC_BUSY`` shed stays distinguishable from an ambiguous disconnect)
   and the server edge (one ``execute`` event per handler execution);
3. the checker replays the history against a model virtual GPU
   (at-most-once, no lost acked writes, lifetime safety, monotonic
   epochs, byte accounting), and the same run twice leaves the same
   SHA-256 history fingerprint;
4. an intentionally armed double-execution bug is caught, delta-debugged
   down to a minimal schedule, saved as a JSON trace and replayed
   byte-for-byte;
5. every named nemesis profile -- client kills, failover, overload
   storms, migration, a buggy tenant, partitions, limplocks -- is the
   same loop under a restricted alphabet or pinned schedule, with its
   own fact-rule invariants judged by the same checker.

Run:  python examples/simulation_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

import os

from repro.resilience import chaos_seeds
from repro.resilience.simulation import (
    BUG_DOUBLE_EXECUTE,
    DOUBLE_EXECUTION,
    PROFILES,
    TOPOLOGIES,
    NemesisEvent,
    SimulationPlan,
    replay_trace,
    run_profile,
    run_simulation,
    save_trace,
    shrink_schedule,
)

TRACE_PATH = "nemesis-repro-trace.json"


def composed_runs(seed: int) -> None:
    """Both topologies survive the composed nemesis, reproducibly."""
    for topology in TOPOLOGIES:
        plan = SimulationPlan(topology=topology, seed=seed)
        result = run_simulation(plan)
        print(result.story())
        assert result.clean, result.violations
        assert result.fingerprint == run_simulation(plan).fingerprint


def catch_shrink_replay(seed: int) -> None:
    """The acceptance path: armed bug -> caught -> minimal -> replayed."""
    plan = SimulationPlan(topology="ha_pair", seed=seed)
    # Arm the bug before the nemesis's first move (generated events start
    # at 5% of the horizon): the leader is alive, so the doubled
    # execution provably happens.
    bug = NemesisEvent(plan.horizon_s * 0.02, BUG_DOUBLE_EXECUTE, {"count": 2})
    schedule = [bug, *run_simulation(plan).schedule]
    minimal, shrunk = shrink_schedule(plan, schedule, kinds=[DOUBLE_EXECUTION])
    assert minimal == [bug]
    print(f"[shrunk]  armed double-execution bug among {len(schedule)} events "
          f"caught and shrunk to {[e.kind for e in minimal]}")
    save_trace(TRACE_PATH, plan, minimal, shrunk)
    assert replay_trace(TRACE_PATH).fingerprint == shrunk.fingerprint
    os.remove(TRACE_PATH)  # a trace file means a failure; this was a drill
    print(f"[replay]  trace reproduced byte-for-byte "
          f"(fingerprint {shrunk.fingerprint[:16]}...)")


def main() -> None:
    seed = chaos_seeds(default=(0,))[0]
    composed_runs(seed)
    catch_shrink_replay(seed)
    for name in PROFILES:
        assert run_profile(name, seed).clean, name
    print(f"[profiles] all {len(PROFILES)} nemesis profiles clean at seed {seed}")


if __name__ == "__main__":
    main()
