"""``python -m repro.resilience.simulation --profile P [--seed N ...]``.

Runs one nemesis profile over its seeds (``--seed``, else
``CHAOS_SEED`` / ``REPRO_CHAOS_SEEDS``, else the profile's historical
CI list), twice each: a run must be clean *and* bit-reproducible.  The
``composed`` profile runs on every topology.  On the first failure the
schedule is shrunk and written to ``--trace`` as a replayable repro, and
the exit status is 1.
"""

from __future__ import annotations

import argparse
import sys

from repro.resilience.seeds import chaos_seeds
from repro.resilience.simulation import (
    COMPOSED,
    PROFILES,
    TOPOLOGIES,
    SimulationPlan,
    profile_plan,
    run_simulation,
    save_trace,
    shrink_schedule,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.resilience.simulation")
    parser.add_argument("--profile", default=COMPOSED, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--trace", default="nemesis-repro-trace.json")
    args = parser.parse_args(argv)
    seeds = args.seed or chaos_seeds(PROFILES[args.profile].seeds)
    plans = [profile_plan(args.profile, seed) for seed in seeds]
    if args.profile == COMPOSED:
        plans = [
            SimulationPlan(topology=topology, seed=seed)
            for seed in seeds
            for topology in TOPOLOGIES
        ]
    for plan in plans:
        result = run_simulation(plan)
        print(result.story())
        if result.fingerprint != run_simulation(plan).fingerprint:
            print("  NONDETERMINISTIC: the same plan left a different history")
            return 1
        if not result.clean:
            minimal, shrunk = shrink_schedule(plan, result.schedule)
            save_trace(args.trace, plan, minimal, shrunk)
            print(f"  shrunk {len(result.schedule)} -> {len(minimal)} events, "
                  f"trace at {args.trace}:")
            for violation in shrunk.violations:
                print(f"  {violation.kind}: {violation.detail}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
