#!/usr/bin/env python3
"""Split-brain protection: witness leases, epoch fencing, partitions.

A network *partition* leaves a primary alive -- still serving its side of
the cut while a failing-over client promotes the standby on the other
side.  Without protection that is split-brain: two servers acknowledging
mutations, state diverging, the losing side's acked writes silently lost
at heal.  The four ``partition_*`` nemesis profiles cut a witness-fenced
HA pair on the deterministic simulator -- primary isolated, standby
isolated, witness isolated, and the divergence attempt (the primary
keeps its clients but loses standby *and* witness) -- for longer than
the leadership lease.  The primary that cannot renew self-fences and
sheds mutations with the typed, retryable ``RPC_NOT_LEADER``; clients
follow the redirect; the standby wins the next epoch once the stale
lease lapses.  The audit is judged: no epoch served by two servers
(``split_epochs``), no mutation executed by a demoted primary after heal
(``stale_executions``), every client converged -- on top of no lost
acknowledged write and no unaccounted byte.

(docs/ARCHITECTURE.md section 11; tests/test_split_brain.py exercises the
witness, the fence, epoch-stamped ships and checkpoints one by one.)

Run:  python examples/split_brain_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    for profile in (
        "partition_primary_isolated", "partition_standby_isolated",
        "partition_witness_isolated", "partition_heal_divergence",
    ):
        result = run_profile(profile, chaos_seeds(default=(2,))[0])
        print(result.story())
        assert result.clean, result.violations
