#!/usr/bin/env python3
"""High availability: hot-standby replication and transparent failover.

A single Cricket server is a single point of failure for every unikernel
whose GPU lives behind it.  The ``failover`` nemesis profile runs three
clients against a replicated, witness-fenced primary/standby pair on the
deterministic simulator while the nemesis draws from ``{kill_primary,
gpu_fault}``: the primary dies -- half the time *after executing but
before answering* a call, the worst window for at-most-once -- and sticky
ECC/context faults poison GPUs until the workload fails over to the
spare.  The history checker judges the run against a model GPU: no
acknowledged write lost, no call executed twice (the standby answers the
retransmission from its replicated reply cache), every byte accounted
for, and the clients converged on the surviving leader.

(The replication link, the dangerous kill window and device failover are
walked through in docs/ARCHITECTURE.md section 7 and exercised one by one
in tests/test_replication_failover.py.)

Run:  python examples/failover_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    result = run_profile("failover", chaos_seeds(default=(1,))[0])
    print(result.story())
    assert result.clean, result.violations
