#!/usr/bin/env python3
"""Gray-failure detection: latency SLOs, outlier ejection and brownout.

A *gray* failure passes every binary check -- the limping NIC, the
thermally throttled GPU, the disk whose fsync takes 200 ms -- while
quietly destroying tail latency ("limplock": slow is the new down).  The
four ``limplock_*`` nemesis profiles inject one each into a simulated
run whose every step is timed (baseline / faulted / recovery):

1. ``limplock_endpoint`` -- one of three client->server paths limps;
   hedged probe rounds feed the Envoy-style outlier ejector, which drops
   the statistical outlier from rotation;
2. ``limplock_gpu`` -- a throttled (still "healthy"!) GPU is preemptively
   failed over to the clean spare by the recovery ladder's rung 0;
3. ``limplock_fsync`` -- the checkpoint disk stalls twice in quick
   succession; the checkpoint-latency SLO drives the server into staged
   brownout, and hysteresis walks it back out once -- no flapping;
4. ``limplock_standby`` -- the standby acknowledges slowly; the ship-RTT
   SLO demotes the synchronous link to async-lagged (latency traded for
   lag, never for state).

Read ``detect_ns`` against ``detect_budget_ns`` and ``recovery_p99_ns``
against ``baseline_p99_ns`` in each audit.  (docs/ARCHITECTURE.md section
12; tests/test_health.py exercises each detector one by one.)

Run:  python examples/gray_failure_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    for profile in (
        "limplock_endpoint", "limplock_gpu",
        "limplock_fsync", "limplock_standby",
    ):
        result = run_profile(profile, chaos_seeds(default=(2,))[0])
        print(result.story())
        assert result.clean, result.violations
