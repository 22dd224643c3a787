#!/usr/bin/env python3
"""Overload control: a hot tenant is fairly throttled, not a noisy winner.

One Cricket server, three tenants, open-loop load at five times the
server's capacity -- the regime where an unprotected server queues
without bound and serves work nobody is still waiting for.  Two overload
nemesis profiles fire an ``overload_storm`` event inside an ordinary
simulated run (real ``OverloadQueue``, real ``dispatch_record``):

1. ``overload_hot_tenant`` -- equal weights, tenant0 offering 3x everyone
   else's load, yet per-client queue bounds + weighted fair dequeue hold
   every contended tenant's goodput within 2x of each other.  The excess
   is shed as typed, retryable ``RPC_BUSY``; calls whose deadline lapses
   in queue are dropped *before* execution, never after.
2. ``overload_weighted`` -- tenant0 at weight 1.5 with the per-tenant
   bound binding: it drains proportionally faster, still bounded.

Read ``goodput`` against ``offered`` in the ``overload_storm`` facts; the
checker judges ``executed-expired``, ``queue-unbounded`` and
``unfair-share`` next to the usual properties of the clients working
beside the storm.  (docs/ARCHITECTURE.md section 8; tests/test_overload.py.)

Run:  python examples/overload_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    for profile in ("overload_hot_tenant", "overload_weighted"):
        result = run_profile(profile, chaos_seeds(default=(7,))[0])
        print(result.story())
        assert result.clean, result.violations
