#!/usr/bin/env python3
"""Device-memory sanitizer, kernel watchdog and the fault-recovery ladder.

The Cricket server cannot trust the pointers and lengths tenants send,
and a hung kernel must not wedge the device for everyone.  The
``buggy_tenant`` nemesis profile runs one deliberately buggy tenant
beside three healthy clients on a sanitized, watchdog-armed simulated
server.  Seven ``tenant_bug`` events commit every bug class --
out-of-bounds write and read, double free, use-after-free, a wild kernel
write into a redzone, a hung kernel, a leaked allocation -- and each must
draw its typed verdict (``bug_detected`` in the output): a sanitizer
violation attributed to the tenant's allocation site, a watchdog hang the
staged recovery ladder cancels, a leak report when the crashed tenant's
session is reclaimed.  Meanwhile the healthy tenants must complete every
call with their data intact and every device must end healthy -- no
restart at any point (``cross-tenant-impact`` otherwise).

(docs/ARCHITECTURE.md section 10; tests/test_sanitizer.py and
tests/test_sticky_faults.py exercise redzones, quarantine, the watchdog
and every ladder rung one by one.)

Run:  python examples/sanitizer_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    result = run_profile("buggy_tenant", chaos_seeds(default=(7,))[0])
    print(result.story())
    assert result.clean, result.violations
