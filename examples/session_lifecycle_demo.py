#!/usr/bin/env python3
"""Session lifecycle: a crashed client leaks nothing.

A Cricket server is a multi-tenant resource: unikernel clients come and
go, and some of them go by crashing.  The ``client_kill`` nemesis profile
runs four clients on the deterministic simulator against a lease-enabled
server; ``kill_client`` events crash two of them mid-stream -- no
``cudaFree``, no goodbye.  The survivors heartbeat while the victims'
lease and grace lapse, the reaper orphans and then reclaims only the
dead, and the audit is judged: ``orphan-bytes`` if a dead session still
owns a byte, ``bytes-unaccounted`` if a survivor lost one.  In the
output, find the clients ``kill_client`` names and watch ``orphan_bytes``
stay 0.

(Leases, reattach-within-grace, admission control, quotas and graceful
drain are walked through in docs/ARCHITECTURE.md section 6 and exercised
one by one in tests/test_session_lifecycle.py.)

Run:  python examples/session_lifecycle_demo.py
(CHAOS_SEED=<n> varies the seed; ``python -m repro.resilience.simulation
--profile <name>`` soaks one profile over its CI seeds, shrinking and
saving a replayable trace if it ever fails.)
"""

from repro.resilience import chaos_seeds, run_profile

if __name__ == "__main__":
    result = run_profile("client_kill", chaos_seeds(default=(7,))[0])
    print(result.story())
    assert result.clean, result.violations
