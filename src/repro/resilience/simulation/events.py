"""Nemesis event model: the composed adversary's vocabulary.

A nemesis schedule is a flat, ordered list of :class:`NemesisEvent`
values -- pure data, deliberately so: the simulation run is a function
of ``(topology, workload, seed)`` *through* this list, which is what
lets the shrinker substitute an arbitrary subsequence and re-run
without perturbing anything else.  Windowed faults (partitions,
limplocks, transport-fault storms) carry their duration in the event
itself rather than pairing an open/close event, so dropping one event
during shrinking never leaves a fault stuck open by accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# -- event kinds --------------------------------------------------------------

#: network cut between topology groups for ``duration_s`` (shape picks who)
PARTITION = "partition"
#: crash the current primary (``dangerous=True`` = mid-execution, the
#: executed-but-never-acked window); the witness-gated promote follows
KILL_PRIMARY = "kill_primary"
#: sticky device fault (ecc/context) on the leader + manual device failover
GPU_FAULT = "gpu_fault"
#: soft thermal throttle on the leader's serving device (doubles as a
#: brownout pressure signal); the operator fails the device over, unless
#: the server heals itself (``auto_recover``: ladder rung 0 preempts)
GPU_THROTTLE = "gpu_throttle"
#: FaultPlan-family transport faults (drops, dup replies, disconnects)
#: on one client's pipes (every client's, without ``client``) for
#: ``duration_s``
TRANSPORT_FAULTS = "transport_faults"
#: SlowFaultPlan limplock on one client's pipes for ``duration_s``;
#: ``path`` limps just that one of the client->server network paths
LIMP_ENDPOINT = "limp_endpoint"
#: arm ``count`` torn writes on the checkpoint store; ``restore=True``
#: instead tears the newest generation right now and restores from what
#: is left (it must land on the previous generation)
STORAGE_TORN = "storage_torn"
#: arm ``count`` slow fsyncs on the checkpoint store (drives the
#: checkpoint-latency SLO and with it brownout); with ``duration_s`` the
#: disk limps until it is replaced, whatever is still armed
STORAGE_SLOW = "storage_slow"
#: drain the server (checkpoint) and restore onto a fresh process
DRAIN_RESTORE = "drain_restore"
#: live-migrate the server to a fresh process (precopy / stop-and-copy /
#: cutover; clients follow transparently).  ``disconnect_at`` /
#: ``corrupt_at`` (send ordinals), ``kill_target`` and ``torn_journal``
#: (riding on the first fault) script wire and journal faults the
#: migration must resume through; ``retransmit`` re-sends a pre-migration
#: malloc, same xid, after cutover
MIGRATE = "migrate"
#: test-only: the current leader's next ``count`` executions run twice (a
#: wrapper the harness puts on its ``_execute``) -- the intentional bug
#: the checker/shrinker acceptance path catches
BUG_DOUBLE_EXECUTE = "bug_double_execute"
#: a workload client crashes mid-stream (no free, no goodbye); survivors
#: heartbeat while its lease and grace lapse, then the reaper runs
KILL_CLIENT = "kill_client"
#: a buggy co-tenant commits one of :data:`TENANT_BUG_KINDS` (``bug``)
#: against a sanitized, watchdog-armed server
TENANT_BUG = "tenant_bug"
#: open-loop arrivals at ``load`` times capacity through a real
#: ``OverloadQueue`` into ``dispatch_record`` (``hot`` scales tenant 0's
#: offered load, ``weights`` its WFQ shares)
OVERLOAD_STORM = "overload_storm"
#: the standby acknowledges every ship ``delay_s`` late (ha_pair)
LIMP_STANDBY = "limp_standby"

#: kinds the generator draws for the HA-pair topology
HA_PAIR_KINDS = (
    PARTITION,
    KILL_PRIMARY,
    GPU_FAULT,
    GPU_THROTTLE,
    TRANSPORT_FAULTS,
    LIMP_ENDPOINT,
    STORAGE_TORN,
    STORAGE_SLOW,
)

#: kinds the generator draws for the single-server topology (no standby
#: to kill or partition from, but operational events instead)
SINGLE_KINDS = (
    GPU_FAULT,
    GPU_THROTTLE,
    TRANSPORT_FAULTS,
    LIMP_ENDPOINT,
    STORAGE_TORN,
    STORAGE_SLOW,
    DRAIN_RESTORE,
    MIGRATE,
)

#: memory-safety and liveness bugs a ``tenant_bug`` event can commit
TENANT_BUG_KINDS = (
    "oob-write", "oob-read", "double-free", "use-after-free", "wild-write", "hang", "leak",
)

#: partition shapes drawn for the PARTITION kind (mirrors the PR-8 cuts)
PARTITION_SHAPES = (
    "primary_isolated",
    "standby_isolated",
    "witness_isolated",
    "heal_divergence",
)


@dataclass(frozen=True)
class NemesisEvent:
    """One scheduled adversary action at virtual time ``at_s``."""

    at_s: float
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {"at_s": self.at_s, "kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "NemesisEvent":
        return cls(
            at_s=float(data["at_s"]),
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
        )


def events_to_jsonable(events: list[NemesisEvent]) -> list[dict[str, Any]]:
    return [event.to_jsonable() for event in events]


def events_from_jsonable(data: list[dict[str, Any]]) -> list[NemesisEvent]:
    return [NemesisEvent.from_jsonable(entry) for entry in data]
