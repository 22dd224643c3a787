"""Deterministic cluster simulation for the Cricket stack.

Jepsen-style testing, compressed into one process over virtual time:

* :mod:`~repro.resilience.simulation.nemesis` composes every fault
  model in the repo -- transport faults, partitions, limplock, storage
  faults, GPU faults, operational events -- into one seeded schedule;
* :mod:`~repro.resilience.simulation.history` records the client and
  server edges of a run with typed outcomes;
* :mod:`~repro.resilience.simulation.checker` validates the history
  against a model virtual GPU (at-most-once, no lost acked writes,
  lifetime safety, monotonic epochs, byte accounting);
* :mod:`~repro.resilience.simulation.harness` runs the whole thing as
  a pure function of ``(topology, workload, seed)``;
* :mod:`~repro.resilience.simulation.profiles` names the reliability
  stories -- client kills, failover, overload storms, migration, a buggy
  tenant, partitions, limplocks -- as restricted alphabets or pinned
  schedules plus fact-rule invariants on that same run
  (``python -m repro.resilience.simulation --profile P --seed N``);
* :mod:`~repro.resilience.simulation.shrink` delta-debugs a failing
  schedule down to a minimal replayable repro trace.
"""

from repro.resilience.simulation.checker import (
    BYTES_UNACCOUNTED,
    DOUBLE_EXECUTION,
    EPOCH_REGRESSION,
    FACT_RULES,
    LOST_ACKED_WRITE,
    POINTER_REUSE,
    USE_AFTER_FREE,
    VIOLATION_KINDS,
    HistoryChecker,
    Violation,
)
from repro.resilience.simulation.events import (
    BUG_DOUBLE_EXECUTE,
    DRAIN_RESTORE,
    GPU_FAULT,
    GPU_THROTTLE,
    HA_PAIR_KINDS,
    KILL_CLIENT,
    KILL_PRIMARY,
    LIMP_ENDPOINT,
    LIMP_STANDBY,
    MIGRATE,
    OVERLOAD_STORM,
    PARTITION,
    PARTITION_SHAPES,
    SINGLE_KINDS,
    STORAGE_SLOW,
    STORAGE_TORN,
    TENANT_BUG,
    TENANT_BUG_KINDS,
    TRANSPORT_FAULTS,
    NemesisEvent,
    events_from_jsonable,
    events_to_jsonable,
)
from repro.resilience.simulation.harness import (
    TOPOLOGIES,
    SimulationPlan,
    SimulationResult,
    profile_plan,
    run_profile,
    run_simulation,
)
from repro.resilience.simulation.history import (
    EVENT_KINDS,
    OUTCOME_AMBIGUOUS,
    OUTCOME_BUSY,
    OUTCOME_CANCELLED,
    OUTCOME_CUDA_ERROR,
    OUTCOME_EXPIRED,
    OUTCOME_NOT_LEADER,
    OUTCOME_OK,
    HistoryEvent,
    HistoryRecorder,
    classify_outcome,
)
from repro.resilience.simulation.nemesis import generate_schedule
from repro.resilience.simulation.profiles import COMPOSED, PROFILES, Profile
from repro.resilience.simulation.shrink import (
    load_trace,
    replay_trace,
    save_trace,
    shrink_schedule,
    trace_jsonable,
)

__all__ = [
    # events / nemesis
    "NemesisEvent",
    "generate_schedule",
    "events_to_jsonable",
    "events_from_jsonable",
    "PARTITION",
    "KILL_PRIMARY",
    "GPU_FAULT",
    "GPU_THROTTLE",
    "TRANSPORT_FAULTS",
    "LIMP_ENDPOINT",
    "STORAGE_TORN",
    "STORAGE_SLOW",
    "DRAIN_RESTORE",
    "MIGRATE",
    "BUG_DOUBLE_EXECUTE",
    "KILL_CLIENT",
    "TENANT_BUG",
    "OVERLOAD_STORM",
    "LIMP_STANDBY",
    "HA_PAIR_KINDS",
    "SINGLE_KINDS",
    "PARTITION_SHAPES",
    "TENANT_BUG_KINDS",
    # history
    "HistoryEvent",
    "HistoryRecorder",
    "classify_outcome",
    "EVENT_KINDS",
    "OUTCOME_OK",
    "OUTCOME_BUSY",
    "OUTCOME_NOT_LEADER",
    "OUTCOME_EXPIRED",
    "OUTCOME_CANCELLED",
    "OUTCOME_CUDA_ERROR",
    "OUTCOME_AMBIGUOUS",
    # checker
    "HistoryChecker",
    "Violation",
    "VIOLATION_KINDS",
    "FACT_RULES",
    "DOUBLE_EXECUTION",
    "LOST_ACKED_WRITE",
    "USE_AFTER_FREE",
    "POINTER_REUSE",
    "EPOCH_REGRESSION",
    "BYTES_UNACCOUNTED",
    # harness
    "SimulationPlan",
    "SimulationResult",
    "run_simulation",
    "TOPOLOGIES",
    # profiles
    "Profile",
    "PROFILES",
    "COMPOSED",
    "profile_plan",
    "run_profile",
    # shrinking / traces
    "shrink_schedule",
    "save_trace",
    "load_trace",
    "replay_trace",
    "trace_jsonable",
]
