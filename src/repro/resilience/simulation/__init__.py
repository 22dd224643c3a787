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

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "events": (
            "NemesisEvent", "events_to_jsonable", "events_from_jsonable", "PARTITION",
            "KILL_PRIMARY", "GPU_FAULT", "GPU_THROTTLE", "TRANSPORT_FAULTS", "LIMP_ENDPOINT",
            "STORAGE_TORN", "STORAGE_SLOW", "DRAIN_RESTORE", "MIGRATE", "BUG_DOUBLE_EXECUTE",
            "KILL_CLIENT", "TENANT_BUG", "OVERLOAD_STORM", "LIMP_STANDBY", "HA_PAIR_KINDS",
            "SINGLE_KINDS", "PARTITION_SHAPES", "TENANT_BUG_KINDS",
        ),
        "nemesis": ("generate_schedule",),
        "history": (
            "HistoryEvent", "HistoryRecorder", "classify_outcome", "EVENT_KINDS", "OUTCOME_OK",
            "OUTCOME_BUSY", "OUTCOME_NOT_LEADER", "OUTCOME_EXPIRED", "OUTCOME_CANCELLED",
            "OUTCOME_CUDA_ERROR", "OUTCOME_AMBIGUOUS",
        ),
        "checker": (
            "HistoryChecker", "Violation", "VIOLATION_KINDS", "FACT_RULES", "DOUBLE_EXECUTION",
            "LOST_ACKED_WRITE", "USE_AFTER_FREE", "POINTER_REUSE", "EPOCH_REGRESSION",
            "BYTES_UNACCOUNTED",
        ),
        "harness": (
            "SimulationPlan", "SimulationResult", "run_simulation", "TOPOLOGIES", "profile_plan",
            "run_profile",
        ),
        "profiles": ("Profile", "PROFILES", "COMPOSED"),
        "shrink": ("shrink_schedule", "save_trace", "load_trace", "replay_trace", "trace_jsonable"),
    },
)
