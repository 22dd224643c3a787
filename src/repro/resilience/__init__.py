"""Resilience for the CUDA-over-RPC path.

Every CUDA call in this reproduction crosses a (simulated or real) network
to a remote Cricket server -- a hostile boundary where requests vanish,
replies arrive twice, connections reset and servers die.  This package
makes that boundary survivable and, crucially, *measurable*:

* :mod:`repro.resilience.faults` -- a deterministic, seed-driven
  :class:`FaultInjectingTransport` wrapping any transport with drop /
  delay / truncate / disconnect / duplicate-reply faults, the limplock
  :class:`SlowTransport` (everything succeeds, slowly), and one
  :class:`FaultyEndpoint` that hands out either kind per connection of a
  failover endpoint behind a single fault-window switch,
* :mod:`repro.resilience.retry` -- :class:`RetryPolicy`: exponential
  backoff with reproducible jitter and a per-call deadline budget, all
  charged to the experiment's :class:`~repro.net.simclock.SimClock` so
  resilience overhead shows up in the figures instead of being hand-waved,
* :mod:`repro.resilience.reconnect` -- :class:`ReconnectingTransport`
  with a :class:`CircuitBreaker` for real TCP connections, and
  :mod:`repro.resilience.failover` -- :class:`FailoverTransport` rotating
  it over an endpoint list (every ``reconnect`` takes ``force=``),
* :mod:`repro.resilience.stats` -- :class:`ResilienceStats` counters
  surfaced through :mod:`repro.core.tracing`,
* :mod:`repro.resilience.overload` -- server-side overload control:
  bounded admission queues that refuse the newest arrival when full
  (:class:`OverloadConfig`), weighted fair queueing, deadline-aware
  dequeue and cooperative cancellation
  (:class:`CancelToken` / :class:`CallCancelledError`),
* :mod:`repro.resilience.simulation` -- the one reliability oracle: a
  deterministic cluster simulation whose nemesis profiles
  (:data:`PROFILES`, :func:`run_profile`) replay every failure story in
  the repo against a model-GPU history checker, and shrink what fails.

Safety depends on the server side too: :class:`~repro.oncrpc.server.RpcServer`
keeps an at-most-once reply cache keyed by (client, xid), so a retried
non-idempotent call (``cuMemAlloc``, ``cuLaunchKernel``) is answered from
the cache instead of being executed twice.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "faults": (
            "FaultPlan", "FaultInjectingTransport", "PartitionWindow", "PartitionPlan",
            "PartitionState", "SlowFaultPlan", "SlowTransport", "StorageFaultPlan", "FaultyStorage",
            "FaultyEndpoint",
        ),
        "retry": ("RetryPolicy", "DEFAULT_RETRY_POLICY", "is_retryable"),
        "reconnect": ("CircuitBreaker", "ReconnectingTransport", "null_probe"),
        "failover": ("FailoverTransport", "LoopbackEndpoint", "TcpEndpoint"),
        "stats": ("ResilienceStats", "ServerStats"),
        "overload": (
            "OverloadConfig", "OverloadQueue", "OverloadController", "Refusal", "CancelToken",
            "CallCancelledError",
        ),
        "health": (
            "LatencyHistogram", "HealthTracker", "LatencySLO", "EjectionDecision", "OutlierEjector",
            "BrownoutConfig", "BrownoutController",
        ),
        "seeds": ("CHAOS_SEEDS_ENV", "CHAOS_SEED_ENV", "chaos_seeds", "parse_chaos_seeds"),
        "simulation": (
            "NemesisEvent", "generate_schedule", "HistoryEvent", "HistoryRecorder",
            "classify_outcome", "HistoryChecker", "Violation", "SimulationPlan", "SimulationResult",
            "run_simulation", "PROFILES", "run_profile", "shrink_schedule", "save_trace",
            "load_trace", "replay_trace",
        ),
    },
)
