"""Kernel execution watchdog over virtual time.

Real GPUs ship a timeout watchdog (the driver's TDR / Xid 8 machinery):
a kernel that runs past its budget is killed and the context reports
``cudaErrorLaunchTimeout``.  The simulator's analogue works on *virtual*
durations: every launch already computes the kernel's execution time from
the timing model, so a runaway kernel is one whose charged duration
exceeds the per-stream budget -- flagged at launch, surfaced at the next
synchronization point, and healed by the recovery ladder
(:mod:`repro.cricket.recovery`).

Hang kinds (the ``Stream.hang`` verdict):

* ``"budget"`` -- a real launch exceeded the watchdog budget.  The kernel
  still responds to the driver, so a *cooperative cancel* (ladder rung 1)
  clears it.
* ``"spin"`` -- an injected infinite-loop kernel (chaos hook).  Also
  cooperatively cancellable.
* ``"fused"`` -- an injected hard hang: the stream's execution engine no
  longer responds, so cancellation fails and the ladder must abort the
  stream (rung 2) or, on the un-abortable default stream, escalate to a
  context-level recovery (rungs 3-5).
"""

from __future__ import annotations

from repro.gpu.stream import Stream

#: valid ``Stream.hang`` verdicts
HANG_KINDS = ("spin", "budget", "fused")

#: hang kinds that respond to ladder rung 1 (cooperative cancellation)
COOPERATIVE_HANGS = frozenset({"spin", "budget"})


class KernelWatchdog:
    """Per-stream execution budget enforcement.

    One instance may be shared by every device on a node (the counters
    then aggregate node-wide, matching ``ServerStats``).
    """

    #: per-stream execution budget: 10 virtual milliseconds -- generous
    #: for the paper's kernels (microseconds to low milliseconds on an
    #: A100) yet far below the multi-second real-world TDR, keeping tests
    #: fast
    BUDGET_NS = 10_000_000

    def __init__(self) -> None:
        #: launches flagged as hung over the watchdog's lifetime
        self.hangs_flagged = 0

    def observe_launch(self, stream: Stream, duration_ns: int) -> bool:
        """Inspect one launch; flags the stream hung when over budget.

        Returns True when this launch tripped the watchdog.  The launch
        itself still returns success -- launches are asynchronous, exactly
        like real CUDA, so the timeout surfaces at the next sync.
        """
        if duration_ns > self.BUDGET_NS and stream.hang is None:
            stream.hang = "budget"
            self.hangs_flagged += 1
            return True
        return False

    def inject_hang(self, stream: Stream, kind: str = "spin") -> None:
        """Mark a stream hung without a launch (chaos hook)."""
        if kind not in HANG_KINDS:
            raise ValueError(f"unknown hang kind {kind!r} (want one of {HANG_KINDS})")
        if stream.hang is None:
            stream.hang = kind
            self.hangs_flagged += 1
