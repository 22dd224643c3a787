"""History checker: validate a recorded run against a model virtual GPU.

The checker replays the client-edge history (``invoke``/``return``
pairs) through a small state machine per device pointer -- Jepsen would
call this P-compositional checking: because CUDA allocations never
alias, read-your-writes and lifetime safety decompose into one
independent check per pointer, which keeps the whole thing linear in
the history length instead of exponential in interleavings.

Checked properties:

* **at-most-once execution** -- per ``(server, identity, xid)`` the
  handler ran at most once.  Server-side ``execute`` events are the
  evidence stream (one per handler execution; reply-cache hits never
  fire one), ``replica_apply`` events are replication and exempt.
  Failover legitimately re-executes an ambiguous call on the *new*
  leader, so the key includes the server: cross-server duplicates are
  instead caught by the state properties below.
* **no lost acked writes** -- a successful D2H must return a payload
  consistent with the acknowledged H2D writes to that pointer; writes
  whose outcome was ambiguous widen the acceptable set instead of
  inventing false positives.
* **malloc/free lifetime safety** -- operations that *succeed* against
  a provably-freed pointer (double free, read/write after free) are
  violations; a failed attempt is the system working.
* **pointer uniqueness** -- malloc returning a pointer the model still
  holds live means an acknowledged allocation silently vanished.
* **monotonic leader epochs** -- the epoch a client observes on
  successful calls never decreases.
* **byte accounting** -- the final leader's allocator may hold exactly
  the acknowledged live bytes, plus at most the bytes of ambiguous
  allocations/frees (the "maybe" set).

Profile invariants: scenario events (an overload storm, a faulted
migration, a tenant bug, a limplock under watch) leave ``observe``
events carrying plain *facts*, and the end-of-run ``audit`` carries the
cluster-wide ones.  :data:`FACT_RULES` is the one table that judges
them -- each rule names the violation it raises and the predicate that
must hold of the facts it reads -- so a profile failure is
a :class:`Violation` like any other and shrinks and replays the same.

Crash-coupled durability: the replication link trades durability for
availability *deliberately* -- a witness-blessed primary that cannot
reach its standby detaches and keeps acknowledging, and a demoted
(async-lagged) link acknowledges ahead of shipping.  Ops acked in those
windows die with the primary.  The checker models exactly that contract:
every acked mutation is attributed to the server that executed it (the
``execute`` evidence stream) and marked *covered* once a matching
``replica_apply`` lands elsewhere; when a ``crash`` event arrives, the
dead server's uncovered effects become may-or-may-not worlds (widened
read sets, limbo pointers) instead of certainties.  A lost write on a
server that never crashed is still a violation -- the forgiveness is
scoped to the documented failure mode, nothing wider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.resilience.simulation.history import (
    OUTCOME_CUDA_ERROR,
    OUTCOME_OK,
    HistoryEvent,
)

# -- violation kinds ----------------------------------------------------------

DOUBLE_EXECUTION = "double-execution"
LOST_ACKED_WRITE = "lost-acked-write"
USE_AFTER_FREE = "use-after-free"
POINTER_REUSE = "pointer-reuse"
EPOCH_REGRESSION = "epoch-regression"
BYTES_UNACCOUNTED = "bytes-unaccounted"



def _fair_share(facts: dict[str, Any]) -> bool:
    """Max/min goodput within 2x among tenants with materially unmet demand.

    A tenant whose demand was (90 %) served cannot be a fairness victim
    or culprit -- at 1x load a hot tenant *should* get its multiple.
    """
    contended = [
        good
        for tenant, good in facts["goodput"].items()
        if good < 0.9 * facts["offered"][tenant]
    ]
    return len(contended) < 2 or max(contended) <= 2.0 * min(contended)


#: ``(violation kind, what must hold of the facts)``; a rule applies to
#: every event that carries the facts it reads
FACT_RULES: tuple[tuple[str, Callable[[dict[str, Any]], bool]], ...] = (
    ("orphan-bytes", lambda f: f["orphan_bytes"] == 0),
    ("executed-expired", lambda f: f["executed_expired"] == 0),
    ("queue-unbounded", lambda f: f["peak_depth"] <= f["depth_bound"]),
    ("unfair-share", _fair_share),
    ("bug-undetected", lambda f: f["bug_detected"]),
    ("cross-tenant-impact", lambda f: f["healthy_errors"] == 0 and f["devices_healthy"]),
    (
        # resumed from the last ack to completion: BEGIN crossed the wire
        # once and the receiver absorbed no redelivery of an acked chunk
        "migration-restarted",
        lambda f: f["completed"]
        and f["begin_deliveries"] == 1
        and f["duplicates"] == 0
        and (f["faults"] == 0 or f["resumes"] > 0),
    ),
    ("pause-over-budget", lambda f: f["pause_ns"] <= f["pause_budget_ns"]),
    ("torn-fallback", lambda f: f["fell_back"]),
    ("split-epoch", lambda f: not f["split_epochs"]),
    ("stale-primary-executed", lambda f: f["stale_executions"] == 0),
    ("unconverged", lambda f: f["converged"]),
    ("stuck-after-failover", lambda f: f["stuck_ops"] == 0),
    ("undetected-in-budget", lambda f: 0 <= f["detect_ns"] <= f["detect_budget_ns"]),
    ("false-ejection", lambda f: not f["false_ejections"]),
    ("brownout-flap", lambda f: f["brownout_entries"] <= 1 and f["brownout_exits"] <= 1),
    # every brownout the run entered has ended by the audit
    ("brownout-stuck", lambda f: f["brownout_exits"] == f["brownout_entries"]),
    ("tail-unrecovered", lambda f: f["recovery_p99_ns"] <= 2 * max(f["baseline_p99_ns"], 1)),
    ("state-divergence", lambda f: not f["diverged"]),
)

VIOLATION_KINDS = (
    DOUBLE_EXECUTION,
    LOST_ACKED_WRITE,
    USE_AFTER_FREE,
    POINTER_REUSE,
    EPOCH_REGRESSION,
    BYTES_UNACCOUNTED,
    *(kind for kind, _holds in FACT_RULES),
)


@dataclass(frozen=True)
class Violation:
    """One checker finding, anchored to the history event that proved it."""

    kind: str
    detail: str
    node: str
    index: int

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "node": self.node,
            "index": self.index,
        }


def _aligned(size: int, alignment: int) -> int:
    return max(1, (size + alignment - 1) // alignment * alignment)


@dataclass
class _Pointer:
    """Model state for one device allocation."""

    size: int
    #: client node whose malloc this is (a crashed client's go with it)
    owner: str
    #: acceptable readback payloads (hex); None = never written (any
    #: readback is acceptable until the first acked write)
    candidates: set[str] | None = None


class HistoryChecker:
    """Validates one history; :meth:`check` returns the violations found."""

    def __init__(self, *, alignment: int = 256) -> None:
        self.alignment = alignment
        #: fact-rule violation kinds the last :meth:`check` had evidence
        #: for -- a profile naming an invariant nothing evaluated is vacuous
        self.evaluated: set[str] = set()

    def _judge(self, event: HistoryEvent, violations: list[Violation]) -> None:
        """Apply every fact rule the event's facts make applicable."""
        facts = event.args
        for kind, holds in FACT_RULES:
            try:
                held = holds(facts)
            except KeyError:
                continue  # not a fact of this event
            self.evaluated.add(kind)
            if not held:
                violations.append(
                    Violation(
                        kind=kind,
                        detail=f"{event.op or event.kind}: {facts}",
                        node=event.node,
                        index=event.index,
                    )
                )

    def check(self, events: list[HistoryEvent]) -> list[Violation]:
        violations: list[Violation] = []
        self.evaluated = set()
        # (server, identity, xid) -> index of the first fresh execution
        executed: dict[tuple[str, str, int], int] = {}
        # pointer model, keyed by device address
        live: dict[int, _Pointer] = {}
        #: pointers whose free was ambiguous: maybe freed, maybe not
        limbo: dict[int, _Pointer] = {}
        #: pointers whose free the system acknowledged
        freed: set[int] = set()
        #: bytes that *may* be allocated server-side without a client ptr
        ambiguous_alloc_bytes = 0
        epochs: dict[str, int] = {}
        invokes: dict[int, HistoryEvent] = {}
        #: xids whose execution provably reached a replica
        covered: set[int] = set()
        #: xid -> node of its latest fresh execution (the serving server)
        served_by: dict[int, str] = {}
        #: per server, acked-mutation effects not replica-covered, in
        #: history order: ``(xid, op, ptr, stash)``
        at_risk: dict[str, list[tuple[int, str, int, Any]]] = {}

        for event in events:
            if event.kind == "invoke":
                invokes[event.op_id] = event
            elif event.kind == "execute":
                if event.replica:
                    if event.xid is not None:
                        covered.add(event.xid)
                    continue
                if event.xid is not None:
                    served_by[event.xid] = event.node
                key = (event.node, event.identity or "", event.xid or 0)
                if key in executed:
                    violations.append(
                        Violation(
                            kind=DOUBLE_EXECUTION,
                            detail=(
                                f"xid {event.xid} of {event.identity} executed "
                                f"again on {event.node} (first at event "
                                f"{executed[key]})"
                            ),
                            node=event.node,
                            index=event.index,
                        )
                    )
                else:
                    executed[key] = event.index
            elif event.kind == "return":
                call = invokes.get(event.op_id)
                args = dict(call.args) if call is not None else {}
                args.update(event.args)
                effects: list[tuple[str, int, Any]] = []
                self._apply_return(
                    event,
                    args,
                    violations,
                    live,
                    limbo,
                    freed,
                    effects,
                )
                if effects and event.xid is not None:
                    server = served_by.get(event.xid)
                    if server is not None and event.xid not in covered:
                        at_risk.setdefault(server, []).extend(
                            (event.xid, op, ptr, stash)
                            for op, ptr, stash in effects
                        )
                if event.ambiguous and event.op == "malloc":
                    ambiguous_alloc_bytes += _aligned(
                        int(args.get("size", 0)), self.alignment
                    )
                if event.epoch is not None and event.outcome == OUTCOME_OK:
                    last = epochs.get(event.node)
                    if last is not None and event.epoch < last:
                        violations.append(
                            Violation(
                                kind=EPOCH_REGRESSION,
                                detail=(
                                    f"{event.node} observed epoch {event.epoch} "
                                    f"after {last}"
                                ),
                                node=event.node,
                                index=event.index,
                            )
                        )
                    epochs[event.node] = max(last or 0, event.epoch)
            elif event.kind == "crash":
                # The dead server's uncovered acks are now maybe-lost:
                # downgrade each effect from a certainty to a both-worlds
                # state.  Effects whose xid got replica coverage (even
                # after the ack, via a demoted/lagged ship) stay certain.
                for xid, op, ptr, stash in at_risk.pop(event.node, []):
                    if xid in covered:
                        continue
                    if op == "malloc":
                        if live.get(ptr) is stash:
                            limbo[ptr] = live.pop(ptr)
                    elif op == "h2d":
                        entry, prior = stash
                        current = live.get(ptr) or limbo.get(ptr)
                        if current is entry and entry.candidates is not None:
                            if prior is None:
                                entry.candidates = None
                            else:
                                entry.candidates |= prior
                    elif op == "free":
                        if (
                            ptr in freed
                            and ptr not in live
                            and ptr not in limbo
                        ):
                            freed.discard(ptr)
                            limbo[ptr] = stash
                # A crashed *client*'s allocations are the reaper's to
                # reclaim: the model forgets them, and whatever the reaper
                # leaves behind is the audit's ``orphan_bytes``.
                for table in (live, limbo):
                    for ptr in [p for p, e in table.items() if e.owner == event.node]:
                        del table[ptr]
            elif event.kind == "audit":
                used = int(event.args.get("used_bytes", 0)) - int(
                    event.args.get("orphan_bytes", 0)
                )
                alignment = int(event.args.get("alignment", self.alignment))
                certain = sum(
                    _aligned(p.size, alignment) for p in live.values()
                )
                slack = ambiguous_alloc_bytes + sum(
                    _aligned(p.size, alignment) for p in limbo.values()
                )
                if not certain <= used <= certain + slack:
                    violations.append(
                        Violation(
                            kind=BYTES_UNACCOUNTED,
                            detail=(
                                f"{event.node} holds {used} bytes; model "
                                f"allows [{certain}, {certain + slack}]"
                            ),
                            node=event.node,
                            index=event.index,
                        )
                    )
                self._judge(event, violations)
            elif event.kind == "observe":
                self._judge(event, violations)
        return violations

    # -- per-pointer state machine ------------------------------------------

    def _apply_return(
        self,
        event: HistoryEvent,
        args: dict[str, Any],
        violations: list[Violation],
        live: dict[int, _Pointer],
        limbo: dict[int, _Pointer],
        freed: set[int],
        effects: list[tuple[str, int, Any]],
    ) -> None:
        """Apply one return event to the pointer model.

        Successful mutations additionally append an *effect record*
        ``(op, ptr, stash)`` to ``effects`` -- enough state for the
        caller to undo the certainty later, should the serving server
        crash with the op never replica-covered (see ``check``).
        """
        op = event.op
        ok = event.outcome == OUTCOME_OK

        if op == "malloc":
            if not ok:
                return
            ptr = int(event.value)
            size = int(args.get("size", 0))
            if ptr in live:
                violations.append(
                    Violation(
                        kind=POINTER_REUSE,
                        detail=(
                            f"malloc returned {ptr:#x} which the model still "
                            "holds live -- an acked allocation vanished"
                        ),
                        node=event.node,
                        index=event.index,
                    )
                )
            limbo.pop(ptr, None)
            freed.discard(ptr)
            live[ptr] = _Pointer(size=size, owner=event.node)
            effects.append(("malloc", ptr, live[ptr]))
            return

        ptr = args.get("ptr")
        if ptr is None:
            return
        ptr = int(ptr)

        if op == "free":
            if ok:
                if ptr in live:
                    effects.append(("free", ptr, live.pop(ptr)))
                    freed.add(ptr)
                elif ptr in limbo:
                    # The earlier ambiguous free evidently did not land;
                    # this one did.
                    effects.append(("free", ptr, limbo.pop(ptr)))
                    freed.add(ptr)
                else:
                    violations.append(
                        Violation(
                            kind=USE_AFTER_FREE,
                            detail=f"free of already-freed {ptr:#x} succeeded",
                            node=event.node,
                            index=event.index,
                        )
                    )
            elif event.ambiguous and ptr in live:
                limbo[ptr] = live.pop(ptr)
            # A *failed* free of a freed pointer is the system behaving.
            return

        if op == "h2d":
            payload = str(args.get("data", ""))
            if ok:
                if ptr in live:
                    entry = live[ptr]
                    prior = (
                        set(entry.candidates)
                        if entry.candidates is not None
                        else None
                    )
                    entry.candidates = {payload}
                    effects.append(("h2d", ptr, (entry, prior)))
                elif ptr in limbo:
                    # A successful write proves it was never freed.
                    entry = limbo.pop(ptr)
                    prior = (
                        set(entry.candidates)
                        if entry.candidates is not None
                        else None
                    )
                    entry.candidates = {payload}
                    live[ptr] = entry
                    effects.append(("h2d", ptr, (entry, prior)))
                elif ptr in freed:
                    violations.append(
                        Violation(
                            kind=USE_AFTER_FREE,
                            detail=f"write to freed {ptr:#x} succeeded",
                            node=event.node,
                            index=event.index,
                        )
                    )
            elif event.ambiguous or event.outcome == OUTCOME_CUDA_ERROR:
                # May or may not have written: both payloads acceptable.
                entry = live.get(ptr) or limbo.get(ptr)
                if entry is not None and entry.candidates is not None:
                    entry.candidates.add(payload)
            return

        if op == "d2h":
            if not ok:
                return
            if ptr in freed:
                violations.append(
                    Violation(
                        kind=USE_AFTER_FREE,
                        detail=f"read of freed {ptr:#x} succeeded",
                        node=event.node,
                        index=event.index,
                    )
                )
                return
            entry = live.get(ptr) or limbo.get(ptr)
            if entry is None:
                return
            data = str(event.value)
            if entry.candidates is not None and data not in entry.candidates:
                expected = sorted(entry.candidates)
                violations.append(
                    Violation(
                        kind=LOST_ACKED_WRITE,
                        detail=(
                            f"readback of {ptr:#x} returned "
                            f"{data[:32]!r}..., model allows "
                            f"{[e[:16] for e in expected]!r}"
                        ),
                        node=event.node,
                        index=event.index,
                    )
                )
            # Reads are linearization points: later reads must agree
            # until the next write.
            entry.candidates = {data}
            return
