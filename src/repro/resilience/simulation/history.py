"""Client-edge history recording for deterministic simulation runs.

The recorder is the simulation's single source of truth: every semantic
operation a workload client performs becomes an ``invoke`` event at the
moment it is issued and a ``return`` event when it completes, stamped
with the virtual timestamp, the wire xid and a *typed* outcome --
``RPC_BUSY`` and ``RPC_NOT_LEADER`` sheds stay distinguishable from
ambiguous disconnects, because the checker must treat them completely
differently (a shed provably did not execute; a disconnect may have).
Server-side evidence rides in as ``execute`` events from
:attr:`repro.oncrpc.server.RpcServer.execution_taps`, one per *handler
execution* -- which is exactly what makes a double execution visible.

Raw xids come from a process-global counter, so two identical runs in
one process see different raw values; :meth:`HistoryRecorder.fingerprint`
therefore normalizes xids to per-client call ordinals (and server-side
identities to bound node names) before hashing.  Same ``(topology,
workload, seed)`` => same normalized history => same fingerprint,
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.oncrpc.errors import (
    RpcBusyError,
    RpcCallExpired,
    RpcCancelled,
    RpcError,
    RpcNotLeaderError,
)

# -- typed outcomes -----------------------------------------------------------

#: the call completed and its reply decoded
OUTCOME_OK = "ok"
#: shed with RPC_BUSY (overload / brownout / migration pause): not executed
OUTCOME_BUSY = "busy"
#: shed with RPC_NOT_LEADER by a fenced non-leader: not executed there
OUTCOME_NOT_LEADER = "not_leader"
#: refused with CALL_EXPIRED before execution
OUTCOME_EXPIRED = "expired"
#: aborted with CALL_CANCELLED
OUTCOME_CANCELLED = "cancelled"
#: the server executed the call and returned a CUDA-level error
OUTCOME_CUDA_ERROR = "cuda_error"
#: transport-level loss (disconnect, timeout, retries exhausted): the
#: call *may or may not* have executed -- the checker's "maybe" set
OUTCOME_AMBIGUOUS = "ambiguous"

#: event kinds appearing in a history; ``crash`` marks a server process
#: dying abruptly, the point after which its acknowledged-but-never-
#: replicated effects may legitimately be lost (the sync -> async trade
#: the replication link makes deliberately); ``observe`` carries the facts
#: a scenario event established, for the checker's fact rules to judge
EVENT_KINDS = ("invoke", "return", "execute", "audit", "crash", "observe")


def classify_outcome(exc: BaseException | None) -> tuple[str, bool]:
    """Map an exception from a client call to ``(outcome, ambiguous)``.

    ``ambiguous`` is True when the operation may have executed server-side
    even though the client saw a failure -- the property-checker must
    then accept either world.  Typed sheds are *not* ambiguous: the
    protocol guarantees a ``RPC_BUSY`` / ``RPC_NOT_LEADER`` /
    ``CALL_EXPIRED`` reply was produced instead of execution.
    """
    if exc is None:
        return OUTCOME_OK, False
    if isinstance(exc, RpcBusyError):
        return OUTCOME_BUSY, False
    if isinstance(exc, RpcNotLeaderError):
        return OUTCOME_NOT_LEADER, False
    if isinstance(exc, RpcCallExpired):
        return OUTCOME_EXPIRED, False
    if isinstance(exc, RpcCancelled):
        return OUTCOME_CANCELLED, False
    if type(exc).__name__ == "CudaError":
        # The server executed the handler and the device said no; checked
        # by name so this module never imports the Cricket/CUDA stack.
        return OUTCOME_CUDA_ERROR, False
    if isinstance(exc, RpcError):
        return OUTCOME_AMBIGUOUS, True
    return OUTCOME_AMBIGUOUS, True


@dataclass(frozen=True)
class HistoryEvent:
    """One entry of a simulation history.

    ``invoke``/``return`` pairs (linked by ``op_id``) are the client
    edge; ``execute`` events are the server edge; ``audit`` events carry
    end-of-run allocator totals for the byte accounting.  Fields not
    meaningful for a kind stay at their defaults so one flat record type
    serializes uniformly.
    """

    index: int
    t_ns: int
    kind: str
    node: str
    op: str = ""
    op_id: int = -1
    xid: int | None = None
    outcome: str | None = None
    ambiguous: bool = False
    args: dict[str, Any] = field(default_factory=dict)
    value: Any = None
    identity: str | None = None
    proc: int | None = None
    stat: int | None = None
    replica: bool = False
    epoch: int | None = None

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "index": self.index,
            "t_ns": self.t_ns,
            "kind": self.kind,
            "node": self.node,
        }
        if self.op:
            out["op"] = self.op
        if self.op_id >= 0:
            out["op_id"] = self.op_id
        for key in ("xid", "outcome", "identity", "proc", "stat", "epoch"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.ambiguous:
            out["ambiguous"] = True
        if self.replica:
            out["replica"] = True
        if self.args:
            out["args"] = dict(self.args)
        if self.value is not None:
            out["value"] = self.value
        return out


class HistoryRecorder:
    """Accumulates :class:`HistoryEvent` records over virtual time."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.events: list[HistoryEvent] = []
        self._next_op = 0
        #: server identity string -> stable node name (see bind_identity)
        self._identity_nodes: dict[str, str] = {}

    # -- client edge --------------------------------------------------------

    def invoke(self, node: str, op: str, **args: Any) -> int:
        """Record the start of a client operation; returns its op_id."""
        op_id = self._next_op
        self._next_op += 1
        self._append(
            kind="invoke", node=node, op=op, op_id=op_id, args=dict(args)
        )
        return op_id

    def complete(
        self,
        op_id: int,
        node: str,
        op: str,
        outcome: str,
        *,
        xid: int | None = None,
        value: Any = None,
        ambiguous: bool = False,
        epoch: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record the completion of operation ``op_id``."""
        self._append(
            kind="return",
            node=node,
            op=op,
            op_id=op_id,
            xid=xid,
            outcome=outcome,
            value=value,
            ambiguous=ambiguous,
            epoch=epoch,
            args=dict(args) if args else {},
        )

    # -- server edge --------------------------------------------------------

    def bind_identity(self, identity: str, node: str) -> None:
        """Declare that server-side ``identity`` is client ``node``."""
        self._identity_nodes[identity] = node

    def execution_tap(self, server_node: str):
        """Build a tap for ``RpcServer.execution_taps`` feeding this history."""

        def tap(
            identity: str, xid: int, proc: int, stat: int, replica: bool
        ) -> None:
            self._append(
                kind="execute",
                node=server_node,
                identity=identity,
                xid=xid,
                proc=proc,
                stat=stat,
                replica=replica,
            )

        return tap

    def crash(self, server_node: str) -> None:
        """Record the abrupt death of ``server_node`` (or of a client).

        Wired to :attr:`repro.oncrpc.server.RpcServer.on_kill` so the
        event lands exactly when the process dies -- after the doomed
        server's last execution, before any failover traffic.
        """
        self._append(kind="crash", node=server_node)

    def observe(self, node: str, what: str, **facts: Any) -> None:
        """Record the facts a scenario event established about ``node``."""
        self._append(kind="observe", node=node, op=what, args=facts)

    def audit(
        self, server_node: str, used_bytes: int, alignment: int = 256, **facts: Any
    ) -> None:
        """Record an end-of-run allocator audit for ``server_node``.

        ``facts`` are the cluster-wide end-of-run facts of a nemesis
        profile (orphan bytes, epoch sets, convergence, ...).
        """
        self._append(
            kind="audit",
            node=server_node,
            args={"used_bytes": used_bytes, "alignment": alignment, **facts},
        )

    # -- serialization ------------------------------------------------------

    def _append(self, **fields: Any) -> None:
        self.events.append(
            HistoryEvent(
                index=len(self.events), t_ns=self.clock.now_ns, **fields
            )
        )

    def normalized(self) -> list[dict[str, Any]]:
        """History as JSON-safe dicts with process-global state removed.

        Raw xids (from the process-wide counter) are rewritten to
        per-client call ordinals and execute-event identities to their
        bound node names, so two runs of the same seed in one process
        serialize identically.
        """
        # First pass: per client node, map raw xid -> issue ordinal.
        norm: dict[tuple[str, int], int] = {}
        counters: dict[str, int] = {}
        for event in self.events:
            if event.kind == "return" and event.xid is not None:
                key = (event.node, event.xid)
                if key not in norm:
                    counters[event.node] = counters.get(event.node, 0) + 1
                    norm[key] = counters[event.node]
        out = []
        for event in self.events:
            record = event.to_jsonable()
            if event.kind == "return" and event.xid is not None:
                record["xid"] = norm[(event.node, event.xid)]
            elif event.kind == "execute":
                node = self._identity_nodes.get(event.identity or "")
                if node is not None:
                    record["identity"] = node
                if (
                    node is not None
                    and event.xid is not None
                    and (node, event.xid) in norm
                ):
                    record["xid"] = norm[(node, event.xid)]
                elif event.xid is not None:
                    # Executed but never completed client-side (probe
                    # traffic, lost reply, run ended): normalize by
                    # dropping the raw value, keeping only its presence.
                    record["xid"] = -1
            out.append(record)
        return out

    def fingerprint(self) -> str:
        """SHA-256 over the normalized history -- the reproducibility bit."""
        payload = json.dumps(
            self.normalized(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()
