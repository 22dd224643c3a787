"""The nemesis events that are a small scenario of their own.

Most event appliers flip one switch.  These four drive a real subsystem
through a scripted episode -- an open-loop overload storm, one tenant
bug, a live migration under wire/storage faults, a torn checkpoint
generation -- and leave the facts they established in the history as an
``observe`` event for the checker's fact rules to judge.  Each takes the
:class:`~repro.resilience.simulation.harness._Cluster` it acts on.
"""

from __future__ import annotations

from typing import Any

from repro.resilience.simulation.events import TENANT_BUG_KINDS, NemesisEvent

# -- overload storm -----------------------------------------------------------

#: tenants offering load, and the baseline calls each offers (enough
#: that the 2x fair-share bound judges the queue, not the seed's luck)
STORM_TENANTS, STORM_CALLS = 3, 240
#: virtual execution time per call (capacity = 1 / service time)
STORM_SERVICE_NS = 1_000_000


def overload_storm(cluster, event: NemesisEvent) -> None:
    """Offer ``load`` times the server's capacity, open loop.

    A single-slot virtual-time loop: arrivals go through a real
    ``OverloadQueue`` (bounds, shedding, WFQ, deadlines) and every
    admitted call through the leader's real ``dispatch_record`` with the
    tenant's credential and remaining budget.  ``executed_expired``
    counts tickets the queue handed over for dispatch past their
    deadline -- expired work must be refused at admission or dropped at
    dequeue, whether or not the server's own guard would then catch it.
    """
    from repro.oncrpc import message as msg
    from repro.oncrpc.auth import call_meta_auth, client_token_auth
    from repro.resilience.overload import OverloadConfig, OverloadQueue

    params = event.params
    load = float(params.get("load", 5.0))
    depth = int(params.get("depth", 16))
    per_tenant = int(params.get("per_tenant", 0)) or -(-depth // STORM_TENANTS)
    rng = cluster.event_rng(event)
    _, server = cluster.leader()
    clock = cluster.clock
    names = [f"tenant{i}" for i in range(STORM_TENANTS)]
    identity = {name: f"token:{name.encode().hex()}" for name in names}
    queue = OverloadQueue(
        OverloadConfig(
            max_concurrency=1,
            max_queue_depth=depth,
            max_queue_depth_per_client=per_tenant,
            weights={
                identity[name]: weight
                for name, weight in params.get("weights", {}).items()
            },
        ),
        stats=server.server_stats,
    )

    # seeded open-loop arrivals: (arrival, xid, tenant, priority, deadline)
    counts = dict.fromkeys(names, STORM_CALLS)
    counts[names[0]] = max(1, round(STORM_CALLS * float(params.get("hot", 1.0))))
    horizon_ns = int(sum(counts.values()) * STORM_SERVICE_NS / load)
    calls = []
    t0 = clock.now_ns
    for name in names:
        gap = horizon_ns / counts[name]
        t = 0.0
        for _ in range(counts[name]):
            t += gap * rng.uniform(0.5, 1.5)
            cluster.storm_xids += 1
            # a fifth of the calls get a deadline too tight to survive a
            # saturated queue; the others' slack survives a full one
            tight = rng.random() < 0.2
            slack = (2 if tight else depth + 2) * STORM_SERVICE_NS
            arrival = t0 + int(t)
            calls.append(
                (arrival, cluster.storm_xids, name, rng.randrange(3), arrival + slack)
            )
    calls.sort()
    by_xid = {call[1]: call for call in calls}

    offered = dict.fromkeys(names, 0)
    goodput = dict.fromkeys(names, 0)
    executed_expired = 0

    def dispatch(xid: int) -> None:
        nonlocal executed_expired
        _, _, tenant, priority, deadline = by_xid[xid]
        if clock.now_ns >= deadline:
            executed_expired += 1
        call = msg.CallBody(
            prog=server.interface.prog_number,
            vers=server.interface.vers_number,
            proc=1,  # rpc_cudaGetDeviceCount: void args, cheap, countable
            cred=client_token_auth(tenant.encode()),
            verf=call_meta_auth(max(0, deadline - clock.now_ns), priority),
        )
        reply = server.dispatch_record(msg.RpcMessage(xid, call).encode())
        if msg.RpcMessage.decode(reply).body.stat == msg.SUCCESS:
            goodput[tenant] += 1

    busy_until = t0

    def serve_until(limit_ns: int | None) -> None:
        """Run queued calls while the slot frees up before ``limit_ns``."""
        nonlocal busy_until
        while limit_ns is None or busy_until <= limit_ns:
            clock.advance_to_ns(max(clock.now_ns, busy_until))
            ticket, _dropped = queue.pop_next(clock.now_ns)
            if ticket is None:
                break
            busy_until = clock.now_ns + STORM_SERVICE_NS
            dispatch(ticket.xid)

    for arrival, xid, tenant, _, deadline in calls:
        serve_until(arrival)
        clock.advance_to_ns(max(clock.now_ns, arrival))
        offered[tenant] += 1
        if busy_until <= arrival and not len(queue):
            busy_until = arrival + STORM_SERVICE_NS
            dispatch(xid)
            continue
        queue.offer(identity[tenant], xid, clock.now_ns, expires_at_ns=deadline)
    serve_until(None)  # drain the backlog

    cluster.recorder.observe(
        "server", "overload_storm",
        load=load,
        offered=offered,
        goodput=goodput,
        executed_expired=executed_expired,
        peak_depth=server.server_stats.queue_peak_depth,
        depth_bound=depth,
    )


# -- one tenant bug -----------------------------------------------------------


def tenant_bug(cluster, event: NemesisEvent) -> None:
    """The buggy tenant commits ``bug``; was it caught with a typed verdict?"""
    from repro.cricket.client import CricketClient
    from repro.cuda.errors import CudaError
    from repro.oncrpc.auth import client_token_auth

    bug = event.params.get("bug")
    if bug not in TENANT_BUG_KINDS:
        raise ValueError(f"unknown tenant bug {bug!r}; pick one of {TENANT_BUG_KINDS}")
    _, server = cluster.leader()
    buggy = CricketClient.loopback(server)
    buggy.stub.client.cred = client_token_auth(b"buggy")
    cluster.buggy_alive = True
    size = cluster.plan.alloc_bytes
    stats = server.server_stats
    seen = len(server.violations)

    def verdicts() -> set[str]:
        return {kind for kind, _owner, _site, _addr in server.violations[seen:]}

    detected = False
    try:
        ptr = buggy.malloc(size)
        if bug == "leak":
            # never freed, then the tenant crashes: the reaper's ledger
            # release must file a leak report naming it
            cluster.lapse_and_reap()
            detected = any(
                report["owner"] == buggy.session_identity and report["ptr"] == ptr
                for report in server.leak_reports
            )
        elif bug == "hang":
            hangs = stats.watchdog_hangs
            kind = "spin" if cluster.event_rng(event).random() < 0.5 else "fused"
            server.devices[0].inject_hang(kind=kind)
            # the next dispatched call -- a healthy tenant's -- trips the ladder
            cluster.workload.do_ping(0)
            detected = stats.watchdog_hangs > hangs
        elif bug == "wild-write":
            # a kernel scribbling through a wild pointer lands in the guard
            # band; the periodic sweep finds it
            server.devices[0].allocator.wild_write(ptr + size, b"\xff" * 8)
            server.sweep_now()
            detected = "redzone-corruption" in verdicts()
        elif bug == "oob-write":
            buggy.memcpy_h2d(ptr, b"\xee" * (size + 64))
        elif bug == "oob-read":
            buggy.memcpy_d2h(ptr, size + 64)
        else:
            buggy.free(ptr)
            if bug == "double-free":
                buggy.free(ptr)
            else:  # use-after-free
                buggy.memcpy_h2d(ptr, b"\xdd" * 64)
    except CudaError:
        # the typed refusal the sanitizer owes a memory-safety bug
        detected = bug in verdicts()
    cluster.recorder.observe("server", "tenant_bug", bug=bug, bug_detected=detected)


# -- torn checkpoint generation -----------------------------------------------


def torn_generation(cluster) -> None:
    """Tear the newest generation; restore must land on the previous one."""
    from repro.cricket.ckptstore import CheckpointStore
    from repro.cricket.errors import CheckpointError
    from repro.cricket.replication import state_fingerprint
    from repro.resilience.faults import StorageCrashError

    _, server = cluster.leader()
    store = cluster.store
    good = store.save_full(server)
    good_state = state_fingerprint(server)
    cluster.workload.do_write(0)  # mutate past the good generation
    cluster.store_faults.arm_torn(1)
    try:
        store.save_full(server)
        torn = False
    except StorageCrashError:
        torn = True
    scratch = cluster.make_server()
    recovery = CheckpointStore(
        storage=cluster.store_faults.inner, stats=scratch.server_stats
    )
    try:
        restored = recovery.restore_latest(scratch)
    except CheckpointError:
        restored = None  # nothing verifiable: no fallback happened
    cluster.recorder.observe(
        "server", "torn_generation",
        fell_back=(
            torn and restored == good and state_fingerprint(scratch) == good_state
        ),
    )


# -- live migration -----------------------------------------------------------

class _TargetProcess:
    """The migration target as a killable process over durable storage.

    ``kill()`` rebuilds it over the same journal and recovers it, as a
    supervisor would.  It counts the BEGIN chunks that reach it: a second
    one means the sender restarted instead of resuming from its cursor.
    """

    def __init__(self, spawn) -> None:
        self._spawn = spawn
        self.target = spawn()
        self.begin_deliveries = 0
        self.recoveries = 0

    def kill(self) -> None:
        self.target = self._spawn()
        self.target.recover()
        self.recoveries += 1

    last_acked = property(lambda self: self.target.last_acked)

    def receive(self, blob: bytes) -> int:
        from repro.cricket.migration import KIND_BEGIN, decode_chunk

        try:
            self.begin_deliveries += decode_chunk(blob).kind == KIND_BEGIN
        except Exception:
            pass  # corrupted in flight; the receiver NAKs it below
        return self.target.receive(blob)

    def finalize(self):
        return self.target.finalize()


class _FaultyWire:
    """A channel whose first fault takes the scripted extras with it:
    the target process dies and/or its next journal append tears."""

    def __init__(self, inner, extras) -> None:
        self.inner = inner
        self.extras = extras
        self.faults = 0

    def send(self, blob: bytes) -> int:
        from repro.cricket.errors import MigrationChannelError

        try:
            return self.inner.send(blob)
        except MigrationChannelError:
            self.faults += 1
            while self.extras:
                self.extras.pop()()
            raise


def migrate(cluster, old, event: NemesisEvent) -> None:
    """Live-migrate ``old`` to a fresh process the clients then follow.

    Without params: a clean pre-copy / stop-and-copy / cutover (a doomed
    one aborts and the source resumes serving).  With them, the wire and
    the target's journal misbehave on schedule -- ``disconnect_at`` /
    ``corrupt_at`` are send ordinals, ``kill_target`` and ``torn_journal``
    ride on the first fault -- every fault is resumed from the cursor,
    and the run leaves a ``migration`` observation behind.
    ``retransmit`` re-sends a pre-migration malloc, same xid, after
    cutover: the migrated reply cache must answer it (a re-execution is
    the checker's ``double-execution``).
    """
    from repro.cricket.ckptstore import MemoryStorage
    from repro.cricket.migration import (
        FaultyMigrationChannel,
        LoopbackMigrationChannel,
        MigrationSource,
        MigrationTarget,
        migrate_live,
    )
    from repro.cricket.replication import state_fingerprint
    from repro.resilience.faults import FaultyStorage, StorageFaultPlan

    params = {k: v for k, v in event.params.items() if k != "retransmit"}
    journal = wire = resend = None
    if event.params.get("retransmit"):
        client, size = cluster.clients[0], cluster.plan.alloc_bytes
        ptr = cluster.workload.traced(
            cluster.client_names[0], client, "malloc",
            lambda: client.malloc(size), size=size,
        )
        if isinstance(ptr, int):
            cluster.workload.views[0][ptr] = b""
            rpc = client.stub.client
            xid = rpc.last_xid
            proc = old.interface.signatures["rpc_cudaMalloc"].number
            record = rpc._encode_call(xid, proc, size.to_bytes(8, "big"), None)
            resend = lambda: rpc._call_once(xid, record)  # noqa: E731
    if params:
        cluster.storages.append(MemoryStorage())
        journal = FaultyStorage(
            cluster.storages[-1], StorageFaultPlan(seed=cluster.plan.seed)
        )
    target = _TargetProcess(
        lambda: MigrationTarget(cluster.make_server(), storage=journal)
    )
    channel: Any = LoopbackMigrationChannel(target)
    if params:
        channel = wire = _FaultyWire(
            FaultyMigrationChannel(
                channel,
                disconnect_before=set(params.get("disconnect_at", ())),
                corrupt_sends=set(params.get("corrupt_at", ())),
            ),
            [
                extra
                for name, extra in (
                    ("torn_journal", lambda: journal.arm_torn(1)),
                    ("kill_target", target.kill),
                )
                if params.get(name)
            ],
        )
    source = MigrationSource(old, storage=journal)
    before = state_fingerprint(old) if params else None
    try:
        migrate_live(source, target, channel)
    except Exception:
        # A doomed migration aborts; the source resumes serving.
        old.serving_paused = False
        new_server = None
    else:
        new_server = target.target.server
    if wire is not None:
        facts = dict(
            completed=source.report.completed,
            begin_deliveries=target.begin_deliveries,
            duplicates=target.target.server.server_stats.migration_chunks_duplicate,
            faults=wire.faults,
            resumes=source.report.resumes,
            target_recoveries=target.recoveries,
            pause_ns=source.report.pause_ns,
            pause_budget_ns=MigrationSource.PAUSE_BUDGET_NS,
        )
        if new_server is not None:
            # CRAC's criterion: the moved state is indistinguishable
            facts["diverged"] = state_fingerprint(new_server) != before
        cluster.recorder.observe("server", "migration", **facts)
    if new_server is not None:
        cluster._swap_server(new_server)
        if resend is not None:
            resend()
