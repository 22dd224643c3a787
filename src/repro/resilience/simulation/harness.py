"""Deterministic cluster simulation: topology + workload + nemesis + oracle.

One virtual-time event loop drives everything: a pre-generated client
workload (mallocs, writes, readbacks, frees, checkpoints) interleaved
with a pre-generated nemesis schedule (partitions, primary kills, GPU
faults, limplocks, transport-fault storms, torn checkpoint storage,
drain/restore, live migration).  All randomness is drawn *before* the
run starts, from RNGs derived independently for the nemesis and the
workload streams, so

* a run is a pure function of ``(topology, workload, seed)`` -- two
  runs of one plan produce byte-identical normalized histories -- and
* substituting an arbitrary subsequence of the nemesis schedule (the
  shrinker's move) leaves the workload stream untouched.

The history recorder observes every client-edge operation and every
server-side handler execution; :func:`run_simulation` finishes by
healing all faults, converging the clients and handing the history to
the :class:`~repro.resilience.simulation.checker.HistoryChecker`.

A plan's ``profile`` (:mod:`~repro.resilience.simulation.profiles`)
narrows that composed adversary to one reliability story -- a fixed
topology, a restricted alphabet or pinned schedule, a workload shape,
the fact-rule invariants to evaluate -- on the very same loop, recorder
and checker.  The default ``composed`` profile is the loop described
above, unchanged.

Everything Cricket-flavored is imported inside the builder/run
functions, keeping this module importable from the resilience layer
without the Cricket stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

from repro.resilience.health import LatencyHistogram
from repro.resilience.simulation import scenarios
from repro.resilience.simulation.checker import HistoryChecker, Violation
from repro.resilience.simulation.events import (
    BUG_DOUBLE_EXECUTE,
    DRAIN_RESTORE,
    GPU_FAULT,
    GPU_THROTTLE,
    KILL_CLIENT,
    KILL_PRIMARY,
    LIMP_ENDPOINT,
    LIMP_STANDBY,
    MIGRATE,
    OVERLOAD_STORM,
    PARTITION,
    STORAGE_SLOW,
    STORAGE_TORN,
    TENANT_BUG,
    TRANSPORT_FAULTS,
    NemesisEvent,
)
from repro.resilience.simulation.history import (
    OUTCOME_OK,
    HistoryEvent,
    HistoryRecorder,
    classify_outcome,
)
from repro.resilience.simulation.nemesis import generate_schedule
from repro.resilience.simulation.profiles import COMPOSED, PROFILES, Profile

#: supported topologies
TOPOLOGIES = ("single", "ha_pair")

#: virtual seconds from injection within which a limplock must be detected
DETECT_BUDGET_S = 10.0

#: derivation constants separating the nemesis and workload RNG streams
_NEMESIS_STREAM = 0x4E656D65
_WORKLOAD_STREAM = 0x576F726B


@dataclass(frozen=True)
class SimulationPlan:
    """Seeded description of one deterministic simulation run."""

    #: "single" (one server, operational events) or "ha_pair" (fenced
    #: primary/standby behind a witness, partition/kill events)
    topology: str = "ha_pair"
    #: master seed; nemesis and workload streams derive from it
    seed: int = 0
    #: concurrent workload clients
    clients: int = 2
    #: workload steps spread over the horizon
    steps: int = 60
    #: nemesis events drawn for the schedule
    nemesis_events: int = 6
    #: size of each allocation
    alloc_bytes: int = 4096
    #: virtual-seconds horizon the schedule and workload spread over
    horizon_s: float = 12.0
    #: witness lease (ha_pair only)
    lease_s: float = 0.2
    #: nemesis profile (see :data:`PROFILES`); build non-default ones
    #: with :func:`profile_plan`, which fills in what the profile fixes
    profile: str = COMPOSED

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; pick one of {TOPOLOGIES}"
            )
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; pick one of {sorted(PROFILES)}"
            )
        if PROFILES[self.profile].topology not in (None, self.topology):
            raise ValueError(
                f"profile {self.profile!r} runs on the "
                f"{PROFILES[self.profile].topology!r} topology"
            )
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.steps < 1:
            raise ValueError("need at least one workload step")
        if self.horizon_s <= 0:
            raise ValueError("the horizon must be positive")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "topology": self.topology,
            "seed": self.seed,
            "clients": self.clients,
            "steps": self.steps,
            "nemesis_events": self.nemesis_events,
            "alloc_bytes": self.alloc_bytes,
            "horizon_s": self.horizon_s,
            "lease_s": self.lease_s,
            "profile": self.profile,
        }

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "SimulationPlan":
        return cls(
            topology=str(data["topology"]),
            seed=int(data["seed"]),
            clients=int(data["clients"]),
            steps=int(data["steps"]),
            nemesis_events=int(data["nemesis_events"]),
            alloc_bytes=int(data["alloc_bytes"]),
            horizon_s=float(data["horizon_s"]),
            lease_s=float(data["lease_s"]),
            # traces written before profiles existed are composed runs
            profile=str(data.get("profile", COMPOSED)),
        )


def profile_plan(name: str, seed: int = 0) -> SimulationPlan:
    """The plan of nemesis profile ``name`` at ``seed``."""
    profile = PROFILES.get(name, PROFILES[COMPOSED])  # the plan rejects unknowns
    fixed = {"topology": profile.topology} if profile.topology else {}
    return SimulationPlan(seed=seed, profile=name, **fixed, **profile.plan)


@dataclass
class SimulationResult:
    """Outcome of one simulation run: history, verdicts, accounting."""

    plan: SimulationPlan
    #: the nemesis schedule that actually ran (post-shrinking input)
    schedule: list[NemesisEvent]
    #: checker verdicts (empty = history is explainable by a correct GPU)
    violations: list[Violation]
    #: SHA-256 over the normalized history -- the bit-reproducibility handle
    fingerprint: str
    #: full recorded history (client edge + server edge + audit)
    events: list[HistoryEvent] = field(repr=False, default_factory=list)
    #: endpoint name of the leader at the end ("" = nobody)
    final_leader: str = ""
    #: every client finished on the final leader at its epoch
    converged: bool = True
    #: tally of client-edge outcomes by type ("ok", "busy", ...)
    outcomes: dict[str, int] = field(default_factory=dict)
    #: nemesis events applied, in firing order (kind strings)
    applied: list[str] = field(default_factory=list)
    #: final leader's ServerStats counters
    counters: dict[str, int] = field(default_factory=dict)
    #: fact-rule invariants the checker had evidence to evaluate
    evaluated: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.violations

    def violation_kinds(self) -> tuple[str, ...]:
        return tuple(sorted({v.kind for v in self.violations}))

    def facts(self, what: str = "audit") -> dict[str, Any]:
        """The facts the ``what`` scenario event (or the audit) established."""
        (event,) = [e for e in self.events if (e.op or e.kind) == what]
        return event.args

    def story(self) -> str:
        """The run in a few lines: the nemesis's moves, what the clients
        saw, the facts the scenario events left, what was judged."""
        plan = self.plan
        moves = [
            f"{e.kind}@{e.at_s:g}s" + (f" {e.params}" if e.params else "")
            for e in self.schedule
        ]
        judged = ", ".join(("base properties", *self.evaluated))
        return "\n".join([
            f"{plan.profile} seed {plan.seed} on {plan.topology}: "
            + ("clean" if self.clean else f"VIOLATED {self.violation_kinds()}"),
            f"  nemesis: {'; '.join(moves) or 'quiet'}",
            f"  clients: {self.outcomes}, leader {self.final_leader!r}",
            *(
                f"  {e.op or e.kind}: {e.args}"
                for e in self.events if e.kind in ("observe", "audit")
            ),
            f"  judged: {judged}; fingerprint {self.fingerprint[:16]}...",
        ])


class _Cluster:
    """Handles to one built topology plus the nemesis appliers."""

    def __init__(self, plan: SimulationPlan, recorder: HistoryRecorder, clock):
        self.plan = plan
        self.profile: Profile = PROFILES[plan.profile]
        self.recorder = recorder
        self.clock = clock
        #: what appliers may drive of the workload (set by the run loop)
        self.workload: Any = None
        self.clients: list[Any] = []
        self.client_names: list[str] = []
        #: per client: innermost LoopbackEndpoints (for server swaps)
        self.loopbacks: dict[str, list[Any]] = {}
        #: per client: FaultPlan FaultyEndpoints (transport-fault windows)
        self.faulty: dict[str, list[Any]] = {}
        #: per client: SlowFaultPlan FaultyEndpoints (limplock windows)
        self.slow: dict[str, list[Any]] = {}
        self.servers: dict[str, Any] = {}
        self.state = None  # PartitionState (ha_pair)
        self.witness = None
        self.fences: dict[str, Any] = {}
        self.link = None
        self.store = None  # CheckpointStore over FaultyStorage
        self.store_faults = None  # the FaultyStorage wrapper
        #: every MemoryStorage the run built, emptied when it ends
        self.storages: list[Any] = []
        #: (heal_at_s, wrapper-kind, client) for open windowed faults
        self.pending_heals: list[tuple[float, str, str]] = []
        self.checkpoints_taken = 0
        self.checkpoint_failures = 0
        self.dead: set[str] = set()  # clients a kill_client event crashed
        self.buggy_alive = False  # a tenant_bug left a buggy session to reap
        self.storm_xids = 0  # xids handed to overload_storm tenants so far
        #: the limplock under watch (measured workloads only, see watch())
        self.limp: dict[str, Any] | None = None
        self.baseline = LatencyHistogram()
        self.recovery = LatencyHistogram()
        self.ejected: set[str] = set()  # endpoints any ejector ever ejected

    # -- leadership ---------------------------------------------------------

    def leader(self) -> tuple[str, Any]:
        """Name and server of the node currently accepting mutations."""
        if self.plan.topology == "single":
            return "server", self.servers["server"]
        for name in ("standby", "primary"):
            fence = self.fences.get(name)
            if fence is not None and fence.is_leader:
                return name, self.servers[name]
        return "", self.servers["primary"]

    def make_server(self):
        """A fresh server process: the simulator's defaults, overridden
        by what the profile's story needs (leases, sanitizer, ...)."""
        from repro.cricket.server import CricketServer
        from repro.gpu.catalog import A100
        from repro.gpu.device import GpuDevice
        from repro.resilience.health import LatencySLO

        kwargs: dict[str, Any] = dict(
            brownout=True,
            checkpoint_slo=LatencySLO(target_p99_ns=int(50e6), min_samples=4),
        )
        kwargs.update(self.profile.server)
        return CricketServer(
            [GpuDevice(A100, execute=True), GpuDevice(A100, execute=True)],
            clock=self.clock,
            **kwargs,
        )

    def event_rng(self, event: NemesisEvent) -> random.Random:
        """Per-event RNG: dropping other events (the shrinker's move)
        never shifts this event's draws."""
        return random.Random(f"{self.plan.seed}:{event.kind}:{event.at_s}")

    # -- nemesis appliers ---------------------------------------------------

    def apply(self, event: NemesisEvent) -> None:
        handler = {
            PARTITION: self._apply_partition,
            KILL_PRIMARY: self._apply_kill_primary,
            GPU_FAULT: self._apply_gpu_fault,
            GPU_THROTTLE: self._apply_gpu_throttle,
            TRANSPORT_FAULTS: self._apply_transport_faults,
            LIMP_ENDPOINT: self._apply_limp,
            STORAGE_TORN: self._apply_storage_torn,
            STORAGE_SLOW: self._apply_storage_slow,
            DRAIN_RESTORE: self._apply_drain_restore,
            MIGRATE: self._apply_migrate,
            BUG_DOUBLE_EXECUTE: self._apply_bug_double_execute,
            KILL_CLIENT: self._apply_kill_client,
            TENANT_BUG: lambda event: scenarios.tenant_bug(self, event),
            OVERLOAD_STORM: lambda event: scenarios.overload_storm(self, event),
            LIMP_STANDBY: self._apply_limp_standby,
        }[event.kind]
        handler(event)

    def _apply_partition(self, event: NemesisEvent) -> None:
        from repro.resilience.faults import PartitionPlan, PartitionWindow

        if self.state is None:
            return
        shape = event.params.get("shape", "primary_isolated")
        duration = float(event.params.get("duration_s", 1.0))
        groups = {
            "primary_isolated": (("primary",),),
            "standby_isolated": (("standby",),),
            "witness_isolated": (("witness",),),
            "heal_divergence": (
                ("primary", *self.client_names),
                ("standby", "witness"),
            ),
        }[shape]
        now_s = self.clock.now_ns / 1e9
        window = PartitionWindow(
            start_s=now_s, end_s=now_s + duration, groups=groups
        )
        self.state.plan = PartitionPlan(windows=(window,))
        # the operator's post-heal move: re-attach a link the go-solo
        # path detached during the cut (full sync, then resume shipping)
        self._heal_later(duration, "relink")
        # march into the window far enough for the lease to expire while
        # the cut is open -- the moment the fencing machinery must act
        self.clock.advance_s(min(self.plan.lease_s * 1.5, duration / 2))

    def _apply_kill_primary(self, event: NemesisEvent) -> None:
        if self.plan.topology == "single":
            return
        name, server = self.leader()
        if not name or server.killed:
            return
        if event.params.get("dangerous"):
            # Crash after executing (and replicating) the next call but
            # before its reply leaves -- the at-most-once worst case.
            slot = 0 if name == "primary" else 1
            self.loopbacks[self.client_names[0]][slot].kill_after_next_execute()
        else:
            server.kill()

    def _apply_gpu_fault(self, event: NemesisEvent) -> None:
        _, server = self.leader()
        if server.killed:
            return
        server.inject_device_fault(0, event.params.get("fault", "ecc"))
        try:
            server.failover_device(0)
        except RuntimeError:
            # No healthy spare this time; the sticky fault stays and the
            # workload sees CUDA errors -- typed failures, not violations.
            pass

    def _apply_gpu_throttle(self, event: NemesisEvent) -> None:
        _, server = self.leader()
        if server.killed:
            return
        stats = server.server_stats
        false_alarm = ["device0"] if stats.ladder_preemptive_failovers else []
        severity = float(event.params.get("severity", 4.0))
        server.devices[0].inject_soft_fault("throttle", severity)
        self.watch(lambda: stats.ladder_preemptive_failovers > 0, false_alarm)
        if server.auto_recover:
            return  # the recovery ladder's rung 0 preempts on its own
        try:
            server.failover_device(0)
        except RuntimeError:
            pass

    def _windowed(self, event: NemesisEvent, wrappers: dict, label: str) -> None:
        """Open a fault window on one client's pipes (all clients' when
        the event names none; one ``path`` of each when it names one)."""
        if "client" in event.params:
            clients = [f"client{int(event.params['client']) % self.plan.clients}"]
        else:
            clients = self.client_names
        duration = float(event.params.get("duration_s", 0.5))
        for client in clients:
            pipes = wrappers[client]
            if "path" in event.params:
                pipes = [pipes[int(event.params["path"]) % len(pipes)]]
            for wrapper in pipes:
                wrapper.set_active(True)
            self._heal_later(duration, label, client)

    def _apply_transport_faults(self, event: NemesisEvent) -> None:
        self._windowed(event, self.faulty, "faulty")

    def _apply_limp(self, event: NemesisEvent) -> None:
        self._windowed(event, self.slow, "slow")
        if "path" in event.params:
            pipes = self.slow[self.client_names[0]]
            limper = pipes[int(event.params["path"]) % len(pipes)].name
            self.watch(
                lambda: limper in self.ejected,
                sorted(self.ejected - {limper}),
                healed=False,
            )

    def _heal_later(self, delay_s: float, label: str, client: str = "") -> None:
        self.pending_heals.append((self.clock.now_ns / 1e9 + delay_s, label, client))
        self.pending_heals.sort(key=lambda entry: entry[0])

    def heal_due(self, now_s: float) -> None:
        """Close windowed faults (and run post-heal moves) now due."""
        while self.pending_heals and self.pending_heals[0][0] <= now_s:
            self._heal(*self.pending_heals.pop(0)[1:])

    def _heal(self, label: str, client: str) -> None:
        if label == "relink":
            self._relink()
            return
        if label == "fsync":
            # the disk is replaced: no stall left armed, and fresh
            # hardware is judged on fresh samples
            self.store_faults.arm_slow_fsync(0, 0.0)
            self.store.write_latency.reset()
        else:
            wrappers = self.faulty if label == "faulty" else self.slow
            for wrapper in wrappers[client]:
                wrapper.set_active(False)
        if self.limp is not None and label != "faulty":
            self.limp["healed"] = True

    def _relink(self) -> None:
        """Re-attach a detached, unpromoted replication link post-heal.

        Only when the original primary still leads and both processes
        are alive: after a promotion the demoted ex-primary stays
        fenced and solo (re-seeding it as a standby of the new leader
        is an operation this harness deliberately does not model).
        """
        link = self.link
        if link is None or link.attached or link.promoted:
            return
        primary_fence = self.fences.get("primary")
        if primary_fence is None or not primary_fence.is_leader:
            return
        if self.servers["primary"].killed or self.servers["standby"].killed:
            return
        if not link.reachable():
            return
        link.attach()

    def heal_all(self) -> None:
        """End-of-run: close every open fault so convergence can happen."""
        from repro.resilience.faults import PartitionPlan

        for _, label, client in self.pending_heals:
            if label != "relink":
                self._heal(label, client)
        self.pending_heals.clear()
        if self.state is not None:
            self.state.plan = PartitionPlan()
        self._relink()
        if self.buggy_alive:
            self.lapse_and_reap()  # the buggy tenant finally crashes

    def _apply_storage_torn(self, event: NemesisEvent) -> None:
        if self.store_faults is None:
            return
        if event.params.get("restore"):
            scenarios.torn_generation(self)
        else:
            self.store_faults.arm_torn(int(event.params.get("count", 1)))

    def _apply_storage_slow(self, event: NemesisEvent) -> None:
        if self.store_faults is None:
            return
        self.store_faults.arm_slow_fsync(
            int(event.params.get("count", 1)),
            float(event.params.get("delay_s", 0.1)),
        )
        # a limping disk stalls until replaced; else for ``count`` writes
        windowed = "duration_s" in event.params
        if windowed:
            self._heal_later(float(event.params["duration_s"]), "fsync")
        _, server = self.leader()
        self.watch(lambda: server.brownout.active, healed=not windowed)

    def _apply_bug_double_execute(self, event: NemesisEvent) -> None:
        """The injected bug: the leader's next ``count`` fresh executions
        run their handler twice and throw the second reply away -- the
        retransmit-reexecutes bug the reply cache exists to prevent.  The
        duplicated side effects and the second tap are the checker's to catch.
        """
        _, server = self.leader()
        left = int(event.params.get("count", 1))
        execute = type(server)._execute

        def doubled(call, ctx):
            nonlocal left
            result = execute(server, call, ctx)
            if (
                left > 0
                and not ctx.replica_apply
                and call.proc not in server.overload_exempt_procs
            ):
                left -= 1
                execute(server, call, ctx)
            return result

        server._execute = doubled

    def _apply_limp_standby(self, event: NemesisEvent) -> None:
        link = self.link
        if link is None or not link.attached:
            return
        link.ship_delay_s = float(event.params.get("delay_s", 0.02))
        self.watch(lambda: link.demoted)

    # -- client death and lease lapse ----------------------------------------

    def _apply_kill_client(self, event: NemesisEvent) -> None:
        index = int(event.params.get("client", 0)) % self.plan.clients
        name = self.client_names[index]
        if name in self.dead or len(self.dead) + 2 > self.plan.clients:
            return  # already dead, or the last one standing
        # Crashed mid-stream: no free, no goodbye.  Its allocations are
        # now the lease reaper's to find.
        self.dead.add(name)
        self.recorder.crash(name)
        self.workload.views[index].clear()
        self.lapse_and_reap()

    def lapse_and_reap(self) -> None:
        """March virtual time past one lease + grace, then run the reaper.

        Steps by half a lease with every live workload client
        heartbeating, so only the silent lapse through orphaned into
        reclaim.
        """
        _, server = self.leader()
        sessions = server.sessions
        elapsed = 0.0
        while elapsed <= sessions.lease_s + sessions.grace_s:
            self.clock.advance_s(sessions.lease_s / 2)
            elapsed += sessions.lease_s / 2
            for name, client in zip(self.client_names, self.clients):
                if name not in self.dead:
                    client.renew_lease()
        server.reap_sessions()
        self.buggy_alive = False

    # -- limplock watch (measured workloads) ---------------------------------

    def watch(self, detector, false_alarm=(), *, healed: bool = True) -> None:
        """Put a just-injected limplock under watch.

        ``detector()`` turns true once the matching defence reacted;
        ``false_alarm`` names what it had already condemned before any
        fault existed; ``healed=False`` means the fault is windowed and
        recovery is only measured once its window closed.
        """
        if self.profile.workload == "mixed":
            return
        if self.limp is not None:
            self.limp["healed"] = healed
            return
        self.limp = {
            "detector": detector,
            "injected_ns": self.clock.now_ns,
            "detected_ns": -1,
            "false_alarm": list(false_alarm),
            "healed": healed,
        }

    def measure(self, latency_ns: int, browned_at_start: bool) -> None:
        """File one step's latency under the phase it ran in.

        A step is a recovered one only if no brownout held it at either
        end: a step the brownout shed until it ended ran in the brownout.
        """
        limp = self.limp
        if limp is None:
            self.baseline.record(latency_ns)
            return
        if limp["detected_ns"] < 0:
            if limp["detector"]():
                limp["detected_ns"] = self.clock.now_ns
        elif (
            limp["healed"]
            and not browned_at_start
            and not self.leader()[1].brownout.active
        ):
            self.recovery.record(latency_ns)

    # -- end-of-run facts -----------------------------------------------------

    def final_facts(self, final_name: str, final_server, converged: bool) -> dict:
        """Cluster-wide facts of a profile run, judged on the audit event."""
        from repro.cricket.replication import state_fingerprint

        facts: dict[str, Any] = {}
        if final_server.sessions.lease_s is not None:
            facts["orphan_bytes"] = sum(
                final_server.bytes_owned_by(f"token:{name.encode().hex()}")
                for name in sorted(self.dead)
            )
        if final_server.sanitized:
            facts["healthy_errors"] = self.workload.outcomes.get("cuda_error", 0)
            facts["devices_healthy"] = all(d.healthy for d in final_server.devices)
        if self.limp is not None:
            detected = self.limp["detected_ns"]
            facts.update(
                detect_ns=detected - self.limp["injected_ns"] if detected >= 0 else -1,
                detect_budget_ns=int(DETECT_BUDGET_S * 1e9),
                false_ejections=self.limp["false_alarm"],
                baseline_p99_ns=self.baseline.p99,
                recovery_p99_ns=self.recovery.p99,
                brownout_entries=final_server.server_stats.brownout_entries,
                brownout_exits=final_server.server_stats.brownout_exits,
            )
        if self.plan.topology == "ha_pair":
            primary, standby = self.servers["primary"], self.servers["standby"]
            if not (primary.killed and standby.killed):
                facts["converged"] = converged
            facts["split_epochs"] = sorted(
                self.fences["primary"].epochs_served
                & self.fences["standby"].epochs_served
            )
            facts["stale_executions"] = self._probe_stale_primary(final_name)
            link = self.link
            if link.attached and not (link.promoted or primary.killed or standby.killed):
                link.flush()  # a demoted link lags by design; drain it first
                facts["diverged"] = state_fingerprint(primary) != state_fingerprint(standby)
        return facts

    def _probe_stale_primary(self, final_name: str) -> int:
        """Mutations a demoted, still-alive primary executes (must be 0)."""
        from repro.cricket.client import CricketClient
        from repro.oncrpc.auth import client_token_auth
        from repro.oncrpc.errors import RpcNotLeaderError

        primary = self.servers["primary"]
        if final_name != "standby" or primary.killed:
            return 0
        probe = CricketClient.loopback(primary)
        probe.stub.client.cred = client_token_auth(b"stale-probe")
        used_before = _payload_bytes(primary)
        executed = 0
        for _ in range(3):
            try:
                probe.malloc(self.plan.alloc_bytes)
            except RpcNotLeaderError:
                continue
            executed += 1
        return executed + (_payload_bytes(primary) != used_before)

    # -- operational events (single topology) --------------------------------

    def _swap_server(self, new_server) -> None:
        old = self.servers["server"]
        self.servers["server"] = new_server
        new_server.execution_taps.append(self.recorder.execution_tap("server"))
        if self.store is not None:
            new_server.attach_checkpoint_health(self.store.write_latency)
        for name in self.client_names:
            for loopback in self.loopbacks[name]:
                loopback.server = new_server
        if not old.killed:
            old.kill()

    def _apply_drain_restore(self, event: NemesisEvent) -> None:
        from repro.cricket.checkpoint import restore_server

        old = self.servers["server"]
        if old.killed:
            return
        old.shutdown(drain=True)
        blob = old.drain_checkpoint
        new_server = self.make_server()
        if blob is not None:
            restore_server(new_server, blob)
        self._swap_server(new_server)

    def _apply_migrate(self, event: NemesisEvent) -> None:
        old = self.servers["server"]
        if not old.killed:
            scenarios.migrate(self, old, event)


def _payload_bytes(server) -> int:
    """Device bytes held by live allocations, net of sanitizer redzones."""
    total = 0
    for device in server.devices:
        allocator = device.allocator
        total += allocator.used_bytes
        if allocator.sanitizer:
            redzone = allocator.sanitizer.REDZONE_BYTES
            total -= 2 * redzone * len(allocator.live_allocations())
    return total


def _build_cluster(
    plan: SimulationPlan, recorder: HistoryRecorder, clock
) -> _Cluster:
    from repro.cricket.ckptstore import CheckpointStore, MemoryStorage
    from repro.cricket.client import CricketClient
    from repro.cricket.replication import ReplicationLink, promote_with_witness
    from repro.cricket.witness import LeadershipFence, Witness
    from repro.oncrpc.auth import client_token_auth
    from repro.resilience.failover import LoopbackEndpoint
    from repro.resilience.faults import (
        FaultPlan,
        FaultyEndpoint,
        FaultyStorage,
        PartitionPlan,
        PartitionState,
        SlowFaultPlan,
        StorageFaultPlan,
    )
    from repro.resilience.health import OutlierEjector
    from repro.resilience.retry import RetryPolicy

    cluster = _Cluster(plan, recorder, clock)
    profile = cluster.profile
    cluster.client_names = [f"client{i}" for i in range(plan.clients)]
    retry = RetryPolicy(max_attempts=30, deadline_s=None)

    if plan.topology == "ha_pair":
        primary = cluster.make_server()
        standby = cluster.make_server()
        witness = Witness(clock, lease_s=plan.lease_s)
        state = PartitionState(PartitionPlan(), clock)
        witness.link_filter = state.link_filter()
        primary_fence = LeadershipFence(
            primary, witness, name="primary", peer_hint="standby"
        )
        standby_fence = LeadershipFence(
            standby, witness, name="standby", peer_hint="primary"
        )
        primary_fence.lead()  # epoch 1
        link = ReplicationLink(
            primary, standby,
            reachability=state.reachability("primary", "standby"),
            **profile.link,
        )
        primary_fence.link = link
        cluster.servers = {"primary": primary, "standby": standby}
        cluster.state = state
        cluster.witness = witness
        cluster.fences = {"primary": primary_fence, "standby": standby_fence}
        cluster.link = link
        primary.execution_taps.append(recorder.execution_tap("primary"))
        standby.execution_taps.append(recorder.execution_tap("standby"))
        # Crash evidence for the checker: fires inside kill(), i.e. after
        # the doomed server's last execution and before failover traffic,
        # so uncovered acks are forgiven at exactly the right point.
        primary.on_kill = lambda: recorder.crash("primary")
        standby.on_kill = lambda: recorder.crash("standby")
        store_server = primary
        endpoint_names = [("primary", "primary"), ("standby", "standby")]
    else:
        server = cluster.make_server()
        cluster.servers = {"server": server}
        server.execution_taps.append(recorder.execution_tap("server"))
        store_server = server
        # one server, reachable over ``paths`` independent network paths
        endpoint_names = [
            ("server", "server" if profile.paths == 1 else f"path{i}")
            for i in range(profile.paths)
        ]

    # checkpoint store behind injectable storage (torn / slow-fsync events)
    cluster.storages.append(MemoryStorage())
    faulty_storage = FaultyStorage(
        cluster.storages[0],
        StorageFaultPlan(seed=plan.seed),
        clock=clock,
    )
    store = CheckpointStore(
        storage=faulty_storage, clock=clock, stats=store_server.server_stats
    )
    store_server.attach_checkpoint_health(store.write_latency)
    cluster.store = store
    cluster.store_faults = faulty_storage

    for index, cname in enumerate(cluster.client_names):
        loopbacks = []
        faulty_eps = []
        slow_eps = []
        endpoints = []
        for sname, ename in endpoint_names:
            on_connect = None
            if plan.topology == "ha_pair" and sname == "standby":
                def on_connect(
                    _ep,
                    _link=cluster.link,
                    _fence=cluster.fences["standby"],
                ):
                    promote_with_witness(_link, _fence)
            loopback = LoopbackEndpoint(
                cluster.servers[sname],
                name=ename,
                link=cluster.state,
                client_name=cname,
                on_connect=on_connect,
            )
            loopbacks.append(loopback)
            slow = FaultyEndpoint(
                loopback,
                SlowFaultPlan(
                    base_delay_s=0.005,
                    jitter_s=0.002,
                    seed=plan.seed * 1000 + index,
                ),
                clock=clock,
                active=False,
            )
            slow_eps.append(slow)
            faulty = FaultyEndpoint(
                slow,
                FaultPlan(
                    drop_request_rate=0.2,
                    drop_reply_rate=0.2,
                    disconnect_rate=0.1,
                    duplicate_rate=0.1,
                    seed=plan.seed * 1000 + 500 + index,
                ),
                clock=clock,
                active=False,
            )
            faulty_eps.append(faulty)
            endpoints.append(faulty)
        client = CricketClient.failover(
            endpoints,
            clock=clock,
            retry_policy=retry,
            # several paths to choose from: eject the statistical limper
            ejector=(
                OutlierEjector(clock=clock, probation_s=5.0)
                if profile.paths > 1
                else None
            ),
            priority=profile.priorities[index % len(profile.priorities)],
        )
        # Stable identity: the auto-generated uuid token would leak
        # process randomness into the server-edge history.
        client.stub.client.cred = client_token_auth(cname.encode())
        recorder.bind_identity(f"token:{cname.encode().hex()}", cname)
        cluster.clients.append(client)
        cluster.loopbacks[cname] = loopbacks
        cluster.faulty[cname] = faulty_eps
        cluster.slow[cname] = slow_eps
    return cluster


# -- the run ------------------------------------------------------------------


def run_simulation(
    plan: SimulationPlan, schedule: list[NemesisEvent] | None = None
) -> SimulationResult:
    """Execute one deterministic simulation run.

    With ``schedule=None`` the nemesis schedule is the profile's pinned
    one, or else generated from the plan's seed over the profile's
    alphabet; passing an explicit schedule (the shrinker does) reuses
    the identical workload stream, because the workload RNG derives from
    the seed independently of the nemesis draws.
    """
    from repro.net.simclock import SimClock

    profile = PROFILES[plan.profile]
    nemesis_rng = random.Random((plan.seed << 4) ^ _NEMESIS_STREAM)
    workload_rng = random.Random((plan.seed << 4) ^ _WORKLOAD_STREAM)
    if schedule is None and profile.schedule:
        schedule = list(profile.schedule)
    if schedule is None:
        schedule = generate_schedule(
            nemesis_rng,
            topology=plan.topology,
            events=plan.nemesis_events,
            clients=plan.clients,
            horizon_s=plan.horizon_s,
            kinds=profile.alphabet,
        )

    gap = plan.horizon_s / (plan.steps + 1)
    workload = [
        (
            round((i + 1) * gap, 9),
            workload_rng.randrange(plan.clients),
            workload_rng.random(),
            workload_rng.random(),
        )
        for i in range(plan.steps)
    ]

    clock = SimClock()
    recorder = HistoryRecorder(clock)
    cluster = _build_cluster(plan, recorder, clock)
    try:
        return _run(plan, schedule, workload, cluster)
    finally:
        # Checkpoint bytes die with the run, not with the cycle collector
        # that frees its servers (and the stores they reference) later.
        for storage in cluster.storages:
            storage.clear()


def _run(
    plan: SimulationPlan,
    schedule: list[NemesisEvent],
    workload: list[tuple[float, int, float, float]],
    cluster: _Cluster,
) -> SimulationResult:
    clock, recorder = cluster.clock, cluster.recorder

    outcomes: dict[str, int] = {}
    applied: list[str] = []
    #: per-client view of live pointers (ptr -> last intended payload)
    views: list[dict[int, bytes]] = [dict() for _ in range(plan.clients)]
    pattern = 0

    def tally(outcome: str) -> None:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def epoch_of(client) -> int | None:
        try:
            value = client.leader_epoch
        except Exception:
            return None
        return int(value) if value else None

    def traced(cname: str, client, op: str, fn, **args):
        """Run one semantic op under history recording.

        Returns the op's value on success (``True`` for ``None``-valued
        successes) and ``None`` on any recorded failure.
        """
        op_id = recorder.invoke(cname, op, **args)
        rpc = client.stub.client
        # An ambiguous *attempt* (lost reply: the call may have executed)
        # can be followed by a typed refusal from a later attempt; the
        # final exception alone would then claim "provably not executed".
        # Track per-attempt ambiguity so the recorded event stays honest.
        attempt_ambiguous = False

        def on_attempt(_xid: int, _proc: int, exc: BaseException) -> None:
            nonlocal attempt_ambiguous
            if classify_outcome(exc)[1]:
                attempt_ambiguous = True

        rpc.attempt_observer = on_attempt
        try:
            value = fn()
        except Exception as exc:
            outcome, ambiguous = classify_outcome(exc)
            recorder.complete(
                op_id, cname, op, outcome,
                xid=rpc.last_xid,
                ambiguous=ambiguous or attempt_ambiguous,
                epoch=epoch_of(client),
            )
            tally(outcome)
            return None
        finally:
            rpc.attempt_observer = None
        recorder.complete(
            op_id, cname, op, OUTCOME_OK,
            xid=rpc.last_xid,
            value=value.hex() if isinstance(value, (bytes, bytearray)) else value,
            epoch=epoch_of(client),
        )
        tally(OUTCOME_OK)
        return value if value is not None else True

    def do_write(index: int) -> None:
        nonlocal pattern
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        pattern = (pattern + 1) % 255
        payload = bytes([pattern + 1]) * min(plan.alloc_bytes, 256)
        ptr = traced(
            cname, client, "malloc",
            lambda: client.malloc(plan.alloc_bytes), size=plan.alloc_bytes,
        )
        if not isinstance(ptr, int):
            return
        views[index][ptr] = payload
        traced(
            cname, client, "h2d",
            lambda: client.memcpy_h2d(ptr, payload),
            ptr=ptr, data=payload.hex(),
        )

    def do_read(index: int, pick: float) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        ptrs = sorted(views[index])
        if not ptrs:
            do_write(index)
            return
        ptr = ptrs[int(pick * len(ptrs)) % len(ptrs)]
        size = min(plan.alloc_bytes, 256)
        traced(
            cname, client, "d2h",
            lambda: client.memcpy_d2h(ptr, size),
            ptr=ptr, size=size,
        )

    def do_free(index: int, pick: float) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        ptrs = sorted(views[index])
        if len(ptrs) < 2:
            do_write(index)
            return
        ptr = ptrs[int(pick * len(ptrs)) % len(ptrs)]
        result = traced(
            cname, client, "free", lambda: client.free(ptr), ptr=ptr
        )
        # Freed (ok) or maybe-freed (ambiguous): the workload must stop
        # touching the pointer -- the model moved it to limbo.  A typed
        # refusal provably did not free, so the pointer stays eligible.
        if result is not None or recorder.events[-1].ambiguous:
            views[index].pop(ptr, None)

    def do_checkpoint() -> None:
        name, server = cluster.leader()
        if not name or server.killed:
            return
        cluster.checkpoints_taken += 1
        try:
            cluster.store.save(server)
        except Exception:
            cluster.checkpoint_failures += 1

    def do_ping(index: int) -> None:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        traced(cname, client, "ping", lambda: client.ping())

    def run_step(index: int, op_r: float, pick_r: float) -> None:
        if op_r < 0.50:
            do_write(index)
        elif op_r < 0.75:
            do_read(index, pick_r)
        elif op_r < 0.87:
            do_free(index, pick_r)
        elif op_r < 0.93:
            do_checkpoint()
        else:
            do_ping(index)

    # What the scenario appliers may drive of the workload: traced ops
    # against the per-client views, and the outcome tally.
    cluster.workload = SimpleNamespace(
        traced=traced, do_write=do_write, do_ping=do_ping,
        views=views, outcomes=outcomes,
    )

    # -- workload shape ------------------------------------------------------
    # ``mixed`` (the composed default) is run_step itself; the other
    # shapes wrap it, so the composed loop runs nothing extra per step.

    step = run_step
    if KILL_CLIENT in cluster.profile.alphabet:
        def step(index, op_r, pick_r):  # the dead stay silent
            if cluster.client_names[index] not in cluster.dead:
                run_step(index, op_r, pick_r)
    shape = cluster.profile.workload
    if shape != "mixed":
        inner = step

        def step(index, op_r, pick_r):
            started = clock.now_ns
            browned = cluster.leader()[1].brownout.active
            inner(index, op_r, pick_r)
            if shape == "checkpointing":
                do_checkpoint()
            cluster.measure(clock.now_ns - started, browned)
            if shape == "probing":
                # one hedged probe round per step feeds the ejector
                decision = cluster.clients[index].failover_transport.probe_endpoints()
                cluster.ejected.update(decision.ejected)

    # -- merged virtual-time loop -------------------------------------------

    timeline: list[tuple[float, int, int, Any]] = []
    for seq, event in enumerate(schedule):
        timeline.append((event.at_s, 0, seq, event))
    for seq, item in enumerate(workload):
        timeline.append((item[0], 1, seq, item))
    # Nemesis events fire before workload steps at equal timestamps; the
    # (at_s, source, seq) key keeps the merge total and deterministic.
    timeline.sort(key=lambda entry: (entry[0], entry[1], entry[2]))

    for at_s, source, _, payload in timeline:
        target_ns = int(at_s * 1e9)
        if clock.now_ns < target_ns:
            clock.advance_to_ns(target_ns)
        cluster.heal_due(clock.now_ns / 1e9)
        if source == 0:
            applied.append(payload.kind)
            cluster.apply(payload)
        else:
            _, index, op_r, pick_r = payload
            step(index, op_r, pick_r)

    # -- heal, converge, audit ----------------------------------------------

    cluster.heal_all()
    clock.advance_s(max(plan.lease_s * 2, 0.5))
    alive = [
        index
        for index, name in enumerate(cluster.client_names)
        if name not in cluster.dead
    ]

    # one converging write per client forces failover/reconnect to settle
    for index in alive:
        do_write(index)

    final_name, final_server = cluster.leader()
    converged = bool(final_name)
    if plan.topology == "ha_pair" and final_name:
        fence = cluster.fences[final_name]
        converged = all(
            cluster.clients[index].leader_epoch == fence.epoch
            and cluster.clients[index].active_endpoint_name == final_name
            for index in alive
        )

    # Final read of every pointer each client still believes live: the
    # checker's read-your-writes property needs the evidence.
    for index in alive:
        cname = cluster.client_names[index]
        client = cluster.clients[index]
        size = min(plan.alloc_bytes, 256)
        for ptr in sorted(views[index]):
            traced(
                cname, client, "d2h",
                lambda p=ptr: client.memcpy_d2h(p, size),
                ptr=ptr, size=size,
            )

    facts = (
        {}
        if plan.profile == COMPOSED
        else cluster.final_facts(final_name, final_server, converged)
    )
    recorder.audit(final_name or "server", _payload_bytes(final_server), **facts)

    checker = HistoryChecker()
    violations = checker.check(recorder.events)
    return SimulationResult(
        plan=plan,
        schedule=list(schedule),
        violations=violations,
        fingerprint=recorder.fingerprint(),
        events=list(recorder.events),
        final_leader=final_name,
        converged=converged,
        outcomes=outcomes,
        applied=applied,
        counters=final_server.server_stats.as_dict(),
        evaluated=tuple(sorted(checker.evaluated)),
    )


def run_profile(name: str, seed: int = 0) -> SimulationResult:
    """Run nemesis profile ``name`` at ``seed`` (see :data:`PROFILES`)."""
    return run_simulation(profile_plan(name, seed))
