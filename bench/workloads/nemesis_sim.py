"""nemesis_sim: the deterministic cluster simulation as a wall-clock load.

``run_simulation`` over 16 plans -- ``topology`` in {single, ha_pair} x 4
pinned nemesis schedules x 2 workload seeds derived from ``--seed`` -- at
``steps=300``, the whole set repeated until the time is up.

Why: the same RPC layers *used differently* -- retry policy,
fault/failover transport wrappers, reply-cache hits, fencing, overload
queue, sync replication, history taps, all planes on -- so a fast-path
change that taxes the slow path shows here and not in ``launch_storm``.

The nemesis schedules are pinned and only the workload stream (which
client, which op, which pointer, which faults the armed transports draw)
comes from ``--seed``: with seed-drawn schedules the cost of one step
swings about 10x with how many steps land inside a retry storm, and a
rate that varies that much between seeds cannot be held to a bound.
``transport_faults`` is left out of the ``ha_pair`` schedules: at the
commit that added this benchmark the checker reports ``lost-acked-write``
for about 1 in 100 (schedule with ``transport_faults``, workload seed)
pairs on that topology -- ``SimulationPlan(topology="ha_pair", seed=3041,
steps=300)`` with the single event ``transport_faults(client=0,
duration_s=0.8)`` at 1.2 s is the shrunk repro -- and a benchmark needs
inputs on which no operation fails.

No one plan may own the rate.  Once ``kill_primary`` follows a
``primary_isolated`` partition, every later step of that plan is a full
retry storm (about 16 ms a step against 0.8 ms): with the kill at 40 % of
the horizon that one plan took 1.2-2.3 s of a 4 s set, depending on the
workload seed, and steps/s moved with it.  The third ``ha_pair`` schedule
therefore kills at 90 %: the storm is still measured, as a seventh of the
set rather than half of it.

Every plan of a run is repeated as it is, seed and all, in every round:
the work of a plan is deterministic, so its fastest round is what it costs
when the machine leaves it alone, and the fingerprints of the rounds must
agree.  Fresh workload seeds each round would not do: keeping the fastest
round of each unit would then keep its *cheapest seed*, and steps/s would
spread with the inputs (14 % over ten ``--seed`` values, CPU per step
alike) rather than with the machine.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from bench import OUT
from bench.workloads import Segment, Workload, by_rank

STEPS = 300
#: workload seeds per (topology, schedule) in a round; a round of
#: 2 x 8 plans takes 4-6 s, so a 25 s run makes four to six
SEEDS_PER_ROUND = 2
TOPOLOGIES = ("single", "ha_pair")
FIXED_STEPS = 200

#: (share of the horizon, kind, params) -- every event kind of each
#: topology appears at least twice, but for ``transport_faults`` on ha_pair
_SCHEDULES = {
    "single": [
        [(0.10, "gpu_throttle", {"severity": 4.0}),
         (0.25, "migrate", {}),
         (0.40, "storage_torn", {"count": 1}),
         (0.55, "transport_faults", {"client": 0, "duration_s": 0.6}),
         (0.70, "gpu_fault", {"fault": "ecc"}),
         (0.82, "storage_slow", {"count": 2, "delay_s": 0.2})],
        [(0.10, "storage_slow", {"count": 1, "delay_s": 0.3}),
         (0.25, "drain_restore", {}),
         (0.40, "limp_endpoint", {"client": 1, "duration_s": 0.6}),
         (0.55, "gpu_fault", {"fault": "context"}),
         (0.70, "transport_faults", {"client": 1, "duration_s": 0.5}),
         (0.82, "storage_torn", {"count": 2})],
        [(0.10, "transport_faults", {"client": 0, "duration_s": 0.8}),
         (0.25, "gpu_throttle", {"severity": 3.0}),
         (0.40, "drain_restore", {}),
         (0.55, "limp_endpoint", {"client": 0, "duration_s": 0.4}),
         (0.70, "migrate", {}),
         (0.82, "storage_torn", {"count": 1})],
        [(0.10, "limp_endpoint", {"client": 1, "duration_s": 0.7}),
         (0.25, "storage_torn", {"count": 1}),
         (0.40, "gpu_fault", {"fault": "ecc"}),
         (0.55, "migrate", {}),
         (0.70, "transport_faults", {"client": 0, "duration_s": 0.4}),
         (0.82, "gpu_throttle", {"severity": 5.0})],
    ],
    "ha_pair": [
        [(0.10, "kill_primary", {"dangerous": False}),
         (0.25, "gpu_fault", {"fault": "ecc"}),
         (0.40, "partition", {"shape": "witness_isolated", "duration_s": 0.8}),
         (0.55, "limp_endpoint", {"client": 1, "duration_s": 0.6}),
         (0.70, "gpu_throttle", {"severity": 4.0}),
         (0.82, "storage_slow", {"count": 2, "delay_s": 0.2})],
        [(0.10, "gpu_throttle", {"severity": 3.0}),
         (0.25, "kill_primary", {"dangerous": True}),
         (0.40, "limp_endpoint", {"client": 0, "duration_s": 0.5}),
         (0.55, "storage_torn", {"count": 1}),
         (0.70, "partition", {"shape": "standby_isolated", "duration_s": 1.0}),
         (0.82, "gpu_fault", {"fault": "context"})],
        [(0.10, "partition", {"shape": "primary_isolated", "duration_s": 0.5}),
         (0.25, "storage_slow", {"count": 1, "delay_s": 0.3}),
         (0.40, "gpu_fault", {"fault": "ecc"}),
         (0.55, "limp_endpoint", {"client": 1, "duration_s": 0.4}),
         (0.70, "partition", {"shape": "heal_divergence", "duration_s": 0.7}),
         (0.90, "kill_primary", {"dangerous": False})],
        [(0.10, "storage_torn", {"count": 2}),
         (0.25, "limp_endpoint", {"client": 0, "duration_s": 0.7}),
         (0.40, "gpu_throttle", {"severity": 5.0}),
         (0.55, "partition", {"shape": "standby_isolated", "duration_s": 0.6}),
         (0.70, "kill_primary", {"dangerous": True}),
         (0.82, "storage_slow", {"count": 3, "delay_s": 0.1})],
    ],
}


class NemesisSim(Workload):
    name = "nemesis_sim"

    def setup(self) -> None:
        from repro.resilience.simulation import (
            NemesisEvent,
            SimulationPlan,
            generate_schedule,  # noqa: F401  (imported so a tracer can find it)
            run_simulation,
        )

        # The simulator's checkpoint store writes under tempfile.mkdtemp();
        # keep that inside the checkout and remove it afterwards.
        OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="nemesis-", dir=OUT)
        self.saved_tempdir = tempfile.tempdir
        tempfile.tempdir = self.tmp
        self.run_simulation = run_simulation
        self.plan = SimulationPlan
        horizon = SimulationPlan().horizon_s
        self.schedules = {
            topology: [
                [NemesisEvent(round(at * horizon, 6), kind, dict(params))
                 for at, kind, params in events]
                for events in schedules
            ]
            for topology, schedules in _SCHEDULES.items()
        }
        #: history fingerprint per "topology/schedule/draw/steps"
        self.fingerprints: dict[str, str] = self.record
        self._round(steps=30, schedules=1, draws=1)  # warm-up

    def _plan(self, topology: str, index: int, draw: int, steps: int) -> Segment:
        """Run one plan and check it."""
        seed = (self.seed * SEEDS_PER_ROUND + draw) * 4 + index
        plan = self.plan(topology=topology, seed=seed, steps=steps)
        run = self.root("run_simulation", self.run_simulation, "resilience.simulation")
        self.attempted += steps
        cpu_before = self.cpu_s()
        start = time.perf_counter_ns()
        try:
            result = run(plan, self.schedules[topology][index])
        except Exception as exc:
            self.fail(f"{topology}/{index}: {type(exc).__name__}: {exc}", steps)
            result = None
        segment = Segment(ops=steps, wall_s=(time.perf_counter_ns() - start) / 1e9,
                          cpu_s=self.cpu_s() - cpu_before)
        if result is None:
            return segment
        if not result.clean:
            self.fail(f"{topology}/{index} seed {seed}: {result.violation_kinds()}", steps)
        key = f"{topology}/{index}/{draw}/{steps}"
        if self.fingerprints.setdefault(key, result.fingerprint) != result.fingerprint:
            self.fail(f"{topology}/{index} seed {seed}: fingerprint differs on re-run", steps)
        return segment

    def _round(self, *, steps: int, schedules: int = 4,
               draws: int = SEEDS_PER_ROUND) -> dict[str, Segment]:
        """Every plan of a run once: a :class:`Segment` each."""
        return {
            f"{topology}/{index}/{draw}": self._plan(topology, index, draw, steps)
            for draw in range(draws) for topology in TOPOLOGIES for index in range(schedules)
        }

    @staticmethod
    def _whole(plans: dict[str, Segment]) -> Segment:
        """A round of plans as one segment."""
        def rate(topology: str) -> float:
            mine = [s for unit, s in plans.items() if unit.startswith(topology)]
            return sum(s.ops for s in mine) / sum(s.wall_s for s in mine)

        return Segment.total(
            plans.values(),
            {f"detail.{topology}_steps_per_s": rate(topology) for topology in TOPOLOGIES},
        )

    def run_timed(self, seconds: float) -> list[Segment]:
        """Rounds of the same plans until another would overrun ``seconds``;
        two at least, so that every plan has a round to be compared with."""
        begin = time.perf_counter()
        runs: dict[str, list[Segment]] = {}
        rounds = 0
        while rounds < 2 or (time.perf_counter() - begin) * (rounds + 1) <= seconds * rounds:
            for unit, segment in self._round(steps=STEPS).items():
                runs.setdefault(unit, []).append(segment)
            rounds += 1
        return [self._whole(ranked) for ranked in by_rank(runs)]

    def run_fixed(self) -> Segment:
        """One plan per topology at ``steps=200``."""
        return self._whole(self._round(steps=FIXED_STEPS, schedules=1, draws=1))

    def check(self) -> None:
        """Cleanliness is checked as each plan finishes, and so is
        determinism wherever a plan ran in more than one round; the first
        plan of each topology is run once more, for the passes that make a
        single round."""
        for key in list(self.fingerprints):
            topology, index, draw, steps = key.split("/")
            if index == draw == "0":
                self._plan(topology, 0, 0, int(steps))

    def close(self) -> None:
        if hasattr(self, "tmp"):
            tempfile.tempdir = self.saved_tempdir
            shutil.rmtree(self.tmp, ignore_errors=True)
