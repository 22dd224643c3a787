"""proxy_apps: Fig 5's three applications on ``rustyhermit()``.

matrixMul, cuSolverDn_LinearSolver (900 x 900) and histogram (64 MiB)
through ``repro.harness.runner.make_session`` -- timing-only device,
``LoopbackTransport`` + ``PlatformMeter`` -- at 1/80 of the paper's
iteration counts, so one app run takes 0.2-0.6 s and a run fits some
fifteen repetitions of the three.

Why: this is what regenerating a paper figure costs its user.  There are
no sockets, and ``unikernel`` (meter), ``cuda`` and ``gpu`` (timing model)
share the time with the RPC layers: an RPC-layer gain appears diluted and
a model/meter gain appears only here.
"""

from __future__ import annotations

import random
import time

from bench import MIB
from bench.workloads import Segment, Workload, by_rank

#: iterations per repetition (paper scale / 80, the harness's 1/10 scale / 8)
TIMED = {"matrixmul": 1250, "linearsolver": 12, "histogram": 500}
#: the traced pass and its unpatched twin
FIXED = {"matrixmul": 500, "linearsolver": 5, "histogram": 200}
WARMUP = {"matrixmul": 100, "linearsolver": 2, "histogram": 50}


class ProxyApps(Workload):
    name = "proxy_apps"

    def setup(self) -> None:
        from repro.apps import histogram, linearsolver, matrixmul
        from repro.harness.runner import make_session
        from repro.unikernel import rustyhermit

        self.make_session = make_session
        self.platform = rustyhermit()
        self.apps = {
            "matrixmul": lambda s, n, **kw: matrixmul.run(s, iterations=n, **kw),
            "linearsolver": lambda s, n, **kw: linearsolver.run(
                s, iterations=n, seed=self.seed, **kw
            ),
            "histogram": lambda s, n, **kw: histogram.run(
                s, iterations=n, seed=self.seed, **kw
            ),
        }
        self.order = sorted(self.apps)
        random.Random(self.seed).shuffle(self.order)
        #: [api_calls, bytes_transferred, virtual elapsed_s] per
        #: "app/iterations", first repetition; the model is deterministic,
        #: so every later one must match
        self.reference: dict[str, list] = self.record
        self.virtual_s: dict[str, float] = {}
        # First touch of the 64 MiB input pages costs seconds; pay it here.
        self._repetition(WARMUP, remember=False)

    def _repetition(self, iterations: dict[str, int], *, remember: bool = True) -> dict[str, Segment]:
        """Each app once, in the seeded order: one :class:`Segment` per app."""
        runs: dict[str, Segment] = {}
        for app in self.order:
            with self.make_session(self.platform) as session:
                session.client.stub.client.xid_observer = self.xid_observer
                run = self.root(app, self.apps[app])
                cpu_before = self.cpu_s()
                start = time.perf_counter_ns()
                try:
                    result = run(session, iterations[app], verify=False)
                except Exception as exc:
                    self.fail(f"{app}: {type(exc).__name__}: {exc}")
                    continue
                wall_s = (time.perf_counter_ns() - start) / 1e9
                cpu_s = self.cpu_s() - cpu_before
            runs[app] = Segment(ops=result.api_calls, wall_s=wall_s, cpu_s=cpu_s)
            self.attempted += result.api_calls
            if remember:
                seen = [result.api_calls, result.bytes_transferred, result.elapsed_s]
                key = f"{app}/{iterations[app]}"
                if self.reference.setdefault(key, seen) != seen:
                    self.fail(f"{app}: {seen} differs from {self.reference[key]}")
                self.virtual_s[app] = result.elapsed_s
        return runs

    @staticmethod
    def _whole(runs: dict[str, Segment]) -> Segment:
        """One repetition's three app runs as one segment."""
        return Segment.total(
            runs.values(), {f"detail.{app}_wall_s": s.wall_s for app, s in runs.items()}
        )

    def run_timed(self, seconds: float) -> list[Segment]:
        deadline = time.perf_counter() + seconds
        runs: dict[str, list[Segment]] = {app: [] for app in self.order}
        while not runs[self.order[-1]] or time.perf_counter() < deadline:
            for app, segment in self._repetition(TIMED).items():
                runs[app].append(segment)
        return [self._whole(ranked) for ranked in by_rank(runs)]

    def run_fixed(self) -> Segment:
        return self._whole(self._repetition(FIXED))

    def check(self) -> None:
        """Each app once at small scale with real numerics, untimed."""
        from repro.apps import histogram, linearsolver, matrixmul

        runs = {
            "matrixmul": lambda s: matrixmul.run(s, iterations=3, verify=True),
            "linearsolver": lambda s: linearsolver.run(
                s, n=64, iterations=2, seed=self.seed, verify=True
            ),
            "histogram": lambda s: histogram.run(
                s, data_bytes=1 * MIB, iterations=300, seed=self.seed, verify=True
            ),
        }
        for app, run in runs.items():
            self.attempted += 1
            with self.make_session(self.platform, execute=True) as session:
                if run(session).verified is not True:
                    self.fail(f"{app}: small-scale run did not verify")
