"""One workload in one fresh process: the load generator.

``python -m bench.generator --workload W --seed N --seconds S --mode M``
prints ``READY {json}`` when set-up is complete (the parent times set-up
from its own ``Popen`` call to that moment) and ``RESULT {json}`` at the
end.  Modes: ``setup`` stops after READY, ``timed`` measures with nothing
patched, ``traced`` makes the per-layer pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict

from bench import OUT
from bench.stats import cpu_spin_ms
from bench.workloads import Segment, Workload, registry


def _emit(tag: str, payload: dict) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


def _ready(workload: Workload) -> None:
    child = getattr(workload, "child", None)
    _emit("READY", {
        "t_ready": time.monotonic(),
        "server_pid": child.pid if child is not None else None,
    })


def _outcome(workload: Workload) -> dict:
    return {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "record": workload.record,
    }


def run_timed(workload: Workload, seconds: float) -> dict:
    workload.setup()
    _ready(workload)
    if workload.fault == "raise":
        raise RuntimeError("injected generator failure")
    spin_before = cpu_spin_ms()
    segments = workload.run_timed(seconds)
    workload.check()
    spin_after = cpu_spin_ms()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **_outcome(workload),
        "segments": [asdict(segment) for segment in segments],
        "maxrss_KiB": own + workload.server_maxrss_KiB(),
        "cpu_spin_ms": [spin_before, spin_after],
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """The per-layer pass.

    First the workload's fixed small op count with nothing patched (its
    ``detail.*`` numbers), then the same op count under the tracer --
    socket workloads served from a thread of this process, so both lanes
    land in one trace, with an unpatched pass in that same arrangement
    before and after as the base of ``trace.overhead_ratio`` -- then the
    workload-independent probes: reference floors, micro replays, the
    feature-tax matrix and the allocation peaks.
    """
    from bench import micro, refs, tax
    from bench.trace import Tracer, lane_metrics

    cls = registry()[name]
    spin_before = cpu_spin_ms()

    ran: list[Workload] = []

    def fixed_pass(workload: Workload, announce: bool = False) -> Segment:
        ran.append(workload)
        try:
            workload.setup()
            if announce:
                _ready(workload)
            tracer.start()
            segment = workload.run_fixed()
            tracer.stop()
            workload.check()
            return segment
        finally:
            workload.close()

    tracer = Tracer()  # records nothing until install()
    detail = fixed_pass(cls(seed), announce=True)

    def unpatched() -> Segment:
        return fixed_pass(cls(seed, in_process=True)) if cls.two_processes else detail

    # The overhead base brackets the traced pass, so drift cancels.
    before = unpatched()
    traced = cls(seed, in_process=True)
    traced.xid_observer = tracer.note_xid
    traced.root = tracer.root
    tracer.install()
    try:
        segment = fixed_pass(traced)
    finally:
        tracer.uninstall()
    after = fixed_pass(cls(seed, in_process=True))
    base_s_per_op = (before.wall_s / before.ops + after.wall_s / after.ops) / 2

    layers = lane_metrics(tracer, ops=segment.ops)
    layers["trace.overhead_ratio"] = (segment.wall_s / segment.ops) / base_s_per_op
    layers.update(detail.detail)
    virtual = getattr(traced, "virtual_s", {})
    for app in ("matrixmul", "linearsolver", "histogram"):
        layers[f"sim.{app}_virtual_s"] = virtual.get(app, 0.0)
    budget = max(seconds, 4.0)
    layers.update(refs.measure())
    layers.update(micro.measure(budget * 0.2))
    layers.update(tax.measure(budget * 0.25))
    layers.update(micro.alloc_peaks())
    layers["ref.cpu_spin_before_ms"] = spin_before
    layers["ref.cpu_spin_after_ms"] = cpu_spin_ms()

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{name}.json"
    tracer.write(trace_path)
    problems = [problem for w in ran for problem in w.problems]
    diverged = any(w.record != traced.record for w in ran)
    if diverged:
        problems.append("tracing changed the workload's exact record")
    return {
        "attempted": sum(w.attempted for w in ran),
        "failed": sum(w.failed for w in ran) + diverged,
        "problems": problems,
        "record": traced.record,
        "layers": layers,
        "trace_file": str(trace_path),
        "tree": tracer.tree_check(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.generator")
    parser.add_argument("--workload", required=True, choices=sorted(registry()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--fault", default=None, help="test-only output corruption")
    args = parser.parse_args(argv)

    if args.mode == "traced":
        _emit("RESULT", run_traced(args.workload, args.seed, args.seconds))
        return 0
    workload = registry()[args.workload](args.seed, fault=args.fault)
    try:
        if args.mode == "setup":
            workload.setup()
            _ready(workload)
        else:
            _emit("RESULT", run_timed(workload, args.seconds))
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
