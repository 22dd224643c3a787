"""``python3 -m bench compare A B``: two result directories, side by side.

One row per (end-to-end metric, workload), B against A, judged with the
bounds in ``BENCHMARK.json``:

* ``worse``       -- B's median is worse than A's by more than the bound;
* ``better``      -- B's median is better than A's by more than the bound;
* ``unresolved``  -- the medians are within the bound of each other but a
  side's own spread (q3 - q1 over its median) is wider than the bound, so
  "unchanged" cannot be claimed;
* ``within bound`` -- otherwise.

The exit status is nonzero when any row is ``worse``, or when an exact
record (virtual seconds, API calls, history fingerprints) differs between
two runs at the same seed.  This is the tool
for "two runs of the same commit agree" and for every before/after.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench.orchestrate import record_mismatches
from bench.spec import Metric, load_spec


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["value"] if summary["value"] else 0.0


def judge(metric: Metric, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, B's change as a share of A's median; positive = worse)."""
    change = (b["value"] - a["value"]) / a["value"]
    if metric.better == "higher":
        change = -change
    if change > metric.bound:
        return "worse", change
    if change < -metric.bound:
        return "better", change
    if max(_spread(a), _spread(b)) > metric.bound:
        return "unresolved", change
    return "within bound", change


def compare(dir_a: Path, dir_b: Path) -> tuple[list[tuple], list[str]]:
    """Rows of (workload, metric, a, b, unit, change, verdict), and a note
    for every exact record (virtual seconds, API calls, simulation history
    fingerprints) that differs between two runs at the same seed."""
    spec = load_spec()
    a, b = (json.loads((d / "BENCH_e2e.json").read_text()) for d in (dir_a, dir_b))
    rows = []
    for workload in spec.workloads:
        for metric in spec.end_to_end:
            ma = a["workloads"][workload]["metrics"][metric.name]
            mb = b["workloads"][workload]["metrics"][metric.name]
            verdict, change = judge(metric, ma, mb)
            rows.append((workload, metric.name, ma["value"], mb["value"],
                         metric.unit, change, verdict))
    notes = []
    if a.get("seed") == b.get("seed"):
        sides = [(a, b)]
        layers = [d / "BENCH_layers.json" for d in (dir_a, dir_b)]
        if all(p.exists() for p in layers):
            sides.append(tuple(json.loads(p.read_text()) for p in layers))
        for side_a, side_b in sides:
            for workload in spec.workloads:
                differing = record_mismatches(
                    *(s["workloads"][workload]["record"] for s in (side_a, side_b)))
                if differing:
                    notes.append(f"{workload}: exact record DIFFERS at {differing}")
    return rows, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A B", file=sys.stderr)
        return 2
    rows, notes = compare(Path(argv[0]), Path(argv[1]))
    print(f"{'workload':13s} {'metric':15s} {'A':>12s} {'B':>12s} {'unit':6s} {'worse by':>8s}  verdict")
    for workload, name, va, vb, unit, change, verdict in rows:
        print(f"{workload:13s} {name:15s} {va:12.5g} {vb:12.5g} {unit:6s} {change:+8.1%}  {verdict}")
    for note in notes:
        print(note)
    return 1 if notes or any(row[-1] == "worse" for row in rows) else 0
