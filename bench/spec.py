"""The benchmark's contract, read from ``BENCHMARK.json``.

Workload and metric names live in that one file; everything here and in
``compare.py`` takes them from it, so what is printed can never drift
from what is declared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from bench import ROOT


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: share of the median


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def metrics(self, traced: bool) -> tuple[Metric, ...]:
        return self.per_layer if traced else self.end_to_end


def load_spec() -> Spec:
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads=tuple(w["name"] for w in raw["workloads"]),
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )
