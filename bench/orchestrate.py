"""Runs generator processes and turns what they report into metrics."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from bench import ROOT
from bench.spec import Spec
from bench.stats import summarize, undisturbed

#: set-ups per timed run; ``setup_s`` is their median
SETUPS = 3
#: a generator that has not finished by then is killed (the driver allows 180 s)
GENERATOR_TIMEOUT_S = 170


class GeneratorFailed(RuntimeError):
    """A generator process died, hung, or never reported."""


def spawn_generator(
    workload: str, seed: int, seconds: float, mode: str, fault: str | None = None
) -> tuple[float, dict | None]:
    """Run one generator to completion: (setup_s, RESULT payload if any)."""
    command = [
        sys.executable, "-m", "bench.generator", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if fault:
        command += ["--fault", fault]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=GENERATOR_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise GeneratorFailed(f"{workload} generator ({mode}) timed out") from None
    tagged = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    ready = json.loads(tagged["READY"]) if "READY" in tagged else None
    if proc.returncode != 0 or ready is None:
        raise GeneratorFailed(
            f"{workload} generator ({mode}) exited with code {proc.returncode}"
        )
    result = json.loads(tagged["RESULT"]) if "RESULT" in tagged else None
    return ready["t_ready"] - started, result


def _verdict(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed"] / max(result["attempted"], 1),
        "problems": result["problems"],
        "record": result["record"],
    }


def run_timed(
    spec: Spec, workload: str, seed: int, seconds: float,
    *, fault: str | None = None, setups: int = SETUPS,
) -> dict:
    """One end-to-end run: nothing patched, output checks on."""
    setup_s, result = spawn_generator(workload, seed, seconds, "timed", fault)
    setup_samples = [setup_s] + [
        spawn_generator(workload, seed, seconds, "setup")[0] for _ in range(setups - 1)
    ]
    segments = result["segments"]
    known = {m.name: m for m in (*spec.end_to_end, *spec.per_layer)}
    samples = {
        "ops_per_s": [s["ops"] / s["wall_s"] for s in segments],
        "cpu_us_per_op": [s["cpu_s"] / s["ops"] * 1e6 for s in segments],
        **{key: [s["detail"][key] for s in segments] for key in segments[0]["detail"]},
    }
    values = {name: undisturbed(data, known[name].better) for name, data in samples.items()}
    setup_median = statistics.median(setup_samples)
    values["setup_s"] = {"value": setup_median, "median": setup_median, "n": setups}
    rss = result["maxrss_KiB"] / 1024
    values["peak_rss_MiB"] = {"value": rss, "median": rss, "n": 1}
    declared = {m.name for m in spec.end_to_end}
    return {
        **_verdict(result),
        "metrics": _named(spec, False, {k: v for k, v in values.items() if k in declared}),
        "detail": {k: {**v, "unit": known[k].unit} for k, v in values.items()
                   if k not in declared},
        "cpu_spin_ms": result["cpu_spin_ms"],
    }


def record_mismatches(a: dict, b: dict) -> list[str]:
    """Keys of two runs' exact records (same seed) whose values differ."""
    return sorted(key for key in a.keys() & b.keys() if a[key] != b[key])


def combine(runs: list[dict]) -> dict:
    """Several timed runs at one seed as one result: a metric's value is the
    median over the runs, with quartiles, count and every run's value."""
    def over_runs(group: str) -> dict[str, dict]:
        combined = {}
        for name, first in runs[0][group].items():
            per_run = [run[group][name]["value"] for run in runs]
            extra = {"unit": first["unit"]} if "unit" in first else {}
            combined[name] = {**summarize(per_run), **extra, "runs": per_run}
        return combined

    record = runs[0]["record"]
    mismatches = [
        f"exact record differs between runs at {differing}"
        for run in runs[1:]
        if (differing := record_mismatches(record, run["record"]))
    ]
    problems = [problem for run in runs for problem in run["problems"]] + mismatches
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs) + len(mismatches)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(attempted, 1),
        "problems": problems,
        "record": record,
        "metrics": over_runs("metrics"),
        "detail": over_runs("detail"),
        "cpu_spin_ms": [run["cpu_spin_ms"] for run in runs],
    }


def run_traced(spec: Spec, workload: str, seed: int, seconds: float) -> dict:
    """The per-layer run: one traced pass plus the workload-independent probes."""
    _, result = spawn_generator(workload, seed, seconds, "traced")
    layers = {name: {"value": value} for name, value in result["layers"].items()}
    missing = {m.name for m in spec.per_layer} - set(layers)
    for name in missing:  # a lane or detail this workload never touches
        layers[name] = {"value": 0.0}
    return {
        **_verdict(result),
        "metrics": _named(spec, True, layers),
        "trace_file": result["trace_file"],
        "tree": result["tree"],
    }


def _named(spec: Spec, traced: bool, values: dict[str, dict]) -> dict[str, dict]:
    """Exactly the declared metrics, each with its declared unit."""
    declared = spec.metrics(traced)
    unknown = set(values) - {m.name for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {m.name: {**values[m.name], "unit": m.unit} for m in declared}


def driver_line(run: dict) -> str:
    """The one JSON object the benchmark driver reads from the last line."""
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in run["metrics"].items()
        },
    })
