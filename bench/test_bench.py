"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests``): the smoke run alone takes
about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import ROOT
from bench.spec import load_spec

SPEC = load_spec()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    """One ``--smoke`` suite run, shared by the tests that read its files."""
    out = tmp_path_factory.mktemp("smoke")
    done = _bench("--smoke", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out


def test_smoke_emits_exactly_the_declared_names(smoke: Path) -> None:
    for name, declared in (("BENCH_e2e.json", SPEC.end_to_end),
                           ("BENCH_layers.json", SPEC.per_layer)):
        result = json.loads((smoke / name).read_text())
        assert tuple(result["workloads"]) == SPEC.workloads
        for field in ("git_sha", "python", "nproc", "loadavg"):
            assert field in result["env_start"] and field in result["env_end"]
        for workload, run in result["workloads"].items():
            assert list(run["metrics"]) == [m.name for m in declared], workload
            assert run["failed"] == 0 and run["correct"] is True, run["problems"]
            for metric in declared:
                assert run["metrics"][metric.name]["unit"] == metric.unit
    e2e = json.loads((smoke / "BENCH_e2e.json").read_text())
    for run in e2e["workloads"].values():
        assert all(m["value"] > 0 for m in run["metrics"].values())


def test_span_trees_are_well_formed(smoke: Path) -> None:
    layers = json.loads((smoke / "BENCH_layers.json").read_text())
    for workload in SPEC.workloads:
        tree = layers["workloads"][workload]["tree"]
        assert tree["spans"] > 0 and tree["malformed"] == 0
        assert tree["restored"] is True
        # self times (lanes + socket wait) sum to the root spans within 2 %
        assert abs(tree["lanes_us"] - tree["root_us"]) <= 0.02 * tree["root_us"]
        trace = json.loads((smoke / f"trace-{workload}.json").read_text())
        rows = trace["spans"]
        assert 0 < len(rows) == trace["spans_written"] <= trace["spans_traced"]
        for row in rows:
            _, _, start, end, parent, _, thread = row
            assert start <= end
            if parent >= 0:
                assert rows[parent][6] == thread
                assert rows[parent][2] <= start
                # a parent cut off by the file's horizon still encloses its children
                assert end <= rows[parent][3]
    metrics = layers["workloads"]["launch_storm"]["metrics"]
    lanes = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_us_per_op"))
    lanes += metrics["oncrpc.transport.wait_us_per_op"]["value"]
    root = layers["workloads"]["launch_storm"]["tree"]["root_us"] / 2000
    assert abs(lanes - root) <= 0.02 * root


def test_tracer_restores_every_callable_by_identity() -> None:
    from bench.trace import Tracer
    from repro.oncrpc import record, server, transport
    from repro.oncrpc.message import RpcMessage

    before = {
        "dispatch": vars(server.RpcServer)["dispatch_record"],
        "decode": vars(RpcMessage)["decode"],  # a classmethod object
        "encode_record": record.encode_record,
    }
    tracer = Tracer()
    tracer.install()
    assert vars(server.RpcServer)["dispatch_record"] is not before["dispatch"]
    assert transport.encode_record is not before["encode_record"]  # rebound by name
    assert server.encode_record is transport.encode_record
    tracer.uninstall()
    assert tracer.patched and tracer.restored()
    assert vars(server.RpcServer)["dispatch_record"] is before["dispatch"]
    assert vars(RpcMessage)["decode"] is before["decode"]
    for module in (record, transport, server):
        assert module.encode_record is before["encode_record"]


@pytest.mark.parametrize("workload, fault", [
    ("bulk_copy", "flip_byte"), ("launch_storm", "skip_launch"),
])
def test_corrupted_output_fails_the_run(workload: str, fault: str) -> None:
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", "0", "--fault", fault)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in SPEC.end_to_end]
    assert line["failed"] > 0 and line["correct"] is False
    assert line["failed"] / line["attempted"] > 0  # failed_share


def test_server_child_is_gone_after_a_generator_exception() -> None:
    done = subprocess.run(
        [sys.executable, "-m", "bench.generator", "--workload", "launch_storm",
         "--seed", "1", "--seconds", "1", "--mode", "timed", "--fault", "raise"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    ready = next(line for line in done.stdout.splitlines() if line.startswith("READY "))
    pid = json.loads(ready.split(" ", 1)[1])["server_pid"]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)
    pytest.fail(f"server child {pid} still alive")


def test_compare_verdicts(smoke: Path, tmp_path: Path) -> None:
    same = _bench("compare", str(smoke), str(smoke))
    assert same.returncode == 0, same.stdout
    assert same.stdout.count("within bound") + same.stdout.count("unresolved") == (
        len(SPEC.workloads) * len(SPEC.end_to_end))
    slower = tmp_path / "slower"
    shutil.copytree(smoke, slower)
    e2e = json.loads((slower / "BENCH_e2e.json").read_text())
    for key in ("value", "q1", "q3"):
        e2e["workloads"]["bulk_copy"]["metrics"]["ops_per_s"][key] *= 0.5
    (slower / "BENCH_e2e.json").write_text(json.dumps(e2e))
    worse = _bench("compare", str(smoke), str(slower))
    assert worse.returncode != 0
    assert [line for line in worse.stdout.splitlines() if line.endswith("worse")] and (
        "bulk_copy" in worse.stdout)
    better = _bench("compare", str(slower), str(smoke))
    assert better.returncode == 0 and "better" in better.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    """A directory with only BENCHMARK.json and bench/: nonzero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "launch_storm", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
