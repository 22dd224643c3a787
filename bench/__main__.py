"""Command line of the benchmark.

Three forms::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1
        one run of one workload, the way the benchmark driver calls it; the
        last line of stdout is the result object.

    python3 -m bench [--seed N] [--seconds S] [--runs R] [--smoke] [--out DIR]
        every workload: R timed runs (nothing patched, outputs checked),
        then the traced run; prints every metric by name with its unit and
        writes BENCH_e2e.json, BENCH_layers.json and trace-<workload>.json.

    python3 -m bench compare A B
        two result directories, one row per (end-to-end metric, workload).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from bench import OUT, SRC


def _suite(args: argparse.Namespace) -> int:
    from bench import orchestrate
    from bench.spec import load_spec
    from bench.stats import environment

    spec = load_spec()
    seconds = 2.0 if args.smoke else (args.seconds or spec.run_seconds)
    setups = 1 if args.smoke else orchestrate.SETUPS
    runs = 1 if args.smoke else args.runs
    out = Path(args.out) if args.out else OUT / "latest"
    out.mkdir(parents=True, exist_ok=True)
    header = {"seed": args.seed, "seconds": seconds, "runs": runs, "env_start": environment()}
    e2e: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for workload in spec.workloads:
        print(f"== {workload}: {runs} timed run(s) of {seconds:g} s, nothing patched", flush=True)
        e2e[workload] = run = orchestrate.combine([
            orchestrate.run_timed(spec, workload, args.seed, seconds, setups=setups)
            for _ in range(runs)
        ])
        _print_metrics(workload, {**run["metrics"], **run["detail"]})
        _print_verdict(run)
        print(f"== {workload}: traced run", flush=True)
        layers[workload] = run = orchestrate.run_traced(spec, workload, args.seed, seconds)
        _print_metrics(workload, run["metrics"])
        _print_verdict(run)
        shutil.copy(run.pop("trace_file"), out / f"trace-{workload}.json")
    header["env_end"] = environment()
    for name, body in (("BENCH_e2e.json", e2e), ("BENCH_layers.json", layers)):
        (out / name).write_text(json.dumps({**header, "workloads": body}, indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if all(r["correct"] for r in (*e2e.values(), *layers.values())) else 1


def _print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, m in metrics.items():
        spread = f"  [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]" if "q1" in m else ""
        print(f"{workload:13s} {name:40s} {m['value']:>14.6g} {m.get('unit', ''):8s}{spread}")


def _print_verdict(run: dict) -> None:
    print(
        f"   attempted {run['attempted']}  failed {run['failed']}  "
        f"failed_share {run['failed_share']:.3g}  correct {run['correct']}"
    )
    for problem in run["problems"]:
        print(f"   problem: {problem}")


def _driver(args: argparse.Namespace) -> int:
    from bench import orchestrate
    from bench.spec import load_spec

    spec = load_spec()
    seconds = args.seconds or spec.run_seconds
    if args.trace:
        run = orchestrate.run_traced(spec, args.workload, args.seed, seconds)
    else:
        run = orchestrate.run_timed(spec, args.workload, args.seed, seconds, fault=args.fault)
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(orchestrate.driver_line(run))
    return 0 if run["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="suite form: 2 s runs, one set-up")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite form: timed runs per workload (value = their median)")
    parser.add_argument("--out", help="suite form: result directory")
    parser.add_argument("--fault", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    return _driver(args) if args.workload else _suite(args)


if __name__ == "__main__":
    sys.exit(main())
