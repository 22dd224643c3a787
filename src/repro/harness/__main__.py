"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                 # everything, then the claims
    python -m repro.harness table1 fig6     # selected artifacts
    python -m repro.harness --list

Reports print to stdout and are written to ``results/``.  A full run also
checks every row of :mod:`repro.harness.claims` on what it computed,
writes ``results/claims.txt`` and exits non-zero if a row fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import claims
from repro.harness.ablation import (
    BatchingResult,
    OffloadAblationResult,
    TransferMethodResult,
    run_launch_batching,
    run_offload_ablation,
    run_transfer_method_comparison,
)
from repro.harness.analysis import (
    ComputeBoundResult,
    ShmooResult,
    run_compute_bound,
    run_shmoo,
)
from repro.harness.breakdown import BreakdownResult, run_breakdown
from repro.harness.configs import Table1Result, run_table1
from repro.harness.figure5 import Figure5Result, run_figure5
from repro.harness.figure6 import Figure6Result, run_figure6
from repro.harness.figure7 import Figure7Result, run_figure7
from repro.harness.outlook import OutlookResult, run_outlook
from repro.harness.report import save_and_print
from repro.harness.scaling import ScalingResult, run_scaling

#: key -> (title, file under results/, run, render)
ARTIFACTS = {
    "table1": ("Table 1 (configurations)", "table1.txt", run_table1, Table1Result.render),
    "fig5": (
        "Figure 5 (application execution times)", "figure5.txt", run_figure5,
        Figure5Result.render,
    ),
    "fig6": (
        "Figure 6 (API micro-benchmarks)", "figure6.txt", run_figure6, Figure6Result.render,
    ),
    "fig7": ("Figure 7 (transfer bandwidth)", "figure7.txt", run_figure7, Figure7Result.render),
    "offloads": (
        "4.2 offload ablation", "ablation_offloads.txt", run_offload_ablation,
        OffloadAblationResult.render,
    ),
    "methods": (
        "4.2 transfer-method comparison", "ablation_transfer_methods.txt",
        run_transfer_method_comparison, TransferMethodResult.render,
    ),
    "outlook": (
        "5 outlook projections (TSO / csum / vDPA)", "ablation_outlook.txt", run_outlook,
        OutlookResult.render,
    ),
    "batching": (
        "5 launch batching", "ablation_batched_launches.txt", run_launch_batching,
        BatchingResult.render,
    ),
    "breakdown": (
        "4.2 cost attribution", "analysis_breakdown.txt", run_breakdown, BreakdownResult.render,
    ),
    "shmoo": (
        "latency -> bandwidth crossover", "analysis_shmoo.txt", run_shmoo, ShmooResult.render,
    ),
    "scaling": (
        "multi-tenant GPU sharing", "analysis_scaling.txt", run_scaling, ScalingResult.render,
    ),
    "compute_bound": (
        "compute-bound counter-example", "analysis_compute_bound.txt", run_compute_bound,
        ComputeBoundResult.render,
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's evaluation artifacts.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        metavar="ARTIFACT",
        help=f"which artifacts to regenerate: {', '.join(ARTIFACTS)}, all "
        "(default: all, and the claims)",
    )
    parser.add_argument("--list", action="store_true", help="list artifacts and exit")
    args = parser.parse_args(argv)

    if args.list:
        for key, (title, *_rest) in ARTIFACTS.items():
            print(f"  {key:<14} {title}")
        return 0

    unknown = [a for a in args.artifacts if a != "all" and a not in ARTIFACTS]
    if unknown:
        parser.error(f"unknown artifact(s): {', '.join(unknown)}")
    selected = (
        list(ARTIFACTS)
        if not args.artifacts or "all" in args.artifacts
        else args.artifacts
    )
    results = {}
    for key in selected:
        title, filename, run, render = ARTIFACTS[key]
        print(f"\n##### {title} #####\n")
        start = time.time()
        results[key] = run()
        save_and_print(filename, render(results[key]))
        print(f"\n[{key} regenerated in {time.time() - start:.1f}s wall]")
    if len(results) < len(ARTIFACTS):
        return 0
    values = claims.evaluate(results)
    print("\n##### Claims #####\n")
    save_and_print("claims.txt", claims.render(values))
    failed = claims.failures(values)
    if failed:
        print(f"\n{len(failed)} claim(s) fail: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
