"""Evaluation harness regenerating every table and figure of the paper.

* :mod:`repro.harness.configs` -- Table 1,
* :mod:`repro.harness.figure5` -- proxy-application execution times,
* :mod:`repro.harness.figure6` -- CUDA API micro-benchmarks,
* :mod:`repro.harness.figure7` -- memory-transfer bandwidth,
* :mod:`repro.harness.ablation` -- §4.2's offload and transfer-method
  studies,
* :mod:`repro.harness.report` -- table rendering and result persistence.

Each ``run_*`` function returns a structured result whose ``render()``
produces the paper-style text table; the benchmark suite asserts the
*shape* criteria from DESIGN.md on these results.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "configs": ("table1", "table1_rows", "PAPER_TABLE1", "eval_platforms", "workload_scale"),
        "figure5": ("run_figure5", "Figure5Result"),
        "figure6": ("run_figure6", "Figure6Result"),
        "figure7": ("run_figure7", "Figure7Result"),
        "ablation": (
            "run_offload_ablation", "OffloadAblationResult", "run_transfer_method_comparison",
            "TransferMethodResult",
        ),
        "outlook": ("run_outlook", "OutlookResult"),
        "scaling": ("run_scaling", "ScalingResult", "TenantLoad"),
        "breakdown": (
            "measure_breakdown", "CostBreakdown", "bulk_upload_workload", "chatty_workload",
        ),
        "report": ("render_table", "results_path", "save_and_print"),
    },
)
