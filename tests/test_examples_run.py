"""Every example script must run to completion (they self-verify).

The heavy sweep examples (platform_comparison, bandwidth_survey) are
exercised at reduced scale elsewhere; here we run the fast ones end to end
as ``__main__`` in the test process (that a fresh interpreter imports the
package is covered by ``test_package_surface.py``'s fresh-process tests).
"""

import pathlib
import runpy

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_kernel_cubin.py",
    "checkpoint_migration.py",
    "multi_tenant_scheduling.py",
    "rpclib_universality.py",
    "figure2_cluster.py",
    "profiling_trace.py",
    "spectral_analysis.py",
    "fault_tolerance_demo.py",
    "session_lifecycle_demo.py",
    "failover_demo.py",
    "sanitizer_demo.py",
    "split_brain_demo.py",
    "gray_failure_demo.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # examples may write artifacts (trace.json)
    monkeypatch.setattr("sys.argv", [script])
    try:
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    except SystemExit as stop:
        assert stop.code in (None, 0), f"{script} exited with {stop.code}"
    assert capsys.readouterr().out.strip(), f"{script} produced no output"


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 10
    for script in scripts:
        source = script.read_text()
        assert source.lstrip().startswith(("#!", '"""')), f"{script.name} lacks a header"
        assert '"""' in source, f"{script.name} lacks a docstring"
        assert "__main__" in source, f"{script.name} is not runnable"
