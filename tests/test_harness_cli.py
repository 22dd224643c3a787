"""Tests for the command-line harness entry point."""

import pytest

from repro.harness import claims
from repro.harness.__main__ import ARTIFACTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in ARTIFACTS:
            assert key in out

    def test_single_artifact(self, capsys, monkeypatch, tmp_path):
        # Written to a scratch directory, not over the checked-in
        # results/table1.txt.
        from repro.harness import report

        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Hermit" in out
        assert "regenerated" in out
        assert (tmp_path / "table1.txt").exists()

    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure9000"])

    def test_artifact_registry_complete(self):
        assert set(ARTIFACTS) == {
            "table1", "fig5", "fig6", "fig7", "offloads", "methods", "outlook",
            "batching", "breakdown", "shmoo", "scaling", "compute_bound",
        }
        assert {claim.artifact for claim in claims.CLAIMS} == set(ARTIFACTS)

    def test_outlook_artifact_runs(self, capsys, monkeypatch, tmp_path):
        # Same CLI path and rendering at 1/16 of the transfer and 1/10 of
        # the calls; written to a scratch directory, not over the checked-in
        # full-scale results/ablation_outlook.txt.
        from repro.harness import outlook, report

        title, filename, _run, render = ARTIFACTS["outlook"]
        monkeypatch.setitem(
            ARTIFACTS, "outlook",
            (title, filename, lambda: outlook.run_outlook(nbytes=16 << 20, calls=200), render),
        )
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        assert main(["outlook"]) == 0
        assert "vDPA" in capsys.readouterr().out
        assert (tmp_path / "ablation_outlook.txt").exists()

    @pytest.mark.soak
    def test_outlook_artifact_full_scale(self, capsys):
        assert main(["outlook"]) == 0
        assert "vDPA" in capsys.readouterr().out
