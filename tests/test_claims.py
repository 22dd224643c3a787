"""The committed ``results/claims.txt`` satisfies every row of the claims table.

No harness run: the rows are re-evaluated on the values the last full
``python -m repro.harness`` recorded.  CI regenerates ``results/`` and
diffs it against the committed files, which proves the recorded values
are what the code computes; together the two prove the code satisfies
the claims.
"""

from pathlib import Path

import pytest

from repro.harness import claims

COMMITTED = Path(__file__).resolve().parent.parent / "results" / "claims.txt"


@pytest.fixture(scope="module")
def recorded():
    return claims.read(COMMITTED.read_text())


@pytest.fixture(scope="module")
def values(recorded):
    return {id: claims.parse_value(row["value"]) for id, row in recorded.items()}


def test_committed_claims_hold(recorded, values):
    assert list(recorded) == [c.id for c in claims.CLAIMS], "claims.txt is not the current table"
    failed = claims.failures(values)
    assert not failed, f"claims fail on the committed results: {', '.join(failed)}"
    stale = [
        c.id for c in claims.CLAIMS
        if recorded[c.id]["verdict"] != "PASS" or recorded[c.id]["relation"] != c.relation_text()
    ]
    assert not stale, f"claims.txt rows disagree with the table: {', '.join(stale)}"


class TestEvaluator:
    def test_a_perturbed_cell_fails_its_row(self, values):
        # Hermit's D2H with its per-byte receive cost doubled
        perturbed = dict(values, **{"fig7.cell.d2h.Hermit": 0.154})
        assert claims.failures(perturbed) == ["fig7.cell.d2h.Hermit"]

    def test_a_missing_row_fails(self, values):
        partial = {id: value for id, value in values.items() if id != "fig6c.c_launch_overhead"}
        assert claims.failures(partial) == ["fig6c.c_launch_overhead"]

    def test_relations(self):
        assert claims.RELATIONS["in"](0.5, (0.0, 1.0))
        assert not claims.RELATIONS["in"](1.0, (0.0, 1.0))
        assert claims.RELATIONS["~"](0.194, (0.193, 0.05))
        assert not claims.RELATIONS["~"](0.154, (0.193, 0.05))

    def test_render_round_trips(self, values):
        text = claims.render(values)
        reread = {id: claims.parse_value(row["value"]) for id, row in claims.read(text).items()}
        assert reread == values

    def test_every_row_is_well_formed(self):
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids))
        for claim in claims.CLAIMS:
            assert claim.kind in claims.KINDS and claim.relation in claims.RELATIONS
            assert claim.quote and " " not in claim.id


def test_experiments_quotes_the_committed_rows(recorded):
    lines = {line.rstrip() for line in COMMITTED.read_text().splitlines()}
    quoted = [
        line for line in (COMMITTED.parents[1] / "EXPERIMENTS.md").read_text().splitlines()
        if line.split(" ", 1)[0] in recorded
    ]
    assert quoted, "EXPERIMENTS.md quotes no claims.txt row"
    stale = [line.split(" ", 1)[0] for line in quoted if line not in lines]
    assert not stale, f"EXPERIMENTS.md quotes stale claims.txt rows: {', '.join(stale)}"
