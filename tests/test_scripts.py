"""The scripts' own logic: the mutation corpus's table and the A/B
benchmark's summary."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_ab import summarize  # noqa: E402
from mutants import MUTANTS  # noqa: E402


def test_every_mutant_edits_one_place_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


def test_summary_claims_a_gain_only_past_the_parents_spread():
    parent = [3.10, 3.20, 3.15, 3.12, 3.18, 3.16, 3.14, 3.11, 3.19, 3.13]
    change = [p - 0.1 for p in parent]
    row = summarize(parent, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["gain_holds"] and not row["regressed"]
    assert row["parent"][1] == pytest.approx(3.145)
    assert row["change"][1] == pytest.approx(3.045)
    assert row["parent"][0] == pytest.approx(3.1225)
    assert row["parent"][2] == pytest.approx(3.175)

    # every pair won, but by less than the parent's interquartile range
    row = summarize(parent, [p - 0.01 for p in parent], "lower", 0.25)
    assert row["wins"] == 10 and not row["gain_holds"]

    # a wide gap, but 8 of 10 pairs won, one tied
    change = [p - 0.1 for p in parent[:8]] + [parent[8], parent[9] + 0.01]
    row = summarize(parent, change, "lower", 0.25)
    assert (row["wins"], row["losses"]) == (8, 1) and not row["gain_holds"]


def test_summary_reads_higher_is_better_and_the_relative_bound():
    parent = [1.0, 1.0, 1.0, 1.0]
    row = summarize(parent, [0.995] * 4, "higher", 0.01)
    assert row["losses"] == 4 and not row["regressed"]
    row = summarize(parent, [0.98] * 4, "higher", 0.01)
    assert row["regressed"] and not row["gain_holds"]
    row = summarize([30.0] * 3, [33.5] * 3, "lower", 0.1)
    assert row["regressed"]
    row = summarize([30.0] * 3, [32.5] * 3, "lower", 0.1)
    assert not row["regressed"]
