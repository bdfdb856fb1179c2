"""The scripts' own logic: the mutation corpus's table, the A/B
benchmark's summary and the speed trajectory it records, the
analytic_sweep work counts and the pipeline's peak memory."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_ab import record, summarize, trajectory_row, tree_hash  # noqa: E402
from mutants import MUTANTS  # noqa: E402
from peak_memory import command_rss, floor_rss, function_peaks  # noqa: E402
import workloads  # noqa: E402
from sweep_counts import main as sweep_counts_main, second_pass_counts  # noqa: E402


def test_every_mutant_edits_one_place_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name
        # a path::name entry names a test function of that file
        for path, _, name in (t.partition("::") for t in m.tests if "::" in t):
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.startswith("test_") and name in defined, (m.name, name)


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


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROW_KEYS = {"commit", "parent", "workload", "seed", "pairs", "seconds", "source",
            "metrics", "host"}


def check_row(row, tree_required=False):
    """A trajectory row as scripts/bench_ab.py documents it; rows copied from
    older records may leave null what those records did not give, and a
    bench_ab row lacks ``tree`` only where tree_required is false."""
    assert ROW_KEYS <= set(row) <= ROW_KEYS | {"tree"}
    assert re.fullmatch(r"[0-9a-f]{7,40}\+?", row["commit"])
    assert re.fullmatch(r"[0-9a-f]{7,40}", row["parent"])
    assert row["workload"] in {w["name"] for w in BENCH["workloads"]}
    assert row["source"] in {"bench_ab", "CHANGES.md", "driver"}
    pairs, seed = row["pairs"], row["seed"]
    assert pairs is None or (isinstance(pairs, int) and pairs >= 1)
    assert (seed is None or isinstance(seed, int)
            or (all(isinstance(s, int) for s in seed) and len(seed) == pairs))
    assert row["seconds"] is None or row["seconds"] > 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert "wall_s" in row["metrics"] and set(row["metrics"]) <= set(names)
    for metric in row["metrics"].values():
        assert set(metric) == {"parent", "change", "wins", "losses"}
        for side in (metric["parent"], metric["change"]):
            q1, median, q3 = side
            assert isinstance(median, (int, float))
            assert q1 is None or q1 <= median
            assert q3 is None or median <= q3
        counts = [c for c in (metric["wins"], metric["losses"]) if c is not None]
        assert all(isinstance(c, int) and c >= 0 for c in counts)
        assert pairs is None or sum(counts) <= pairs
    host = row["host"]
    if host is not None:
        assert isinstance(host["nproc"], int) and host["nproc"] >= 1
        assert len(host["loadavg"]) == 2 * pairs
        assert all(len(load) == 3 for load in host["loadavg"])
    if row["source"] == "bench_ab":
        # a recorded row leaves nothing out
        assert list(row["metrics"]) == names
        assert isinstance(seed, int) and pairs is not None and row["seconds"]
        assert host is not None
        assert all(None not in m["parent"] + m["change"] + [m["wins"], m["losses"]]
                   for m in row["metrics"].values())
        assert "tree" in row or not tree_required
    if "tree" in row:
        assert row["source"] == "bench_ab"
        assert re.fullmatch(r"[0-9a-f]{40}|[0-9a-f]{64}", row["tree"])


def test_trajectory_rows_follow_the_schema():
    data = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    assert set(data) == {"schema", "rows"} and data["schema"] == 1
    # rows recorded before bench_ab wrote a tree have none; every later one has
    tree_seen = False
    for row in data["rows"]:
        check_row(row, tree_required=tree_seen)
        tree_seen = tree_seen or "tree" in row
    assert any(row["source"] == "bench_ab" for row in data["rows"])


def test_record_appends_one_row_per_line(tmp_path):
    runs = [{"nproc": 2, "loadavg": (0.5, 0.4, 0.3)} for _ in range(6)]
    summaries = {m["name"]: summarize([1.0, 1.1, 1.2], [0.9, 1.0, 1.3], m["better"],
                                      m["bound"]) for m in BENCH["end_to_end"]}
    row = trajectory_row("0123abc+", "0123abc", "ab" * 20, "synth", 7, 25.0,
                         summaries, runs)
    check_row(row, tree_required=True)
    assert row["tree"] == "ab" * 20
    with pytest.raises(AssertionError):
        check_row({k: v for k, v in row.items() if k != "tree"}, tree_required=True)
    check_row({k: v for k, v in row.items() if k != "tree"})
    assert row["pairs"] == 3
    assert row["metrics"]["wall_s"] == {"parent": [1.05, 1.1, 1.15],
                                        "change": [0.95, 1.0, 1.15],
                                        "wins": 2, "losses": 1}
    path = tmp_path / "trajectory.json"
    record(path, row)
    record(path, row)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == {"schema": 1, "rows": [row, row]}
    assert len(text.splitlines()) == 4


def test_tree_hash_matches_the_commit_without_the_trajectory(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], cwd=tmp_path, check=True, capture_output=True,
                              text=True).stdout.strip()
    names = ["a.py", "sub/b.txt", "BENCH_trajectory.json"]
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(name, encoding="utf-8")
    git("init", "-q")
    git("add", *names)
    git("commit", "-q", "-m", "files")
    index = (tmp_path / ".git" / "index").read_bytes()
    assert tree_hash(names, cwd=tmp_path) == git("rev-parse", "HEAD^{tree}")
    # the recipe of the bench_ab docstring, in a temporary index of its own
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp_path / "i")}
    for args in (["read-tree", "HEAD"],
                 ["rm", "-q", "--cached", "BENCH_trajectory.json"]):
        subprocess.run(["git", *args], cwd=tmp_path, env=env, check=True)
    recipe = subprocess.run(["git", "write-tree"], cwd=tmp_path, env=env, check=True,
                            capture_output=True, text=True).stdout.strip()
    assert tree_hash(names[:2], cwd=tmp_path) == recipe
    assert (tmp_path / ".git" / "index").read_bytes() == index


def test_sweep_counts_repeat_exactly_and_leave_the_library_unwrapped(capsys):
    from curvemates import analysis, checks, expressions
    originals = expressions.evaluate, analysis.rel_spread, checks._fit_line
    counts = second_pass_counts(7, per_family=1)
    assert counts == second_pass_counts(7, per_family=1)
    assert counts["profiles"] == 12
    assert all(isinstance(v, int) and v > 0 for v in counts.values())
    assert (expressions.evaluate, analysis.rel_spread, checks._fit_line) == originals
    assert sweep_counts_main(["7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(counts)
    assert lines[0] == "profiles 24"
    assert sweep_counts_main([]) == 2


def test_peak_memory_measures_every_function_and_a_command():
    peaks = function_peaks(steps=(1e-2,))
    assert len(peaks) == 4 * 3
    assert all(isinstance(v, int) and v > 0 for v in peaks.values())
    op = workloads.cli_ops("synth", 7, groups=("r3",))[0]
    [(key, rc, rss)] = command_rss([op])
    assert (key, rc) == (op.key, 0) and rss > 0


def test_peak_memory_floor_is_the_start_up_alone():
    # --show-tolerances imports what a command imports and computes nothing
    op = workloads.cli_ops("synth", 7, groups=("so3",))[0]
    [(_, rc, rss)] = command_rss([op])
    assert rc == 0 and 0 < floor_rss(runs=1) < rss
