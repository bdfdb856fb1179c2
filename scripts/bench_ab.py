"""A/B benchmark runs: a revision against the working tree, in alternating pairs.

    python3 scripts/bench_ab.py REV --workload W --pairs N [--seed S] [--seconds T]
                                [--record FILE]

Run it from the root of the repository.  It exports REV with ``git archive``
into one temporary directory and copies the working tree (tracked and
untracked files that git does not ignore) into another, then runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each,
N times, alternating which side runs first.  ``--seconds`` defaults to the
``run_seconds`` of BENCHMARK.json, ``--seed`` to 7.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change wins (ties count for neither side), and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the distance
between the parent's quartiles.  It also prints, per metric, whether the
change's median is worse than the parent's by more than the benchmark's
bound, a share of the parent's median.  Nothing under perfbench/ is
changed.

With ``--record FILE`` it also appends the comparison as one row to the
trajectory FILE (BENCH_trajectory.json), a JSON object
``{"schema": 1, "rows": [...]}`` that holds one row per line.  A row holds
the change (``commit``: the short hash of HEAD, with ``+`` when the working
tree differs from it), the ``parent`` revision, the workload, seed, pairs
and run seconds, and for every end-to-end metric each side's
``[first quartile, median, third quartile]`` with the pairs the change won
and lost.  ``host`` holds the ``nproc`` and each run's ``loadavg`` that
perfbench reports, in run order.  ``tree`` is the ``git write-tree`` hash
of the files copied for the change, built in a temporary index so that the
repository's own index is untouched; the trajectory FILE is left out of
it, since the committed FILE holds the row itself.  A row therefore
matches a commit whose files, FILE aside, are the ones measured: its
``tree`` equals what

    GIT_INDEX_FILE=/tmp/i git read-tree COMMIT
    GIT_INDEX_FILE=/tmp/i git rm -q --cached FILE
    GIT_INDEX_FILE=/tmp/i git write-tree

prints.  ``source`` is ``"bench_ab"``; rows copied from older records say
where they come from and leave null what was not recorded (rows recorded
before ``tree`` existed have none).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WIN_SHARE = 0.9
TRAJECTORY_SCHEMA = 1


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of xs, by linear
    interpolation between the order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """The comparison of one metric over pairs of runs: parent[i] and
    change[i] ran as pair i; ``better`` is "lower" or "higher", and
    ``bound`` the worsening of the median, as a share of the parent's,
    beyond which the change regressed."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (pq[1] - cq[1])           # > 0 when the change's median is better
    return {
        "parent": pq, "change": cq, "pairs": len(parent), "wins": wins,
        "losses": losses,
        "gain_holds": wins >= WIN_SHARE * len(parent) and gain > pq[2] - pq[0],
        "regressed": -gain > bound * abs(pq[1]),
    }


def export(rev: str, dest: Path) -> None:
    """Extract a ``git archive`` of rev into the directory dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _copy_tree(dest: Path) -> list[str]:
    """Copy the working tree into dest; returns the names copied."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True,
                            capture_output=True).stdout
    copied = []
    for name in listed.decode().split("\0"):
        if name and Path(name).is_file():   # a deleted, uncommitted file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, dest / name)
            copied.append(name)
    return copied


def tree_hash(names: list[str], cwd=None) -> str:
    """The ``git write-tree`` hash of the named files of the work tree at
    cwd, built in a temporary index: the repository's own index is not
    read or written."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp, "index"))}
        subprocess.run(["git", "update-index", "--add", "-z", "--stdin"], cwd=cwd,
                       env=env, input="\0".join(names).encode(), check=True,
                       capture_output=True)
        return subprocess.run(["git", "write-tree"], cwd=cwd, env=env, check=True,
                              capture_output=True, text=True).stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced benchmark run in root, with
    its correctness and the host's nproc and load average."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {root}:\n{proc.stderr}")
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update(correct=result["correct"], nproc=meta["nproc"], loadavg=meta["loadavg"])
    return values


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _sig(x: float) -> float:
    return float(f"{x:.6g}")


def trajectory_row(commit: str, parent: str, tree: str, workload: str, seed: int,
                   seconds: float, summaries: dict, runs: list[dict]) -> dict:
    """One trajectory row: summaries maps each end-to-end metric to its
    ``summarize`` result, runs lists every run of both sides in run order."""
    return {
        "commit": commit, "parent": parent, "tree": tree, "workload": workload,
        "seed": seed, "pairs": len(runs) // 2, "seconds": seconds, "source": "bench_ab",
        "metrics": {name: {"parent": [_sig(x) for x in row["parent"]],
                           "change": [_sig(x) for x in row["change"]],
                           "wins": row["wins"], "losses": row["losses"]}
                    for name, row in summaries.items()},
        "host": {"nproc": runs[0]["nproc"],
                 "loadavg": [[round(x, 2) for x in r["loadavg"]] for r in runs]},
    }


def record(path: Path, row: dict) -> None:
    """Append row to the trajectory file at path, which is created if it
    does not exist."""
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"] if path.exists() else []
    rows.append(row)
    body = ",\n".join(json.dumps(r) for r in rows)
    path.write_text(f'{{"schema": {TRAJECTORY_SCHEMA}, "rows": [\n{body}\n]}}\n',
                    encoding="utf-8")


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision, e.g. HEAD")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--record", metavar="FILE", type=Path,
                        help="append the comparison as a row to this trajectory file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # the change is the working tree as it is copied
    commit = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain"):
        commit += "+"
    parent = _git("rev-parse", "--short", args.rev)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    in_order: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for root in roots.values():
            root.mkdir()
        export(args.rev, roots["parent"])
        copied = _copy_tree(roots["change"])
        if args.record is not None:
            trajectory = args.record.resolve()
            tree = tree_hash([n for n in copied if Path(n).resolve() != trajectory])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(roots[side], args.workload, args.seed,
                                       args.seconds))
                in_order.append(runs[side][-1])
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} wall_s {runs[side][-1].get('wall_s')}" for side in order),
                file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, parent {args.rev}")
    for side in ("parent", "change"):
        print(f"  {side} correct in every run: "
              f"{all(r['correct'] for r in runs[side])}")
    summaries = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        row = summaries[name] = summarize([r[name] for r in runs["parent"]],
                                          [r[name] for r in runs["change"]],
                                          metric["better"], metric["bound"])
        p, c = row["parent"], row["change"]
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}], "
              f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]; "
              f"change wins {row['wins']}/{row['pairs']}, loses {row['losses']}; "
              f"gain holds: {row['gain_holds']}; "
              f"worse than the bound {metric['bound']:g}: {row['regressed']}")
    if args.record is not None:
        record(args.record, trajectory_row(commit, parent, tree, args.workload,
                                           args.seed, args.seconds, summaries,
                                           in_order))
        print(f"  recorded in {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
