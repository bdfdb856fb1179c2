#!/usr/bin/env python3
"""Peak memory of the mate pipeline, by function and by benchmark command.

    PYTHONPATH=src python3 scripts/peak_memory.py

Run it from the root of the repository.  First, for the Salkowski curve
(kappa = 3, tau = 2s on [-3, 3]) in r3, so3 and s3 at h = 1e-3 (6001 rows)
and h = 1e-4 (60001 rows), it prints the tracemalloc peak above its start,
in MB (2^20 bytes), of one call of each pipeline function after one warm-up
call: ``integrate_frame``, ``reconstruct_position``,
``integrate_direction_curve`` (along the principal normal) and
``estimate_apparatus`` (of the reconstructed positions).  Then it runs the
benchmark's CLI commands (the 15 of ``synth`` and the 12 of
``mate_geometric``, from perfbench/workloads.py) one at a time through
perfbench/spawner.py and prints each command's exit code, its max RSS and
how far that lies above the floor: the median max RSS of five
``curve-mates --show-tolerances`` runs, which import the CLI and its
libraries and compute nothing.  A forked child's max RSS counts the pages of
the process that forked it, so the commands are started from the spawner,
which never imports numpy.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

from curvemates.analysis import estimate_apparatus
from curvemates.catalog import SALKOWSKI
from curvemates.integrate import (integrate_direction_curve, integrate_frame,
                                  reconstruct_position)
from curvemates.liegroup import group_spec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402
from run import CLI, Spawner  # noqa: E402

GROUPS = ("r3", "so3", "s3")
STEPS = (1e-3, 1e-4)
MB = 2 ** 20
FLOOR_RUNS = 5


def salkowski_calls(family: str, h: float) -> tuple[dict, list]:
    """The four pipeline calls on the Salkowski curve in one group at step
    h, each a function of no arguments, and the arrays they read."""
    spec = group_spec(family)
    p = SALKOWSKI.profile()
    s0, s1 = SALKOWSKI.domain
    traj = integrate_frame(p, spec, s0, s1, h)
    curve = reconstruct_position(traj, spec)
    calls = {
        "integrate_frame": lambda: integrate_frame(p, spec, s0, s1, h),
        "reconstruct_position": lambda: reconstruct_position(traj, spec),
        "integrate_direction_curve":
            lambda: integrate_direction_curve(traj, "principal_normal", spec),
        "estimate_apparatus": lambda: estimate_apparatus(curve, spec),
    }
    inputs = [curve.s, curve.t, curve.n, curve.b, curve.kappa, curve.tau,
              curve.positions]
    return calls, inputs


def traced_peak(call) -> int:
    """Bytes by which the tracemalloc peak during one call of ``call``
    exceeds the traced memory at its start, after one untraced warm-up
    call (which fills the filter's coefficient cache)."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def function_peaks(steps=STEPS) -> dict:
    """{(function, group, h): traced peak in bytes}."""
    peaks = {}
    for h in steps:
        for family in GROUPS:
            calls, _ = salkowski_calls(family, h)
            for name, call in calls.items():
                peaks[name, family, h] = traced_peak(call)
    return peaks


def cli_rss(argvs) -> list[tuple[int, float]]:
    """(exit code, max RSS in MB) of each CLI command, run through the
    spawner with ./src first on PYTHONPATH.  ``argvs`` maps the path of a
    scratch output file to the commands' argument lists."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + old if old else ""))
    spawner = Spawner(env, min(os.sched_getaffinity(0)))
    rows = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for argv in argvs(work / "out.csv"):
                child = spawner.run([sys.executable, "-c", CLI] + argv,
                                    work / "stdout", work / "stderr")
                rows.append((child.rc, child.rss_mb))
    finally:
        spawner.close()
    return rows


def command_rss(ops) -> list[tuple[str, int, float]]:
    """(op key, exit code, max RSS in MB) of each benchmark CLI op."""
    rows = cli_rss(lambda out: [op.argv(out) for op in ops])
    return [(op.key, rc, rss) for op, (rc, rss) in zip(ops, rows)]


def floor_rss(runs: int = FLOOR_RUNS) -> float:
    """Median max RSS in MB of ``curve-mates --show-tolerances``."""
    rows = cli_rss(lambda out: [["--show-tolerances"]] * runs)
    return statistics.median(rss for _, rss in rows)


def main(argv=None) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print("function peaks above start (MB), Salkowski curve")
    for (name, family, h), peak in function_peaks().items():
        print(f"  {name:26s} {family:4s} h={h:g}  {peak / MB:.3f}")
    floor = floor_rss()
    print(f"benchmark commands, max RSS and its excess over the floor (MB); "
          f"--show-tolerances floor {floor:.2f}")
    ops = workloads.cli_ops("synth", 7) + workloads.cli_ops("mate_geometric", 7)
    for key, rc, rss in command_rss(ops):
        print(f"  {key:40s} exit {rc}  {rss:.2f}  +{rss - floor:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
