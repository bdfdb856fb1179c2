#!/usr/bin/env python3
"""Count the work one analytic_sweep pass repeats.

    PYTHONPATH=src python3 scripts/sweep_counts.py SEED

Draws the analytic_sweep profiles of SEED as ``parity_dump.py`` does (two
per family, each in r3, so3 and s3) and runs two passes of what the
workload runs on each profile: ``classify``, the eleven profile-only
verifiers and both analytic mates.  The first pass builds what a run keeps
for its whole life (parsed expressions, derivatives, mates); the counts of
the second pass are printed, one ``name value`` line each:
``expressions.evaluate`` calls and the points they evaluate, ``rel_spread``
calls, line fits computed (``checks._fit_line``; the library calls no
``numpy.linalg.lstsq``), and spherical criteria computed
(``checks._spherical``).  The counts depend on the seed only, so two
versions of the code compare exactly.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from curvemates import analysis, checks, expressions, mates
from curvemates.liegroup import group_spec
from curvemates.profiles import CurvatureProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import THEOREMS, draw_profiles  # noqa: E402

PER_FAMILY = 2


@contextmanager
def counting(counts: Counter):
    """Count calls of the counted functions, wherever a module of the
    package holds them, and restore them on exit."""
    targets = {"expressions.evaluate": expressions.evaluate,
               "rel_spread": analysis.rel_spread,
               "line_fits": checks._fit_line,
               "spherical_criteria": checks._spherical}
    modules = [m for name, m in sys.modules.items()
               if name.startswith("curvemates.")]
    saved = []

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            if name == "expressions.evaluate":
                counts[f"{name}.points"] += int(np.size(args[1]))
            return fn(*args, **kwargs)
        return counted

    for name, fn in targets.items():
        wrapper = wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def run_pass(cases) -> None:
    """What one analytic_sweep pass calls, failures included."""
    for p, spec in cases:
        for fn in [analysis.classify] + [getattr(analysis, f"verify_{t[:3]}_{t[3:]}")
                                         for t in THEOREMS]:
            try:
                fn(p, spec)
            except Exception:   # a failing check is counted like any other
                pass
        for build in (mates.natural_mate_apparatus, mates.conjugate_mate_apparatus):
            try:
                build(p, spec)
            except Exception:
                pass


def second_pass_counts(seed: int, per_family: int = PER_FAMILY) -> dict[str, int]:
    cases = [(CurvatureProfile.from_expressions(sp.kappa, sp.tau, sp.domain),
              group_spec(sp.group)) for sp in draw_profiles(seed, per_family)]
    run_pass(cases)
    counts: Counter = Counter()
    with counting(counts):
        run_pass(cases)
    names = ("expressions.evaluate.calls", "expressions.evaluate.points",
             "rel_spread.calls", "line_fits.calls", "spherical_criteria.calls")
    return {"profiles": len(cases), **{name: counts[name] for name in names}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name, value in second_pass_counts(int(argv[0])).items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
