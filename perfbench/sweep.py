"""Child process of the analytic_sweep workload.

    PYTHONPATH=src python3 perfbench/sweep.py JOB_FILE

The job (written by run.py) lists profiles as expression text with domain
and group.  The child builds them, then runs passes over every profile:
``classify``, the eleven profile-only verifiers and both analytic mates.
It writes its set-up time, per-pass times, the outcomes of the last pass
and the mate curvatures on a check grid to the job's result file.  Each
untraced pass follows a speed probe; with ``trace`` set, each pass is an
untraced pass followed by a traced one.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import numpy as np
    from curvemates import analysis, mates
    from curvemates.liegroup import group_spec
    from curvemates.profiles import CurvatureProfile
    cases = [(CurvatureProfile.from_expressions(p["kappa"], p["tau"], p["domain"]),
              group_spec(p["group"])) for p in job["profiles"]]
    setup_s = time.monotonic() - float(sys.argv[2])

    def run_pass():
        # looked up on every pass, so that a pass sees the traced functions
        checks = [(t, getattr(analysis, f"verify_{t[:3]}_{t[3:]}")) for t in job["theorems"]]
        outcomes, mate_objs = [], []
        for p, spec in cases:
            row = {}
            try:
                rep = analysis.classify(p, spec)
                row["classify"] = {"verdicts": {k: bool(v.passed) for k, v in rep.verdicts.items()}}
            except Exception as e:  # every failure is counted by the parent
                row["classify"] = {"error": f"{type(e).__name__}: {e}"}
            for tid, fn in checks:
                try:
                    rep = fn(p, spec)
                    row[tid] = {"applicable": bool(rep.applicable), "passed": bool(rep.passed)}
                except Exception as e:
                    row[tid] = {"error": f"{type(e).__name__}: {e}"}
            objs = {}
            for kind, fn in (("natural", mates.natural_mate_apparatus),
                             ("conjugate", mates.conjugate_mate_apparatus)):
                try:
                    objs[kind] = fn(p, spec)
                    row[kind] = {}
                except Exception as e:
                    row[kind] = {"error": f"{type(e).__name__}: {e}"}
            outcomes.append(row)
            mate_objs.append(objs)
        return outcomes, mate_objs

    from probe import speed_probe
    tracer = None
    if job["trace"]:
        from tracer import Tracer, write_spans
        tracer = Tracer()
    pass_s, traced_s, units, probes = [], [], [], []
    stable = True
    first = None
    deadline = time.monotonic() + job["budget_s"]
    while not pass_s or time.monotonic() < deadline:
        if tracer is None:
            probes.append(speed_probe())
        t = time.perf_counter()
        outcomes, mate_objs = run_pass()
        pass_s.append(time.perf_counter() - t)
        first = first or outcomes
        stable = stable and outcomes == first
        if tracer is not None:
            tracer.install()
            t = time.perf_counter()
            outcomes, mate_objs = run_pass()
            traced_s.append(time.perf_counter() - t)
            tracer.uninstall()
            units.append(tracer.take())
            stable = stable and outcomes == first
    if tracer is not None:
        write_spans(job["spans"], units)

    values = []
    for (p, _), objs in zip(cases, mate_objs):
        s = np.linspace(p.s_min, p.s_max, job["check_points"])
        values.append({k: [np.atleast_1d(m.kappa_at(s)).tolist(), np.atleast_1d(m.tau_at(s)).tolist()]
                       for k, m in objs.items()})
    result = {"setup_s": setup_s, "pass_s": pass_s, "traced_s": traced_s, "probe_s": probes,
              "outcomes": outcomes, "stable": stable, "mate_values": values}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
