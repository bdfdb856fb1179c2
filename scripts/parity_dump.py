#!/usr/bin/env python3
"""Dump the library's analytic outputs on a fixed corpus as values, for
comparison between two versions of the code.

    PYTHONPATH=src python3 scripts/parity_dump.py OUT

For every input profile in r3, so3 and s3 it records ``classify`` in both
tolerance presets, ``spherical_check``, the 11 profile-only verifiers and
both analytic mates (segments, and kappa, tau and their derivatives on a
101-point grid).  For every demo profile in r3, so3 and s3 it also records,
at h = 1e-2, the integrated frames with their step, frame and element
defects, the reconstructed positions, both direction curves, and
``estimate_apparatus`` of the parent and of both curves (kappa, tau, tau_G,
T, N, B and the valid mask).  An exception is recorded as its type name and
message.
The inputs are the catalog demo profiles, edge profiles (kappa' undefined at
a grid point, kappa <= 0, a zero stretch of tau - tau_G, constant sigma, a
kappa domain error, constant kappa and tau, tau = tau_G, a derivative that
leaves the grammar), the benchmark's analytic_sweep families for seeds 1
and 7, and 401-sample copies of the demo profiles.

The file holds one JSON line per input.  An object is written as its class
name and its fields, a float (Python or numpy) as its ``float.hex`` text and
an array as its dtype, shape and elements, so the dump records values only:
two checkouts give byte-identical files (compare with ``cmp``) exactly when
these outputs are identical, wherever their classes live.
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from curvemates import analysis
from curvemates.catalog import PROFILES
from curvemates.integrate import (integrate_direction_curve, integrate_frame,
                                  reconstruct_position)
from curvemates.liegroup import group_spec
from curvemates.mates import conjugate_mate_apparatus, natural_mate_apparatus
from curvemates.profiles import CurvatureProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# the sweep families live with the benchmark
from workloads import GROUPS, TAU_G, THEOREMS, draw_profiles  # noqa: E402

# kappa, tau - tau_G, domain
EDGE_PROFILES = {
    "kappa_prime_undefined": ("2+abs(s)", "1.5+s", (-1.0, 1.0)),
    "kappa_nonpositive": ("s", "1", (-1.0, 1.0)),
    "zero_stretch": ("1", "0.5*(s+abs(s))", (-2.0, 2.0)),
    "constant_sigma": ("3*cos(s)", "3*sin(s)", (-1.0, 1.0)),
    "kappa_domain_error": ("sqrt(s)", "1", (-1.0, 1.0)),
    "constant_kappa_tau": ("2", "1.5", (0.0, 4.0)),
    "tau_equals_tau_g": ("2", "0", (0.0, 4.0)),
    "not_differentiable": ("2+s^s", "1", (0.5, 1.5)),
}


def sampled(p: CurvatureProfile) -> CurvatureProfile:
    s = p.grid(401)
    return CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s))


def inputs():
    """(key, profile, group) of every input, each profile a new object."""
    for name, entry in PROFILES.items():
        for g in GROUPS:
            yield f"demo:{name}:{g}", entry.profile(), g
            yield f"sampled:{name}:{g}", sampled(entry.profile()), g
    for name, (kappa, m, domain) in EDGE_PROFILES.items():
        for g in GROUPS:
            yield (f"edge:{name}:{g}", CurvatureProfile.from_expressions(
                kappa, f"{TAU_G[g]!r}+({m})", domain), g)
    for seed in (1, 7):
        for sp in draw_profiles(seed, 2):
            yield (f"sweep{seed}:{sp.key}",
                   CurvatureProfile.from_expressions(sp.kappa, sp.tau, sp.domain), sp.group)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as e:  # every failure is part of the record
        return ("error", type(e).__name__, str(e))


def value(x):
    """A JSON-ready form of ``x`` that keeps every bit of every float."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return int(x)
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, np.ndarray):
        return {"dtype": str(x.dtype), "shape": list(x.shape),
                "values": [value(v) for v in x.ravel().tolist()]}
    if hasattr(x, "_fields"):   # a NamedTuple record, before its tuple form
        return {"class": type(x).__name__,
                **{name: value(getattr(x, name)) for name in x._fields}}
    if isinstance(x, (list, tuple)):
        return [value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): value(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {"class": type(x).__name__,
                **{f.name: value(getattr(x, f.name)) for f in dataclasses.fields(x)}}
    raise TypeError(f"no value form for {type(x).__name__}")


def mate_values(mate):
    prof = mate.profile
    s = np.linspace(prof.s_min, prof.s_max, 101)
    return {"segments": mate.segments,
            **{name: outcome(getattr(prof, name), s)
               for name in ("kappa_at", "tau_at", "kappa_prime_at", "tau_prime_at")}}


def dump(key, p, group):
    spec = group_spec(group)
    rec = {}
    for preset, tol in (("analytic", analysis.ToleranceSet()),
                        ("estimated", analysis.ToleranceSet.estimated())):
        rec[f"classify:{preset}"] = outcome(analysis.classify, p, spec, tol)
        rec[f"spherical_check:{preset}"] = outcome(analysis.spherical_check, p, spec, tol)
    for t in THEOREMS:
        rec[t] = outcome(getattr(analysis, f"verify_{t[:3]}_{t[3:]}"), p, spec)
    for kind, build in (("natural", natural_mate_apparatus),
                        ("conjugate", conjugate_mate_apparatus)):
        mate = outcome(build, p, spec)
        rec[kind] = ("ok", mate_values(mate[1])) if mate[0] == "ok" else mate
    return key, rec


# step of the integrated corpus
GEOMETRIC_STEP = 1e-2


def estimate_values(curve, spec):
    est = analysis.estimate_apparatus(curve, spec)
    return {name: getattr(est, name)
            for name in ("kappa", "tau", "tau_g", "t", "n", "b", "valid")}


def geometric_inputs():
    """(key, profile, group) of every integrated input."""
    for name, entry in PROFILES.items():
        for g in GROUPS:
            yield f"geometric:{name}:{g}", entry.profile(), g


def dump_geometric(key, p, group):
    spec = group_spec(group)
    traj = reconstruct_position(
        integrate_frame(p, spec, p.s_min, p.s_max, GEOMETRIC_STEP), spec)
    rec = {"frames": [traj.s, traj.t, traj.n, traj.b],
           "defects": [traj.max_step_defect, traj.max_frame_defect,
                       traj.max_element_defect],
           "positions": traj.positions,
           "estimate": outcome(estimate_values, traj, spec)}
    for which in ("principal_normal", "binormal"):
        curve = integrate_direction_curve(traj, which, spec)
        rec[which] = curve.positions
        rec[f"estimate:{which}"] = outcome(estimate_values, curve, spec)
    return key, rec


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    count = outputs = 0
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        records = itertools.chain((dump(*args) for args in inputs()),
                                  (dump_geometric(*args) for args in geometric_inputs()))
        for key, rec in records:
            fh.write(json.dumps([key, value(rec)], separators=(",", ":")) + "\n")
            count += 1
            outputs += len(rec)
    print(f"{count} inputs, {outputs} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
