"""Span recorder for the benchmark's traced runs.

The recorder wraps public functions of the curvemates modules from outside:
every module namespace that holds the same function object gets the
wrapper, so names imported with ``from .x import f`` are traced where they
are called.  Each call leaves one span ``[name, start, end, parent, info]``
in memory, ``parent`` being the index of the enclosing span (-1 at the top);
spans are written out once, at the end.  ``layer_metrics`` turns the spans
into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import GROUPS, THEOREMS

# module -> public functions traced in it (a module is one layer)
TARGETS = {
    "cli": ("main",),
    "integrate": ("integrate_frame", "reconstruct_position", "integrate_direction_curve"),
    "liegroup": ("renormalize_element", "quat_mul"),
    "analysis": ("estimate_apparatus", "classify", "spherical_check")
                + tuple(f"verify_{t[:3]}_{t[3:]}" for t in THEOREMS),
    "mates": ("natural_mate_apparatus", "conjugate_mate_apparatus"),
    "profiles": ("harmonic_curvature", "harmonic_curvature_prime", "omega",
                 "sigma", "darboux_vectors"),
    "expressions": ("evaluate", "differentiate", "parse"),
}
PROFILE_METHODS = ("kappa_at", "tau_at", "kappa_prime_at", "tau_prime_at")
# spans whose inputs are fingerprinted, for distinct_frac
KEYED = ("profiles", "mates", "analysis.spherical_check", "expressions.differentiate")


def _fingerprint(x):
    """Hashable stand-in for an argument, equal for equal inputs."""
    if isinstance(x, np.ndarray):
        return ("array", x.shape, hash(x.tobytes()))
    if isinstance(x, (list, tuple)):
        return tuple(_fingerprint(v) for v in x)
    if hasattr(x, "kappa_samples"):     # CurvatureProfile holds arrays
        return ("profile", x.kappa_expr, x.tau_expr, x.s_min, x.s_max,
                _fingerprint(x.kappa_samples), _fingerprint(x.tau_samples))
    if isinstance(x, float):
        return x
    try:
        hash(x)
    except TypeError:
        return ("id", id(x))
    return x


def _spec_family(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return spec.family


def _info(name, args, kwargs, out):
    """What a finished call contributes besides its time."""
    if name == "integrate.integrate_frame":
        return {"steps": len(out.s) - 1, "step_defect": out.max_step_defect,
                "frame_defect": out.max_frame_defect}
    if name == "integrate.reconstruct_position":
        return {"steps": len(out.s) - 1, "group": _spec_family(args, kwargs),
                "element_defect": out.max_element_defect}
    if name == "integrate.integrate_direction_curve":
        return {"steps": len(out.s) - 1}
    if name == "analysis.estimate_apparatus":
        return {"samples": len(out.s), "valid": int(np.count_nonzero(out.valid))}
    if name == "expressions.evaluate":
        return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["s"]))}
    if name.startswith(KEYED):
        key = (name, _fingerprint(args), _fingerprint(tuple(sorted(kwargs.items()))))
        return {"key": hash(key)}
    return None


class Tracer:
    """Wraps the targets while installed; spans of every call go to
    ``self.spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _info(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        from curvemates.profiles import CurvatureProfile
        modules = [m for n, m in list(sys.modules.items())
                   if n == "curvemates" or n.startswith("curvemates.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"curvemates.{layer}")
            if home is None:        # a layer the process never imported
                continue
            for fname in names:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        for meth in PROFILE_METHODS:
            fn = vars(CurvatureProfile)[meth]
            self._undo.append((CurvatureProfile, meth, fn))
            setattr(CurvatureProfile, meth, self._wrap(f"profiles.CurvatureProfile.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def take(self) -> list[list]:
        """Spans recorded so far; the recorder starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, units: list[list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(units, fh, separators=(",", ":"))


def read_spans(path) -> list[list[list]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-layer metrics

def _self_times(spans):
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(spans, covered)]


def layer_metrics(units: list[list[list]], passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``units`` are span lists of one process each (one command, or one pass
    of the in-process sweep); distinct inputs are counted within a unit.
    Times and counts are per pass; ratios and maxima are over all spans."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    maxima = defaultdict(float)
    distinct = defaultdict(int)
    for spans in units:
        keys = defaultdict(set)
        for span, st in zip(spans, _self_times(spans)):
            name, info = span[0], span[4] or {}
            parts = name.split(".")
            layer = parts[0]
            groups = [name, layer]
            if name == "integrate.reconstruct_position":
                groups.append(f"{name}.{info.get('group')}")
            if layer == "analysis" and parts[1].startswith("verify_"):
                tid = parts[1][len("verify_"):].replace("_", "", 1)
                groups += ["analysis.verify", f"analysis.verify.{tid}"]
            for g in groups:
                self_s[g] += st
                calls[g] += 1
            for field in ("steps", "samples", "valid", "points"):
                if field in info:
                    for g in groups:
                        sums[(g, field)] += info[field]
            for field in ("step_defect", "frame_defect", "element_defect"):
                if field in info:
                    maxima[field] = max(maxima[field], info[field])
            if "key" in info:
                for g in (name, layer):
                    keys[g].add(info["key"])
        for g, k in keys.items():
            distinct[g] += len(k)

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"cli.self_s": per_pass(self_s["cli.main"])}
    name = "integrate.integrate_frame"
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m[f"{name}.steps"] = per_pass(sums[(name, "steps")])
    m[f"{name}.us_per_step"] = 1e6 * ratio(self_s[name], sums[(name, "steps")])
    for g in GROUPS:
        name = f"integrate.reconstruct_position.{g}"
        m[f"{name}.self_s"] = per_pass(self_s[name])
        m[f"{name}.us_per_step"] = 1e6 * ratio(self_s[name], sums[(name, "steps")])
    name = "integrate.integrate_direction_curve"
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m[f"{name}.us_per_step"] = 1e6 * ratio(self_s[name], sums[(name, "steps")])
    for name in ("liegroup.renormalize_element", "liegroup.quat_mul"):
        m[f"{name}.calls"] = per_pass(calls[name])
        m[f"{name}.self_s"] = per_pass(self_s[name])
    name = "analysis.estimate_apparatus"
    m[f"{name}.calls"] = per_pass(calls[name])
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m[f"{name}.samples"] = per_pass(sums[(name, "samples")])
    m[f"{name}.valid_frac"] = ratio(sums[(name, "valid")], sums[(name, "samples")])
    m["analysis.classify.self_s"] = per_pass(self_s["analysis.classify"])
    m["analysis.verify.self_s"] = per_pass(self_s["analysis.verify"])
    for t in THEOREMS:
        m[f"analysis.verify.{t}.self_s"] = per_pass(self_s[f"analysis.verify.{t}"])
    name = "analysis.spherical_check"
    m[f"{name}.calls"] = per_pass(calls[name])
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m[f"{name}.distinct_frac"] = ratio(distinct[name], calls[name])
    for name in ("mates.natural_mate_apparatus", "mates.conjugate_mate_apparatus"):
        m[f"{name}.calls"] = per_pass(calls[name])
        m[f"{name}.self_s"] = per_pass(self_s[name])
    m["mates.distinct_frac"] = ratio(distinct["mates"], calls["mates"])
    m["profiles.calls"] = per_pass(calls["profiles"])
    m["profiles.self_s"] = per_pass(self_s["profiles"])
    m["profiles.distinct_frac"] = ratio(distinct["profiles"], calls["profiles"])
    name = "expressions.evaluate"
    m[f"{name}.calls"] = per_pass(calls[name])
    m[f"{name}.points"] = per_pass(sums[(name, "points")])
    m[f"{name}.self_s"] = per_pass(self_s[name])
    name = "expressions.differentiate"
    m[f"{name}.calls"] = per_pass(calls[name])
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m[f"{name}.distinct_frac"] = ratio(distinct[name], calls[name])
    name = "expressions.parse"
    m[f"{name}.calls"] = per_pass(calls[name])
    m[f"{name}.self_s"] = per_pass(self_s[name])
    m["health.max_step_defect"] = maxima["step_defect"]
    m["health.max_frame_defect"] = maxima["frame_defect"]
    m["health.max_element_defect"] = maxima["element_defect"]
    return m
