"""Inputs and output checks for the three benchmark workloads.

``synth`` and ``mate_geometric`` run fresh ``curve-mates`` processes on the
five demo profiles; ``analytic_sweep`` runs the library in one child process
on a seeded draw of profiles from four families whose class is known in
closed form.  The seed only orders the CLI commands (their inputs are the
fixed demo profiles) and draws the family parameters of ``analytic_sweep``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Optional

import numpy as np

GROUPS = ("r3", "so3", "s3")
TAU_G = {"r3": 0.0, "so3": 0.5, "s3": 1.0}
STEP = 1e-3

# The five demo profiles of curvemates.catalog, written out here so that the
# CLI workloads stay fixed if the catalog changes.
DEMO_PROFILES = {
    "rectifying": ("s-1", "s^2+s-2", (1.05, 3.0)),
    "slant_helix": ("3*cos(s)", "3*sin(s)", (-1.5, 1.5)),
    "spherical": ("2*(1+7*sin(2*s)^2)^(-1/2)",
                  "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)",
                  (0.0, 3.141592653589793)),
    "salkowski": ("3", "2*s", (-3.0, 3.0)),
    "anti_salkowski": ("3*cos(s)", "sqrt(2)", (-1.5, 1.5)),
}
# Slant helix: a typical mate.  Salkowski: the longest grid (6001 samples)
# and a zero of tau - tau_G inside the domain, so the conjugate mate passes
# through an inflection.
MATE_PROFILES = ("slant_helix", "salkowski")

POSITION_COLUMNS = {
    "r3": ["x", "y", "z"],
    "s3": ["qw", "qx", "qy", "qz"],
    "so3": ["m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33"],
}
FRAME_COLUMNS = ["t1", "t2", "t3", "n1", "n2", "n3", "b1", "b2", "b3"]

# Criterion-3 bound of the acceptance suite: estimated against prescribed
# apparatus at h = 1e-3.
ESTIMATE_TOL = 1e-4
# Largest relative error allowed between the library's analytic mate
# curvatures and the closed forms below.
CLOSED_FORM_TOL = 1e-9
# Errors below this are round-off; max_err never reads lower, so that a
# change of round-off alone does not move the metric.
ERR_FLOOR = 1e-12

# Failures present when the benchmark was defined.  They stay in the
# workloads and are counted in ``failed``; a run is still correct when every
# failure it sees is one of these, and incorrect on any other.
KNOWN_FAILURES = {
    ("mate:salkowski:conjugate:r3", "EstimationError"):
        "estimated kappa of the conjugate mate is below 1e-9 at the zero of tau",
    ("mate:salkowski:conjugate:so3", "EstimationError"):
        "estimated kappa of the conjugate mate is below 1e-9 at the zero of tau - 1/2",
    ("general_helix:*:cor3_2", "check failed"):
        "verify_cor_3_2 calls a general helix not slant while its mate is a general helix",
}


def known(key: str, tag: str) -> bool:
    return any(tag == t and fnmatchcase(key, pattern) for pattern, t in KNOWN_FAILURES)


def numpy_eval(expr: str, s: np.ndarray) -> np.ndarray:
    """Evaluate an expression of the curvemates grammar with numpy.

    Independent of curvemates.expressions: Python's own parser reads the
    text once ``^`` is spelled ``**`` (both right-associative and binding
    tighter than unary minus)."""
    names = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt,
             "abs": np.abs, "exp": np.exp, "pi": np.pi, "s": s}
    value = eval(expr.replace("^", "**"), {"__builtins__": {}}, names)
    return np.broadcast_to(np.asarray(value, dtype=float), s.shape)


def grid(domain: tuple[float, float], h: float = STEP) -> np.ndarray:
    return np.linspace(domain[0], domain[1], int(round((domain[1] - domain[0]) / h)) + 1)


# ---------------------------------------------------------------------------
# CLI workloads

@dataclass(frozen=True)
class CliOp:
    key: str
    command: str          # "synthesize" | "mate"
    profile: str
    group: str
    kind: Optional[str] = None

    def argv(self, out: Path) -> list[str]:
        kappa, tau, (a, b) = DEMO_PROFILES[self.profile]
        args = [self.command]
        if self.kind:
            args += ["--kind", self.kind, "--mode", "both"]
        return args + ["--group", self.group, "--kappa", kappa, "--tau", tau,
                       f"--domain={a!r}:{b!r}", "--step", repr(STEP), "--out", str(out)]


def cli_ops(workload: str, seed: int, groups=GROUPS) -> list[CliOp]:
    if workload == "synth":
        ops = [CliOp(f"synthesize:{p}:{g}", "synthesize", p, g)
               for p in DEMO_PROFILES for g in groups]
    else:
        ops = [CliOp(f"mate:{p}:{k}:{g}", "mate", p, g, k)
               for p in MATE_PROFILES for k in ("natural", "conjugate") for g in groups]
    random.Random(seed).shuffle(ops)
    return ops


class Invalid(Exception):
    """An output that fails the benchmark's checks."""


def _read_csv(path: Path, header: list[str], rows: int, blank_ok=()) -> np.ndarray:
    """Numeric CSV body as an array; blank cells, allowed only in the
    ``blank_ok`` columns, read as NaN."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0].split(",") != header:
        raise Invalid(f"header {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise Invalid(f"{len(lines) - 1} rows, expected {rows}")
    # a %.17g number has no letter but the exponent's e: this rejects nan and inf
    if re.search("[a-df-zA-DF-Z]", "\n".join(lines[1:])):
        raise Invalid("NaN or infinite cell")
    split = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in split):
        raise Invalid("ragged rows")
    cells = np.array(split)
    blank = cells == ""
    if np.any(blank[:, [i for i, c in enumerate(header) if c not in blank_ok]]):
        raise Invalid("empty cell")
    cells[blank] = "nan"
    return cells.astype(float)


def _check_group(positions: np.ndarray, group: str) -> None:
    if group == "s3":
        defect = np.max(np.abs(np.linalg.norm(positions, axis=1) - 1.0))
    elif group == "so3":
        m = positions.reshape(-1, 3, 3)
        defect = np.max(np.abs(np.einsum("nji,njk->nik", m, m) - np.eye(3)))
    else:
        return
    if defect > 1e-9:
        raise Invalid(f"positions leave {group} by {defect:.3g}")


def _estimate_error(s, positions, group, kappa, tau) -> float:
    """Largest difference between the apparatus estimated from the written
    positions and the given curvature and torsion, on the estimator's
    valid interior."""
    from curvemates.analysis import estimate_apparatus
    from curvemates.integrate import PositionCurve
    from curvemates.liegroup import group_spec
    spec = group_spec(group)
    shaped = positions.reshape(-1, 3, 3) if group == "so3" else positions
    est = estimate_apparatus(PositionCurve(s, shaped, spec), spec)
    v = est.valid
    return float(max(np.max(np.abs(est.kappa[v] - kappa[v])),
                     np.max(np.abs(est.tau[v] - tau[v]))))


def check_cli_output(op: CliOp, out: Path, stdout: Path) -> dict:
    """Validate one command's output; returns the accuracy numbers it shows."""
    kappa_text, tau_text, domain = DEMO_PROFILES[op.profile]
    s_ref = grid(domain)
    pos = POSITION_COLUMNS[op.group]
    npos = len(pos)
    if op.command == "synthesize":
        header = ["s"] + pos + FRAME_COLUMNS + ["kappa", "tau", "H", "sigma", "omega"]
        data = _read_csv(out, header, len(s_ref), blank_ok=("sigma",))
        s = data[:, 0]
        frames = data[:, 1 + npos:10 + npos].reshape(-1, 3, 3)
        defect = np.max(np.abs(np.einsum("nij,nkj->nik", frames, frames) - np.eye(3)))
        if defect > 1e-9:
            raise Invalid(f"frames not orthonormal ({defect:.3g})")
        kappa, tau = data[:, 10 + npos], data[:, 11 + npos]
        for column, text in ((kappa, kappa_text), (tau, tau_text)):
            ref = numpy_eval(text, s_ref)
            if np.max(np.abs(column - ref)) > 1e-12 * max(1.0, np.max(np.abs(ref))):
                raise Invalid("kappa or tau column differs from the profile")
        positions = data[:, 1:1 + npos]
        result = {"err": _estimate_error(s, positions, op.group, kappa, tau)}
    else:
        try:
            summary = json.loads(stdout.read_text(encoding="utf-8"))
            kd, td = summary["max_abs_kappa_diff"], summary["max_abs_tau_diff"]
            compared = summary["samples_compared"]
        except (ValueError, KeyError, TypeError) as e:
            raise Invalid(f"mate summary: {e}") from e
        if not compared > 0:
            raise Invalid("no samples compared")
        header = ["s", "kappa_analytic", "tau_analytic"] + pos + ["kappa_est", "tau_est"]
        data = _read_csv(out, header, len(s_ref))
        s = data[:, 0]
        positions = data[:, 3:3 + npos]
        k = numpy_eval(kappa_text, s_ref)
        m = numpy_eval(tau_text, s_ref) - TAU_G[op.group]
        ref = np.sqrt(m * m + k * k) if op.kind == "natural" else np.abs(m)
        if np.max(np.abs(data[:, 1] - ref)) > CLOSED_FORM_TOL * max(1.0, np.max(ref)):
            raise Invalid("analytic mate curvature differs from the closed form")
        # The conjugate torsion difference is ill-conditioned where
        # kappa* = |tau - tau_G| -> 0; it is recorded, not checked.
        err = max(kd, td) if op.kind == "natural" else kd
        result = {"err": err}
        if op.kind == "conjugate":
            result["conj_tau_diff"] = td
    if np.max(np.abs(s - s_ref)) > 1e-12 * max(1.0, abs(domain[1])):
        raise Invalid("s column is not the uniform grid")
    _check_group(positions, op.group)
    if result["err"] > ESTIMATE_TOL:
        raise Invalid(f"estimated apparatus off by {result['err']:.3g}")
    return result


# ---------------------------------------------------------------------------
# analytic_sweep: seeded profile families

VERDICTS = ("general_helix", "slant_helix", "rectifying", "spherical",
            "salkowski", "anti_salkowski", "circular_helix")
THEOREMS = ("thm4_1", "thm5_1", "thm5_2", "thm6_2", "cor3_1", "cor3_2",
            "cor3_3", "cor3_4", "cor5_2", "cor6_1", "cor6_2")


@dataclass(frozen=True)
class Family:
    """kappa and m = tau - tau_G with their derivatives, as expression text
    in the parameters, and the classes every member belongs to."""

    name: str
    why: str
    params: dict            # name -> (low, high)
    kappa: str
    m: str
    dkappa: str
    dm: str
    domain: str             # "a:b", may use the parameters
    classes: frozenset


# Torsion is written tau = tau_G + m(s) in each group, so a member has the
# same class in R3, SO(3) and S3.
FAMILIES = (
    Family("slant_helix",
           "sigma = a/b is constant: a slant helix; m changes sign, so the "
           "conjugate mate splits into two segments",
           {"a": (1.5, 4.0), "b": (0.6, 1.4)},
           "{a}*cos({b}*s)", "{a}*sin({b}*s)",
           "-{a}*{b}*sin({b}*s)", "{a}*{b}*cos({b}*s)",
           "{neg_d}:{d}", frozenset({"slant_helix"})),
    Family("salkowski",
           "constant kappa and linear m: Salkowski and rectifying, and the "
           "only family where thm4_1 applies",
           {"c": (2.0, 4.0), "al": (1.0, 3.0), "be": (-0.5, 0.5)},
           "{c}", "{al}*s+{be}", "0", "{al}",
           "-2:2", frozenset({"salkowski", "rectifying"})),
    Family("general_helix",
           "H = h is constant with kappa varying: a general helix, the case "
           "where sigma is undefined",
           {"a": (2.0, 4.0), "b": (0.3, 1.0), "h": (0.5, 2.0)},
           "{a}+{b}*sin(s)", "{h}*({a}+{b}*sin(s))",
           "{b}*cos(s)", "{h}*{b}*cos(s)",
           "-2:2", frozenset({"general_helix"})),
    Family("generic",
           "no special class: every biconditional is checked on its false side",
           {"a": (1.5, 3.0), "b": (0.2, 1.0), "c": (0.5, 2.0), "d": (0.5, 1.5)},
           "{a}+{b}*s^2", "{c}*sin(s)+{d}",
           "2*{b}*s", "{c}*cos(s)",
           "-1.5:1.5", frozenset()),
)


@dataclass(frozen=True)
class SweepProfile:
    key: str
    family: Family
    group: str
    kappa: str            # what the library receives
    tau: str
    domain: tuple[float, float]
    values: dict          # drawn parameters

    def closed_forms(self, s: np.ndarray) -> dict:
        """Mate curvature and torsion from the family formulas, with numpy."""
        text = {f: getattr(self.family, f).format(**self.values)
                for f in ("kappa", "m", "dkappa", "dm")}
        k, m, dk, dm = (numpy_eval(text[f], s) for f in ("kappa", "m", "dkappa", "dm"))
        h = m / k
        dh = (dm * k - m * dk) / (k * k)
        tg = TAU_G[self.group]
        return {"natural": (np.sqrt(m * m + k * k), tg + dh / (1.0 + h * h)),
                "conjugate": (np.abs(m), k + tg)}


def draw_profiles(seed: int, per_family: int, groups=GROUPS) -> list[SweepProfile]:
    """``per_family`` members of each family with parameters drawn from
    ``seed`` (rounded to 4 digits), each in every group."""
    rng = random.Random(seed)
    out = []
    for i in range(per_family):
        for fam in FAMILIES:
            values = {p: round(rng.uniform(lo, hi), 4) for p, (lo, hi) in fam.params.items()}
            if fam.name == "general_helix":
                values["h"] *= rng.choice((-1, 1))
            if fam.name == "slant_helix":
                # |b s| <= 1.3 < pi/2 keeps kappa = a cos(b s) positive
                values["d"] = round(1.3 / values["b"], 4)
                values["neg_d"] = -values["d"]
            a, b = fam.domain.format(**values).split(":")
            kappa = fam.kappa.format(**values)
            m = fam.m.format(**values)
            for g in groups:
                out.append(SweepProfile(f"{fam.name}:{i}:{g}", fam, g, kappa,
                                        f"{TAU_G[g]!r}+({m})", (float(a), float(b)),
                                        values))
    return out


def check_sweep_outcome(profile: SweepProfile, op: str, outcome: dict,
                        mate_values: Optional[dict], check_s: np.ndarray) -> tuple[Optional[str], float]:
    """Failure tag of one analytic operation (None when it passed), and the
    relative error of a mate against its closed form."""
    if "error" in outcome:
        return outcome["error"].split(":")[0], 0.0
    if op == "classify":
        wrong = [v for v in VERDICTS if outcome["verdicts"][v] != (v in profile.family.classes)]
        return ("wrong verdict " + ",".join(wrong) if wrong else None), 0.0
    if op in THEOREMS:
        return ("check failed" if outcome["applicable"] and not outcome["passed"] else None), 0.0
    kappa, tau = (np.asarray(v) for v in mate_values[op])
    rk, rt = profile.closed_forms(check_s)[op]
    err = max(float(np.max(np.abs(kappa - rk) / np.maximum(1.0, np.abs(rk)))),
              float(np.max(np.abs(tau - rt) / np.maximum(1.0, np.abs(rt)))))
    return ("mate differs from closed form" if err > CLOSED_FORM_TOL else None), err

