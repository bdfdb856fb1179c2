"""Classification and verification: the spherical criterion, ``classify``
and the theorem verifiers.

The profile checks read exactly evaluated curvature data at the check
grid, kept for the last profile checked and its two mates (``_entry``);
``verify_mate_geometry`` reads the apparatus that
``analysis.estimate_apparatus`` recovers from integrated positions.  The
names here are also attributes of ``analysis``, which imports this module
when one of them is first looked up there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from .analysis import ToleranceSet, estimate_apparatus, rel_spread
from .liegroup import GroupSpec, cumulative_quadrature, runs, sg_derivative
from .mates import (Segment, conjugate_mate_apparatus, constant_curvature_inverse,
                    natural_mate_apparatus, sign_segments)
from .profiles import CurvatureProfile, ProfileSamples

if TYPE_CHECKING:
    from .integrate import FrameTrajectory, PositionCurve

# grid of the quadrature round trip of thm5_1, finer than the check grid
INVERSE_GRID_POINTS = 8001


# ---------------------------------------------------------------------------
# the case of the last profile checked: its check-grid samples and those of
# its two mates, with the values derived from them, each computed when first
# read (verdicts are not kept)

class _Kept(NamedTuple):
    samples: ProfileSamples
    reports: dict                 # ToleranceSet -> SphericalReport
    spreads: dict                 # field of samples -> its rel_spread
    fits: dict                    # field of samples -> its line fit (_line_fit)


_MATES = {"natural": natural_mate_apparatus, "conjugate": conjugate_mate_apparatus}
# (profile, group, entries by role); the profile is held, so its id is not reused
_case: tuple[Optional[CurvatureProfile], Optional[GroupSpec], dict] = (None, None, {})


def _entry(p: CurvatureProfile, spec: GroupSpec, role: str = "parent") -> _Kept:
    """The kept entry of role ("parent", "natural" or "conjugate") in the case
    of p in spec, which replaces the kept case unless it is that of the same
    profile object and group.  A mate's entry is built from the mate's
    profile when first asked for.  The case is replaced in one assignment,
    so a concurrent caller can at worst build an entry again."""
    global _case
    case = _case
    if case[0] is not p or case[1] != spec:
        case = _case = (p, spec, {})
    entries = case[2]
    if role not in entries:
        q = p if role == "parent" else _MATES[role](p, spec).profile
        entries[role] = _Kept(ProfileSamples(q, spec, q.grid()), {}, {}, {})
    return entries[role]


def _spherical_report(entry: _Kept, tol: ToleranceSet) -> SphericalReport:
    """``_spherical`` on the entry's samples, kept with them by tol."""
    if tol not in entry.reports:
        entry.reports[tol] = _spherical(entry.samples, tol)
    return entry.reports[tol]


def _spread(entry: _Kept, field: str) -> float:
    """``rel_spread`` of one field of the entry's samples, kept with them."""
    if field not in entry.spreads:
        entry.spreads[field] = rel_spread(getattr(entry.samples, field))
    return entry.spreads[field]


def _fit_line(s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and rms misfit of the least-squares line through (s, y), from
    the centred samples: slope = sum(sc yc) / sum(sc^2), misfit yc - slope sc."""
    sc, yc = s - s.mean(), y - y.mean()
    slope = float((sc * yc).sum() / (sc * sc).sum())
    return slope, float(np.sqrt(np.mean((yc - slope * sc) ** 2)))


def _line_fit(entry: _Kept, field: str):
    """Least-squares line through one field of the entry's samples: its
    slope, the rms misfit and the range of the field, kept with them."""
    if field not in entry.fits:
        y = getattr(entry.samples, field)
        entry.fits[field] = (*_fit_line(entry.samples.s, y),
                             max(float(np.max(y) - np.min(y)), 1e-300))
    return entry.fits[field]


# ---------------------------------------------------------------------------
# spherical criterion

class SphericalSegment(NamedTuple):
    s_min: float
    s_max: float
    case: str                 # "constant_kappa" | "general"
    is_spherical: bool
    radius: Optional[float]
    spread: float
    eq_residual: Optional[float]             # derivative form of the closure
    eq_residual_integrated: Optional[float] = None


class SphericalReport(NamedTuple):
    is_spherical: bool
    radius: Optional[float]
    segments: list[SphericalSegment]
    trace: Optional[tuple[np.ndarray, np.ndarray]] = None  # (s, closure residual)

    @property
    def max_eq_residual(self) -> Optional[float]:
        """Worst decisive closure residual (the smaller of the two forms)."""
        vals = []
        for seg in self.segments:
            forms = [v for v in (seg.eq_residual, seg.eq_residual_integrated)
                     if v is not None]
            if forms:
                vals.append(min(forms))
        return max(vals) if vals else None


def spherical_check(p: CurvatureProfile, spec: GroupSpec,
                    tol: ToleranceSet = ToleranceSet()) -> SphericalReport:
    """Left-shift-on-a-sphere criterion from the curvature data.

    Where tau - tau_G vanishes identically the curve is spherical iff kappa
    is constant (r = 1/kappa).  Elsewhere the sphere function

        R = ((1/kappa)' / (tau - tau_G))^2 + (1/kappa)^2

    must be constant (r = sqrt(R)) AND the closure residual

        ((1/kappa)' / (tau - tau_G))' + H

    must vanish; R-constancy alone is not decisive when kappa is constant,
    so both are enforced.  The closure is accepted in derivative form or in
    integrated form (u(s) - u(s0) + integral of H, per unit length); the
    latter tolerates the noise amplification that differentiating sampled
    estimates incurs.  Mixed domains are segmented and reported per segment.
    """
    return _spherical_report(_entry(p, spec), tol)


def _spherical(ps: ProfileSamples, tol: ToleranceSet) -> SphericalReport:
    """The spherical criterion on the samples of a profile at its check
    grid; see ``spherical_check``."""
    s = ps.s
    h = float(s[1] - s[0])
    kappa, m, kp = ps.kappa, ps.m, ps.kappa_prime
    stat_floor = max(tol.zero, tol.spherical_zero_rel * float(np.max(np.abs(m))))
    # a zero run is three or more samples with |m| <= tol.zero; shorter
    # ones are masked points inside the general run around them
    triple = np.convolve(np.abs(m) <= tol.zero, np.ones(3), "valid") == 3
    zero = np.convolve(triple, np.ones(3)) > 0

    segments: list[SphericalSegment] = []
    trace = np.full(len(s), np.nan)
    hvals = ps.H
    for i0, i1, flag in runs(zero):
        sl = slice(i0, i1 + 1)
        if flag:
            spread = rel_spread(kappa[sl])
            ok = spread <= tol.constancy
            radius = 1.0 / float(np.mean(kappa[sl])) if ok else None
            segments.append(SphericalSegment(float(s[i0]), float(s[i1]),
                                             "constant_kappa", ok, radius,
                                             spread, None))
            continue
        mask = np.abs(m[sl]) > stat_floor
        if not np.any(mask):
            segments.append(SphericalSegment(float(s[i0]), float(s[i1]),
                                             "general", False, None,
                                             float("inf"), None))
            continue
        inv_k = 1.0 / kappa[sl]
        dinv_k = -kp[sl] / kappa[sl] ** 2
        u = np.where(mask, dinv_k / np.where(mask, m[sl], 1.0), np.nan)
        r_fun = u * u + inv_k * inv_k
        r_vals = r_fun[mask]
        r_mean = float(np.mean(r_vals))
        spread = float(np.max(np.abs(r_vals - r_mean)) / r_mean)
        resid = _masked_derivative(u, h)
        resid = resid + hvals[sl]
        trace[sl] = resid
        eq_res = float(np.nanmax(np.abs(resid))) if np.any(~np.isnan(resid)) else None
        eq_int = _integrated_closure(u, hvals[sl], h)
        closure_ok = ((eq_res is not None and eq_res <= tol.spherical_residual)
                      or (eq_int is not None and eq_int <= tol.spherical_residual))
        ok = spread <= tol.spherical_spread and closure_ok
        segments.append(SphericalSegment(float(s[i0]), float(s[i1]), "general",
                                         ok, math.sqrt(r_mean) if ok else None,
                                         spread, eq_res, eq_int))

    # a spherical segment has a radius, and every segment must agree on it
    radii = [seg.radius for seg in segments if seg.radius is not None]
    is_spherical = (all(seg.is_spherical for seg in segments)
                    and max(radii) - min(radii) <= tol.spherical_spread * max(radii))
    radius = float(np.mean(radii)) if is_spherical else (radii[0] if radii else None)
    return SphericalReport(is_spherical, radius, segments, trace=(s, trace))


def _masked_derivative(u: np.ndarray, h: float) -> np.ndarray:
    """5-point central derivative, NaN wherever the window touches a NaN
    and at the two samples at each end."""
    out = np.full(len(u), np.nan)
    if len(u) >= 5:
        out[2:-2] = sg_derivative(u, h, 5)[2:-2]
    return out


def _integrated_closure(u: np.ndarray, hvals: np.ndarray, h: float) -> Optional[float]:
    """Closure residual in integrated form, per unit length, worst over the
    contiguous unmasked runs of u."""
    ok = ~np.isnan(u)
    worst = None
    for i0, i1, flag in runs(ok):
        if not flag or i1 - i0 + 1 < 3:
            continue
        seg_u = u[i0:i1 + 1]
        seg_h = cumulative_quadrature(hvals[i0:i1 + 1], h)
        drift = seg_u - seg_u[0] + seg_h
        length = max(1.0, (i1 - i0) * h)
        val = float(np.max(np.abs(drift)) / length)
        worst = val if worst is None else max(worst, val)
    return worst


# ---------------------------------------------------------------------------
# classification

class Verdict(NamedTuple):
    passed: bool
    residual: Optional[float]
    tolerance: float
    note: str = ""


class ClassificationReport(NamedTuple):
    verdicts: dict[str, Verdict]
    spherical: SphericalReport
    segments: tuple[Segment, ...]


def classify(p: CurvatureProfile, spec: GroupSpec,
             tol: ToleranceSet = ToleranceSet()) -> ClassificationReport:
    """Verdicts with residuals for every special-curve class."""
    e = _entry(p, spec)

    verdicts: dict[str, Verdict] = {}

    h_spread = _spread(e, "H")
    verdicts["general_helix"] = Verdict(h_spread <= tol.constancy, h_spread, tol.constancy)

    slant, sig_spread = _slant_verdict(e, tol)
    verdicts["slant_helix"] = Verdict(
        slant, sig_spread, tol.constancy,
        "" if sig_spread is not None else "H' vanishes; sigma undefined")

    rectifying, slope, fit_residual = _rectifying_fit(e, tol)
    verdicts["rectifying"] = Verdict(rectifying, fit_residual, tol.constancy,
                                     f"H fit slope {slope:.6g}")

    sph = _spherical_report(e, tol)
    worst = max((seg.spread for seg in sph.segments), default=float("inf"))
    verdicts["spherical"] = Verdict(sph.is_spherical, worst, tol.spherical_spread,
                                    f"radius {sph.radius}" if sph.radius else "")

    k_spread = _spread(e, "kappa")
    t_spread = _spread(e, "tau")
    verdicts["salkowski"] = Verdict(
        k_spread <= tol.constancy < t_spread, k_spread, tol.constancy)
    verdicts["anti_salkowski"] = Verdict(
        t_spread <= tol.constancy < k_spread, t_spread, tol.constancy)
    verdicts["circular_helix"] = Verdict(
        k_spread <= tol.constancy and t_spread <= tol.constancy,
        max(k_spread, t_spread), tol.constancy)

    segments = sign_segments(e.samples.s, e.samples.m, tol.zero)
    return ClassificationReport(verdicts, sph, segments)


def _slant_verdict(e: _Kept, tol: ToleranceSet) -> tuple[bool, Optional[float]]:
    """Whether sigma is constant, with its relative spread; (False, None)
    where H' vanishes somewhere and sigma is undefined."""
    if np.any(np.isnan(e.samples.sigma)):
        return False, None
    spread = _spread(e, "sigma")
    return spread <= tol.constancy, spread


def _rectifying_fit(e: _Kept, tol: ToleranceSet):
    """Whether H is linear with a slope of at least ``rectifying_slope_min``,
    the slope, and the rms misfit of the line relative to the range of H.
    Where H is constant (the general-helix test) its range is round-off,
    and the misfit is reported as it is."""
    slope, fit_rms, h_range = _line_fit(e, "H")
    rectifying = (fit_rms <= tol.constancy * h_range
                  and abs(slope) >= tol.rectifying_slope_min)
    if _spread(e, "H") <= tol.constancy:
        return rectifying, slope, fit_rms
    return rectifying, slope, fit_rms / h_range


# ---------------------------------------------------------------------------
# verification reports

class VerificationReport(NamedTuple):
    theorem: str
    applicable: bool
    passed: bool
    max_residual: Optional[float]
    tolerance: float
    details: dict     # no default: a default would be one dict shared by every report
    hypothesis_note: str = ""
    trace: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def ok(self) -> bool:
        """True when passed, or correctly flagged not-applicable."""
        return self.passed or not self.applicable


def _not_applicable(theorem: str, tolerance: float, note: str) -> VerificationReport:
    return VerificationReport(theorem, False, False, None, tolerance, {},
                              hypothesis_note=note)


def _radius_residual(sph: SphericalReport, expected: float, details: dict) -> float:
    """How far the spherical report's radius is from the expected one.

    Where every segment is ``constant_kappa`` the curve is a circle, which
    lies on every sphere of at least its own radius, while the report gives
    the smallest: there the residual is by how much the circle exceeds the
    expected sphere, and the details say that the mate is a circle."""
    if all(seg.case == "constant_kappa" for seg in sph.segments):
        details["mate_is_circle"] = True
        return max(0.0, sph.radius - expected)
    return abs(sph.radius - expected)


def verify_thm_4_1(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Constant parent curvature c => natural mate spherical with radius 1/c.

    A mate that is a circle (the parent is a circular helix) passes when
    its radius is at most 1/c.  The converse is checked on the same data
    wherever the mate torsion differs from the group torsion."""
    e = _entry(p, spec)
    kappa, spread = e.samples.kappa, _spread(e, "kappa")
    if spread > tol.constancy:
        return _not_applicable("thm4_1", tol.residual,
                               f"kappa not constant (spread {spread:.3g})")
    c = float(np.mean(kappa))
    me = _entry(p, spec, "natural")
    mps, sph = me.samples, _spherical_report(me, tol)
    if not sph.is_spherical:
        return VerificationReport("thm4_1", True, False, None, tol.residual,
                                  {"c": c, "spherical": False},
                                  hypothesis_note="mate not spherical")
    details = {"c": c, "radius": sph.radius, "expected_radius": 1.0 / c}
    radius_residual = _radius_residual(sph, 1.0 / c, details)
    eq_res = sph.max_eq_residual or 0.0
    residual = max(radius_residual, eq_res)
    details.update(radius_residual=radius_residual, closure_residual=eq_res)
    # converse: on samples with mate torsion away from tau_G, spherical radius
    # 1/c must force kappa = c (tested as consistency of the same numbers)
    conv_mask = np.abs(mps.m) > tol.zero
    if np.any(conv_mask):
        details["converse_kappa_residual"] = float(
            np.max(np.abs(kappa[conv_mask] - 1.0 / sph.radius)))
        residual = max(residual, details["converse_kappa_residual"])
    return VerificationReport("thm4_1", True, residual <= tol.residual,
                              residual, tol.residual, details, trace=sph.trace)


def verify_thm_5_1(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Constant mate curvature c => parent recovered by the sine/cosine
    quadrature inverse (round trip against the original profile)."""
    natural = _entry(p, spec, "natural")
    # the hypothesis is decided on the check grid, as thm5_2 and cor5_2 do
    spread = _spread(natural, "kappa")
    if spread > tol.constancy:
        return _not_applicable("thm5_1", tol.residual,
                               f"mate curvature not constant (spread {spread:.3g})")
    mate = natural.samples.profile
    c = float(np.mean(ProfileSamples(mate, spec, p.grid(INVERSE_GRID_POINTS)).kappa))
    start = ProfileSamples(p, spec, p.s_min)
    phi0 = math.atan2(float(start.m), float(start.kappa))
    rec = constant_curvature_inverse(mate.tau_expr, c, spec, mate.domain,
                                     INVERSE_GRID_POINTS, phi0)
    sg = rec.kappa_expr.s[4:-4]
    orig = ProfileSamples(p, spec, sg)
    res_k = np.max(np.abs(rec.kappa_expr.values[4:-4] - orig.kappa))
    res_t = np.max(np.abs(rec.tau_expr.values[4:-4] - orig.tau))
    residual = float(max(res_k, res_t))
    return VerificationReport("thm5_1", True, residual <= tol.residual, residual,
                              tol.residual, {"c": c, "phi0": phi0,
                                             "kappa_residual": float(res_k),
                                             "tau_residual": float(res_t)})


def _golden_section(fun: Callable[[float], float], lo: float, hi: float,
                    iters: int = 60) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1, f2 = fun(c1), fun(c2)
    for _ in range(iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv_phi * (b - a)
            f1 = fun(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv_phi * (b - a)
            f2 = fun(c2)
    x = 0.5 * (a + b)
    return x, fun(x)


def verify_thm_5_2(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Spherical parent with constant-curvature mate: |mate torsion - tau_G|
    matches the closed trigonometric law with a = c^2 r, up to one fitted
    s-translation."""
    sph = spherical_check(p, spec, tol)
    if not sph.is_spherical:
        return _not_applicable("thm5_2", tol.residual, "parent not spherical")
    me = _entry(p, spec, "natural")
    mps, spread = me.samples, _spread(me, "kappa")
    if spread > tol.constancy:
        return _not_applicable("thm5_2", tol.residual,
                               f"mate curvature not constant (spread {spread:.3g})")
    c = float(np.mean(mps.kappa))
    r = float(sph.radius)
    a = c * c * r
    if a < c - 1e-12:
        return VerificationReport("thm5_2", True, False, None, tol.residual,
                                  {"a": a, "c": c},
                                  hypothesis_note="a < c is impossible")
    lhs = np.abs(mps.m)
    gap = a * a - c * c

    def sup_residual(delta: float) -> float:
        arg = c * (mps.s + delta)
        target = np.abs(c * c * math.sqrt(max(gap, 0.0)) * np.cos(arg)
                        / (c * c + gap * np.sin(arg) ** 2))
        return float(np.max(np.abs(lhs - target)))

    period = math.pi / c
    coarse = np.linspace(0.0, period, 65)
    best = min(coarse, key=sup_residual)
    lo, hi = best - period / 64, best + period / 64
    delta, residual = _golden_section(sup_residual, lo, hi)
    passed = residual <= tol.residual
    return VerificationReport("thm5_2", True, passed, residual, tol.residual,
                              {"a": a, "c": c, "r": r, "phase": delta})


def verify_thm_6_2(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """tau - tau_G constant nonzero => natural mate spherical with radius 1/|c|.

    A mate that is a circle (the parent is a circular helix) passes when
    its radius is at most 1/|c|."""
    e = _entry(p, spec)
    m, spread = e.samples.m, _spread(e, "m")
    if spread > tol.constancy:
        return _not_applicable("thm6_2", tol.residual,
                               f"tau - tau_G not constant (spread {spread:.3g})")
    c = float(np.mean(m))
    if abs(c) <= tol.zero:
        return _not_applicable("thm6_2", tol.residual, "tau - tau_G vanishes")
    sph = _spherical_report(_entry(p, spec, "natural"), tol)
    if not sph.is_spherical:
        return VerificationReport("thm6_2", True, False, None, tol.residual,
                                  {"c": c}, hypothesis_note="mate not spherical")
    details = {"c": c, "radius": sph.radius, "expected_radius": 1.0 / abs(c)}
    eq_res = sph.max_eq_residual or 0.0
    residual = max(_radius_residual(sph, 1.0 / abs(c), details), eq_res)
    details["closure_residual"] = eq_res
    return VerificationReport("thm6_2", True, residual <= tol.residual, residual,
                              tol.residual, details, trace=sph.trace)


# ---------------------------------------------------------------------------
# corollary biconditionals

def verify_cor_3_1(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """General helix <=> mate torsion equals the group torsion."""
    h_spread = _spread(_entry(p, spec), "H")
    is_gh = h_spread <= tol.constancy
    mate_dev = float(np.max(np.abs(_entry(p, spec, "natural").samples.m)))
    mate_flat = mate_dev <= tol.zero
    passed = is_gh == mate_flat
    return VerificationReport("cor3_1", True, passed,
                              mate_dev if is_gh else h_spread, tol.zero,
                              {"general_helix": is_gh, "H_spread": h_spread,
                               "mate_torsion_deviation": mate_dev})


def verify_cor_3_2(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Slant helix <=> natural mate is a general helix.

    Needs H' not identically 0.  On a general helix (H constant, the test of
    ``classify`` and cor3_1) sigma is undefined, and the check is not
    applicable; Izumiya & Takeuchi (Turk. J. Math. 28, 2004) count a general
    helix as a slant helix with angle pi/2, and its natural mate is a
    general helix (cor3_1)."""
    e = _entry(p, spec)
    h_spread = _spread(e, "H")
    if h_spread <= tol.constancy:
        return _not_applicable("cor3_2", tol.constancy,
                               f"general helix (H spread {h_spread:.3g}): "
                               "H' vanishes identically; sigma undefined")
    slant, sig_spread = _slant_verdict(e, tol)
    mate_h_spread = _spread(_entry(p, spec, "natural"), "H")
    mate_gh = mate_h_spread <= tol.constancy
    return VerificationReport("cor3_2", True, slant == mate_gh,
                              mate_h_spread, tol.constancy,
                              {"slant": slant, "sigma_spread": sig_spread,
                               "mate_H_spread": mate_h_spread,
                               "mate_general_helix": mate_gh})


def verify_cor_3_3(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Rectifying (H linear, slope a != 0) <=> a kappa^2 = (mate tau - tau_G)
    * mate kappa^2."""
    e = _entry(p, spec)
    ps, (rectifying, a, _) = e.samples, _rectifying_fit(e, tol)
    mps = _entry(p, spec, "natural").samples
    residual = float(np.max(np.abs(a * ps.kappa ** 2 - mps.m * mps.kappa ** 2)))
    # the identity side carries the same nonzero-slope hypothesis: a = 0
    # satisfies it only trivially
    identity_ok = residual <= tol.residual and abs(a) >= tol.rectifying_slope_min
    return VerificationReport("cor3_3", True, rectifying == identity_ok, residual,
                              tol.residual,
                              {"rectifying": rectifying, "slope": float(a),
                               "identity_ok": identity_ok})


DISCRIMINANT_FLOOR = 1e-10


def _signed_sqrt_residual(lhs: np.ndarray, base: np.ndarray, disc: np.ndarray,
                          mask: np.ndarray) -> float:
    """max over contiguous masked runs of the best consistent-sign residual
    of |lhs - (base +/- sqrt(disc))|."""
    worst = 0.0
    root = np.sqrt(np.clip(disc, 0.0, None))
    for i0, i1, flag in runs(mask):
        if not flag:
            continue
        sl = slice(i0, i1 + 1)
        plus = float(np.max(np.abs(lhs[sl] - (base[sl] + root[sl]))))
        minus = float(np.max(np.abs(lhs[sl] - (base[sl] - root[sl]))))
        worst = max(worst, min(plus, minus))
    return worst


def verify_cor_3_4(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Spherical parents satisfy kappa_bar'/kappa_bar = (tau_bar - tau_G) H
    +/- (tau - tau_G) sqrt(r^2 kappa^2 - 1), one sign per segment.

    Samples where the discriminant or tau - tau_G sits below the noise floor
    are excluded (the identity degenerates there)."""
    e = _entry(p, spec)
    ps, sph = e.samples, _spherical_report(e, tol)
    if not sph.is_spherical:
        return _not_applicable("cor3_4", tol.residual, "parent not spherical")
    r = float(sph.radius)
    mps = _entry(p, spec, "natural").samples
    lhs = mps.kappa_prime / mps.kappa
    disc = r * r * ps.kappa * ps.kappa - 1.0
    mask = (np.abs(ps.m) > tol.zero) & (disc > DISCRIMINANT_FLOOR)
    if not np.any(mask):
        return _not_applicable("cor3_4", tol.residual,
                               "identity degenerate everywhere")
    base = mps.m * ps.H
    residual = _signed_sqrt_residual(lhs, base, (ps.m * ps.m) * disc, mask)
    return VerificationReport("cor3_4", True, residual <= tol.residual, residual,
                              tol.residual, {"r": r,
                                             "samples_checked": int(mask.sum())})


def verify_cor_5_2(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """For spherical parents with constant-curvature mates: pointwise either
    tau = tau_G or mate torsion - tau_G = -/+ kappa sqrt(r^2 kappa^2 - 1)."""
    e = _entry(p, spec)
    ps, sph = e.samples, _spherical_report(e, tol)
    if not sph.is_spherical:
        return _not_applicable("cor5_2", tol.residual, "parent not spherical")
    me = _entry(p, spec, "natural")
    if _spread(me, "kappa") > tol.constancy:
        return _not_applicable("cor5_2", tol.residual, "mate curvature not constant")
    r = float(sph.radius)
    disc = r * r * ps.kappa * ps.kappa - 1.0
    mask = (np.abs(ps.m) > tol.zero) & (disc > DISCRIMINANT_FLOOR)
    if not np.any(mask):
        # dichotomy satisfied by the tau = tau_G branch everywhere
        return VerificationReport("cor5_2", True, True, 0.0, tol.residual,
                                  {"branch": "tau==tau_G"})
    residual = _signed_sqrt_residual(me.samples.m, np.zeros_like(me.samples.m),
                                     ps.kappa * ps.kappa * disc, mask)
    return VerificationReport("cor5_2", True, residual <= tol.residual, residual,
                              tol.residual, {"r": r,
                                             "samples_checked": int(mask.sum())})


def verify_cor_6_1(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """General helix <=> conjugate mate is a general helix (needs tau != tau_G)."""
    e = _entry(p, spec)
    ps = e.samples
    if np.min(np.abs(ps.m)) <= tol.zero:
        return _not_applicable("cor6_1", tol.constancy,
                               "tau - tau_G vanishes somewhere")
    h_spread = _spread(e, "H")
    ce = _entry(p, spec, "conjugate")
    cps, conj_spread = ce.samples, _spread(ce, "H")
    is_gh = h_spread <= tol.constancy
    conj_gh = conj_spread <= tol.constancy
    identity = float(np.max(np.abs(cps.H * ps.H - np.sign(ps.m))))
    return VerificationReport("cor6_1", True, is_gh == conj_gh,
                              max(h_spread, conj_spread), tol.constancy,
                              {"general_helix": is_gh,
                               "conjugate_general_helix": conj_gh,
                               "H_product_identity_residual": identity})


def verify_cor_6_2(p: CurvatureProfile, spec: GroupSpec,
                   tol: ToleranceSet = ToleranceSet()) -> VerificationReport:
    """Slant helix <=> conjugate mate is a slant helix; the sigma values are
    opposite up to the sign of tau - tau_G."""
    e = _entry(p, spec)
    ps = e.samples
    if np.min(np.abs(ps.m)) <= tol.zero:
        return _not_applicable("cor6_2", tol.constancy,
                               "tau - tau_G vanishes somewhere")
    h_spread = _spread(e, "H")
    if h_spread <= tol.constancy:
        return _not_applicable("cor6_2", tol.constancy,
                               f"general helix (H spread {h_spread:.3g}): "
                               "H' vanishes identically; sigma undefined")
    slant, sig_spread = _slant_verdict(e, tol)
    ce = _entry(p, spec, "conjugate")
    cps, (conj_slant, conj_spread) = ce.samples, _slant_verdict(ce, tol)
    details: dict = {"slant": slant, "conjugate_slant": conj_slant,
                     "sigma_spread": sig_spread,
                     "conjugate_sigma_spread": conj_spread}
    if sig_spread is not None and conj_spread is not None:
        details["sigma_sum_residual"] = float(
            np.max(np.abs(cps.sigma + np.sign(ps.m) * ps.sigma)))
    return VerificationReport("cor6_2", True, slant == conj_slant,
                              conj_spread if conj_spread is not None else sig_spread,
                              tol.constancy, details)


# ---------------------------------------------------------------------------
# geometric mate checks (Bertrand / mutual orthogonality)

def verify_mate_geometry(traj: FrameTrajectory, natural: PositionCurve,
                         conjugate: Optional[PositionCurve], spec: GroupSpec,
                         tol: ToleranceSet = ToleranceSet()) -> dict[str, VerificationReport]:
    """End-to-end geometric checks against estimated apparatus, as the
    reports of cor6_3 (natural mate) and cor6_4 (conjugate mate):

    (i)   each mate's estimated tangent equals the parent's N (natural) or
          B (conjugate);
    (ii)  Bertrand property for the conjugate mate: estimated N* is +/-N;
    (iii) mutual orthogonality of the three estimated tangents, one
          residual shared by both reports.

    ``conjugate`` is None where tau - tau_G vanishes identically; both
    reports are then not applicable.
    """
    if conjugate is None:
        note = "tau - tau_G vanishes identically"
        return {"cor6_3": _not_applicable("cor6_3", tol.orthogonality, note),
                "cor6_4": _not_applicable("cor6_4", tol.bertrand, note)}
    if traj.positions is None:
        raise ValueError("parent trajectory needs positions")
    est_p, est_n, est_c = (estimate_apparatus(c, spec) for c in (traj, natural, conjugate))
    # the three curves share one grid, so one valid mask
    mask = est_p.valid
    ortho = max(float(np.max(np.abs(np.sum(a.t[mask] * b.t[mask], axis=1))))
                for a, b in ((est_p, est_n), (est_n, est_c), (est_p, est_c)))
    tangent_n, tangent_c = (float(np.max(np.linalg.norm(est.t[mask] - target[mask], axis=1)))
                            for est, target in ((est_n, traj.n), (est_c, traj.b)))
    # exclude samples too close to inflections of the mate for a stable N*
    stable = mask & (est_c.kappa >= 1e-3)
    diff_minus = np.linalg.norm(est_c.n[stable] - est_p.n[stable], axis=1)
    diff_plus = np.linalg.norm(est_c.n[stable] + est_p.n[stable], axis=1)
    bertrand = float(np.max(np.minimum(diff_minus, diff_plus))) if np.any(stable) else None

    natural_report = VerificationReport(
        "cor6_3", True, tangent_n <= tol.tangent and ortho <= tol.orthogonality,
        max(tangent_n, ortho), tol.tangent,
        {"tangent_residual": tangent_n, "orthogonality_residual": ortho})
    passed = (tangent_c <= tol.tangent and bertrand is not None
              and bertrand <= tol.bertrand and ortho <= tol.orthogonality)
    conjugate_report = VerificationReport(
        "cor6_4", True, passed, max(v for v in (tangent_c, bertrand, ortho) if v is not None),
        tol.tangent, {"tangent_residual": tangent_c, "bertrand_residual": bertrand,
                      "orthogonality_residual": ortho})
    return {"cor6_3": natural_report, "cor6_4": conjugate_report}
