"""Analytic natural and conjugate mate apparatus.

The natural mate (tangent = parent principal normal) has

    kappa_bar = omega = sqrt((tau - tau_G)^2 + kappa^2)
    tau_bar   = tau_G + H' / (1 + H^2)

and frames (N, Omega*/omega, Omega/omega) in parent-frame coordinates.  The
conjugate mate (tangent = parent binormal) has kappa* = |tau - tau_G|,
tau* = kappa + tau_G, with frames (B, -sign N, sign T); it is only a Frenet
curve away from zeros of tau - tau_G, so its domain splits into maximal
segments of constant sign.

Each formula is written once, as an expression tree over the parent's
kappa and tau, for every parent: a written parent's mate has exact
symbolic derivatives, and a sampled parent's mate is the formula over the
cubic interpolants of its samples, differentiated by the chain rule.
A parent keeps each mate it has (``CurvatureProfile.mates``), so every
caller after the first gets the same object.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import expressions as ex
from .liegroup import GroupSpec, cumulative_quadrature, runs
from .profiles import CurvatureProfile, FrenetViolation

# |tau - tau_G| below this counts as a zero when splitting conjugate segments:
# below finite-difference noise, above accumulated integration error.
ZERO_TOL = 1e-9


class NotAFrenetMate(ValueError):
    """tau - tau_G vanishes identically: the conjugate mate degenerates."""


class Segment(NamedTuple):
    s_min: float
    s_max: float
    sign: int


class MateApparatus(NamedTuple):
    """Curvature, torsion and validity segments of a natural or conjugate
    mate; its parent keeps it under its kind and group."""

    profile: CurvatureProfile     # the mate's own (kappa, tau)
    segments: tuple[Segment, ...]

    def kappa_at(self, s):
        return self.profile.kappa_at(s)

    def tau_at(self, s):
        return self.profile.tau_at(s)


def sign_segments(s: np.ndarray, m: np.ndarray, zero_tol: float) -> tuple[Segment, ...]:
    """Maximal runs of samples with |m| > zero_tol and constant sign of m."""
    key = np.where(np.abs(m) > zero_tol, np.sign(m), 0.0)
    return tuple(Segment(float(s[i]), float(s[j]), int(sign))
                 for i, j, sign in runs(key) if sign != 0.0)


def _stored(p: CurvatureProfile, kind: str, spec: GroupSpec, build) -> MateApparatus:
    """The mate of p kept in ``p.mates``, built by build(p, spec) and kept
    when first asked for; a build that raises keeps nothing."""
    key = (kind, spec)
    if key not in p.mates:
        p.mates[key] = build(p, spec)
    return p.mates[key]


def natural_mate_apparatus(p: CurvatureProfile, spec: GroupSpec) -> MateApparatus:
    """Mate curvatures from the parent profile; single validity segment
    (kappa_bar = omega > 0 wherever the parent satisfies the Frenet condition).
    Built once per (profile, spec); later calls return the same object."""
    return _stored(p, "natural", spec, _natural_mate)


def conjugate_mate_apparatus(p: CurvatureProfile, spec: GroupSpec) -> MateApparatus:
    """kappa* = |tau - tau_G|, tau* = kappa + tau_G, segmented where
    tau - tau_G changes sign (threshold ZERO_TOL, sign constant per segment).
    Built once per (profile, spec); later calls return the same object."""
    return _stored(p, "conjugate", spec, _conjugate_mate)


def _natural_mate(p: CurvatureProfile, spec: GroupSpec) -> MateApparatus:
    tg = spec.tau_g
    m = ex.simplify(ex.Binary("-", p.tau_expr, ex.Num(tg)))
    kb = ex.Unary("sqrt", ex.Binary("+", ex.Binary("^", m, ex.Num(2.0)),
                                    ex.Binary("^", p.kappa_expr, ex.Num(2.0))))
    h = ex.Binary("/", m, p.kappa_expr)
    hp = ex.differentiate(h)
    one_h2 = ex.Binary("+", ex.Num(1.0), ex.Binary("^", h, ex.Num(2.0)))
    tb = ex.simplify(ex.Binary("+", ex.Num(tg), ex.Binary("/", hp, one_h2)))
    mate_profile = CurvatureProfile.from_expressions(ex.simplify(kb), tb, p.domain)
    return MateApparatus(mate_profile, (Segment(p.s_min, p.s_max, 1),))


def _conjugate_mate(p: CurvatureProfile, spec: GroupSpec) -> MateApparatus:
    tg = spec.tau_g
    s = p.grid()
    segments = sign_segments(s, p.tau_at(s) - tg, ZERO_TOL)
    if not segments:
        raise NotAFrenetMate(
            f"tau - tau_G vanishes identically on [{p.s_min}, {p.s_max}]")
    m = ex.simplify(ex.Binary("-", p.tau_expr, ex.Num(tg)))
    kstar = ex.Unary("abs", m)
    tstar = ex.simplify(ex.Binary("+", p.kappa_expr, ex.Num(tg)))
    mate_profile = CurvatureProfile.from_expressions(kstar, tstar, p.domain)
    return MateApparatus(mate_profile, segments)


def constant_curvature_inverse(tau_bar, c: float, spec: GroupSpec, domain, n: int,
                               phi0: float = 0.0) -> CurvatureProfile:
    """Parent profile of a natural mate with constant curvature c.

    Given the mate torsion law tau_bar(s), the parent is

        kappa       = c cos(phi(s))
        tau - tau_G = c sin(phi(s)),   phi(s) = phi0 + integral of (tau_bar - tau_G)

    with the integral taken by the same cumulative quadrature as the left
    shift.  ``tau_bar`` is an expression or its text.  Returns a sampled
    profile on an n-point grid.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    s = np.linspace(float(domain[0]), float(domain[1]), n)
    h = s[1] - s[0]
    values = ex.evaluate(ex.ensure_expr(tau_bar), s)
    phi = phi0 + cumulative_quadrature(values - spec.tau_g, h)
    kappa = c * np.cos(phi)
    tau = spec.tau_g + c * np.sin(phi)
    if np.any(kappa <= 0):
        good = kappa > 0
        runs = _longest_run(good)
        sub = (float(s[runs[0]]), float(s[runs[1]])) if runs else None
        err = FrenetViolation(
            "recovered kappa <= 0 on the requested domain"
            + (f"; usable subdomain [{sub[0]:.6g}, {sub[1]:.6g}]" if sub else ""))
        err.usable_subdomain = sub
        raise err
    return CurvatureProfile.from_samples(s, kappa, tau)


def _longest_run(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """Inclusive (first, last) of the longest run of True in mask, the first
    such run on a tie; None when mask holds no True."""
    return max(((i, j) for i, j, flag in runs(mask) if flag),
               key=lambda run: run[1] - run[0], default=None)
