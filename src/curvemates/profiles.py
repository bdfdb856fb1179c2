"""Curvature/torsion profiles and the derived scalar/vector apparatus.

A profile, a NamedTuple record, carries kappa(s) and tau(s) as two
expression trees.  A sampled profile's trees are ``expressions.Samples``
leaves on a uniform grid: off-grid values from cubic interpolation,
derivatives from ``liegroup.sg_derivative`` with window 5, the classical
5-point stencil.  Everything downstream (harmonic curvature H, sigma, the
Darboux vectors) is read from one ``ProfileSamples`` of the profile on the
points asked for.
A profile derives its symbolic derivatives, and keeps its mates, once.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expressions as ex
from .liegroup import GroupSpec, is_uniform_grid

SINGULAR_SIGMA_TOL = 1e-12
# points of the check grid that classification and verification sample
GRID_POINTS = 2001


class FrenetViolation(ValueError):
    """kappa <= 0 somewhere it must be positive."""

    def __init__(self, message: str, s=None):
        super().__init__(message)
        self.s = s


def require_frenet(kappa, s) -> None:
    """Raise FrenetViolation, at the first s where it fails, unless kappa > 0
    at every s."""
    bad = np.asarray(kappa) <= 0
    if np.any(bad):
        raise FrenetViolation("Frenet condition violated: kappa <= 0",
                              float(np.asarray(s)[bad][0]))


class SingularSigma(ArithmeticError):
    """H' vanishes: sigma is undefined, the curve is locally a general helix."""


class _ProfileFields(NamedTuple):
    s_min: float
    s_max: float
    kappa_expr: ex.Expr
    tau_expr: ex.Expr


class CurvatureProfile(_ProfileFields):
    """(kappa, tau) over a domain as two expressions, written or sampled; no
    __slots__, so the values derived below are kept in the instance dict."""

    @classmethod
    def from_expressions(cls, kappa, tau, domain) -> "CurvatureProfile":
        s_min, s_max = float(domain[0]), float(domain[1])
        if not s_min < s_max:
            raise ValueError("empty domain")
        return cls(s_min, s_max, ex.ensure_expr(kappa), ex.ensure_expr(tau))

    @classmethod
    def from_samples(cls, s_grid, kappa_samples, tau_samples) -> "CurvatureProfile":
        s_grid = np.asarray(s_grid, dtype=float)
        kappa_samples = np.asarray(kappa_samples, dtype=float)
        tau_samples = np.asarray(tau_samples, dtype=float)
        if s_grid.shape[0] < 5:
            raise ValueError("sampled profiles need at least 5 points")
        if not s_grid.shape == kappa_samples.shape == tau_samples.shape:
            raise ValueError("sampled profiles need one kappa and one tau "
                             "sample per grid point")
        if not all(np.all(np.isfinite(a)) for a in (s_grid, kappa_samples, tau_samples)):
            raise ValueError("sampled profiles need finite grid points and samples")
        if not is_uniform_grid(s_grid):
            raise ValueError("sampled profiles require a uniform grid")
        return cls(float(s_grid[0]), float(s_grid[-1]),
                   ex.Samples(s_grid, kappa_samples), ex.Samples(s_grid, tau_samples))

    @property
    def domain(self) -> tuple[float, float]:
        return (self.s_min, self.s_max)

    def kappa_at(self, s):
        return ex.evaluate(self.kappa_expr, s)

    def tau_at(self, s):
        return ex.evaluate(self.tau_expr, s)

    # Values derived from the fields are computed when first read and kept
    # on the instance, whose fields are read-only, so they live and die with
    # it.  A failed derivation (DifferentiationError) is not kept: it raises
    # again on every read.

    @cached_property
    def kappa_prime_expr(self) -> ex.Expr:
        return ex.differentiate(self.kappa_expr)

    @cached_property
    def tau_prime_expr(self) -> ex.Expr:
        return ex.differentiate(self.tau_expr)

    @cached_property
    def mates(self) -> dict:
        """The mates built from this profile, by (kind, spec); the mates
        module fills it."""
        return {}

    def kappa_prime_at(self, s):
        return ex.evaluate(self.kappa_prime_expr, s)

    def tau_prime_at(self, s):
        return ex.evaluate(self.tau_prime_expr, s)

    def grid(self, n: int = GRID_POINTS) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, n)


# ---------------------------------------------------------------------------
# derived apparatus

class ProfileSamples:
    """The apparatus of one profile at ``s`` (a scalar or an array).

    Each quantity is evaluated when first read, and at most once.  The
    laziness is needed: abs(u) differentiates to (u/abs(u)) u', undefined at
    the zeros of u, and a natural mate's torsion holds its parent's
    derivatives, so a check that reads neither must not evaluate them.
    """

    def __init__(self, p: CurvatureProfile, spec: GroupSpec, s):
        self.profile = p
        self.tau_g = spec.tau_g
        self.s = s

    @cached_property
    def kappa(self):
        return self.profile.kappa_at(self.s)

    @cached_property
    def tau(self):
        return self.profile.tau_at(self.s)

    @cached_property
    def m(self):
        """tau - tau_G."""
        return self.tau - self.tau_g

    @cached_property
    def kappa_prime(self):
        return self.profile.kappa_prime_at(self.s)

    @cached_property
    def tau_prime(self):
        return self.profile.tau_prime_at(self.s)

    @cached_property
    def _positive_kappa(self):
        require_frenet(self.kappa, self.s)
        return self.kappa

    @cached_property
    def H(self):
        """Harmonic curvature (tau - tau_G)/kappa; requires kappa > 0."""
        return self.m / self._positive_kappa

    @cached_property
    def H_prime(self):
        """dH/ds via the quotient rule; requires kappa > 0."""
        num = self.tau_prime * self.kappa - self.m * self.kappa_prime
        return num / self._positive_kappa**2

    @cached_property
    def sigma(self):
        """kappa (H^2+1)^(3/2) / H'; NaN where |H'| <= SINGULAR_SIGMA_TOL."""
        h, hp = self.H, self.H_prime
        defined = np.abs(hp) > SINGULAR_SIGMA_TOL
        return self.kappa * (h * h + 1.0) ** 1.5 / np.where(defined, hp, np.nan)

    @cached_property
    def omega(self):
        """Length of the extrinsic Darboux vector: sqrt((tau-tau_G)^2 + kappa^2)."""
        return np.sqrt(self.m * self.m + self.kappa * self.kappa)


# point functions over ProfileSamples, kept as layers the benchmark traces

def harmonic_curvature(p: CurvatureProfile, spec: GroupSpec, s):
    """(tau - tau_G)/kappa; requires kappa > 0."""
    return ProfileSamples(p, spec, s).H


def harmonic_curvature_prime(p: CurvatureProfile, spec: GroupSpec, s):
    """dH/ds via the quotient rule from the profile derivatives."""
    return ProfileSamples(p, spec, s).H_prime


def sigma(p: CurvatureProfile, spec: GroupSpec, s):
    """kappa (H^2+1)^(3/2) / H'; raises SingularSigma where H' vanishes."""
    ps = ProfileSamples(p, spec, s)
    if np.any(np.isnan(ps.sigma)):
        raise SingularSigma("H' vanishes; curve is locally a general helix")
    return ps.sigma


def omega(p: CurvatureProfile, spec: GroupSpec, s):
    """Length of the extrinsic Darboux vector: sqrt((tau-tau_G)^2 + kappa^2)."""
    return ProfileSamples(p, spec, s).omega


def darboux_vectors(p: CurvatureProfile, spec: GroupSpec, s):
    """(D, Omega, Omega*) as coefficient triples in the (T, N, B) frame.

    D = (tau, 0, kappa) drives the covariant-derivative rotation; Omega =
    (tau - tau_G, 0, kappa) the plain-derivative one; Omega* = N'.
    """
    ps = ProfileSamples(p, spec, s)
    k, tau, m = np.atleast_1d(ps.kappa, ps.tau, ps.m)
    zero = np.zeros_like(k)
    d = np.stack([tau, zero, k], axis=-1)
    big = np.stack([m, zero, k], axis=-1)
    costar = np.stack([-k, zero, m], axis=-1)
    if np.ndim(s) == 0:
        return d[0], big[0], costar[0]
    return d, big, costar
