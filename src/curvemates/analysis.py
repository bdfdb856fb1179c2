"""Independent apparatus estimation from sampled positions.

The estimator reconstructs (kappa, tau, tau_G) from sampled group-valued
positions alone, so it can cross-check everything the synthesis pipeline
produces.  Differentiation is ``liegroup.sg_derivative``, the least-squares
quartic filter, over DEFAULT_WINDOW samples: the 11-point window keeps the
O(h^4) truncation order of the 5-point stencil while cutting the float64
round-off amplification of the nested third-derivative pipeline roughly
30x, which the refinement tolerances require.

Classification and verification live in ``checks``, which is imported on
the first lookup of one of its names here (``analysis.classify``,
``analysis.verify_thm_4_1``, ...), so a command that only integrates or
estimates never loads them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .liegroup import (GroupSpec, bracket, is_uniform_grid, pull_back_tangent,
                       sg_derivative)
from .mates import ZERO_TOL

DEFAULT_WINDOW = 11
# samples at each end outside the valid span, one half window per nested derivative
MARGIN = 3 * (DEFAULT_WINDOW // 2)


class EstimationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tolerances

class ToleranceSet(NamedTuple):
    """Every tolerance used by classification and verification.

    Two presets reflect two noise floors: exactly evaluated profiles (the
    defaults, ``ToleranceSet()``) versus apparatus estimated from
    integrated positions (``ToleranceSet.estimated()``).
    """

    constancy: float = 1e-6          # relative spread counting as constant
    residual: float = 1e-8           # identity / radius residuals
    spherical_spread: float = 1e-6   # relative spread of the sphere function R
    spherical_residual: float = 1e-6 # closure residual of the sphere criterion
    zero: float = ZERO_TOL           # |tau - tau_G| treated as zero
    spherical_zero_rel: float = 0.0  # sphere-ratio mask floor, relative to max|tau - tau_G|
    rectifying_slope_min: float = 1e-6
    tangent: float = 1e-5            # mate tangent agreement
    bertrand: float = 1e-4           # principal-normal collinearity
    orthogonality: float = 1e-5

    @classmethod
    def estimated(cls) -> "ToleranceSet":
        return cls(constancy=1e-3, residual=1e-3,
                   spherical_spread=1e-3, spherical_residual=1e-3,
                   spherical_zero_rel=1e-3)


def rel_spread(x) -> float:
    """(max - min) over max(1, |mean|)."""
    x = np.asarray(x, dtype=float)
    return float((x.max() - x.min()) / max(1.0, abs(float(x.mean()))))


# ---------------------------------------------------------------------------
# apparatus estimation

class EstimatedApparatus(NamedTuple):
    """Frenet data recovered from positions only."""

    s: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    tau_g: np.ndarray
    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    valid: np.ndarray      # interior mask clear of one-sided stencil margins


def estimate_apparatus(curve, spec: GroupSpec) -> EstimatedApparatus:
    """Estimate (kappa, tau, tau_G) and frames from sampled positions.

    The tangent comes from differentiating positions and pulling back by
    left translation; kappa = |t'| (the bracket term vanishes along t),
    N = t'/kappa, B = T x N, tau = <N' + (1/2)[T, N], B>.
    """
    s = np.asarray(curve.s, dtype=float)
    positions = np.asarray(curve.positions, dtype=float)
    n = s.shape[0]
    if n <= 2 * MARGIN:
        raise EstimationError(f"need at least {2 * MARGIN + 1} samples, got {n}")
    if not is_uniform_grid(s):
        raise EstimationError("estimation requires a uniform s-grid")
    h = float(s[1] - s[0])

    # the position derivative is dropped once the tangent exists
    t = pull_back_tangent(positions, sg_derivative(positions, h, DEFAULT_WINDOW), spec)
    tp = sg_derivative(t, h, DEFAULT_WINDOW)
    kappa = np.linalg.norm(tp, axis=1)

    valid = np.zeros(n, dtype=bool)
    valid[MARGIN:n - MARGIN] = True
    if np.any(kappa[valid] < 1e-9):
        raise EstimationError("kappa below 1e-9 on an interior window; "
                              "not a Frenet curve there")
    kappa_safe = np.where(kappa < 1e-300, 1.0, kappa)
    # T, N and B are normalised in place: t, tp and the cross product are
    # arrays of this function (for r3, t is the position derivative itself)
    that, nhat = t, tp
    that /= np.linalg.norm(that, axis=1, keepdims=True)
    nhat /= kappa_safe[:, None]
    bhat = np.cross(that, nhat)
    bhat /= np.linalg.norm(bhat, axis=1, keepdims=True)
    nprime = sg_derivative(nhat, h, DEFAULT_WINDOW)
    tn_bracket = bracket(that, nhat, spec)
    tau_g = 0.5 * np.sum(tn_bracket * bhat, axis=1)
    tau = np.sum((nprime + 0.5 * tn_bracket) * bhat, axis=1)
    return EstimatedApparatus(s=s, kappa=kappa, tau=tau, tau_g=tau_g,
                              t=that, n=nhat, b=bhat, valid=valid)


def __getattr__(name: str):
    """The classification and verification names, from ``checks``."""
    # import machinery probes dunders such as __path__; they never load checks
    if name.startswith("__") and name.endswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks
    try:
        value = getattr(checks, name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # bound here, so that a wrapper later set on this module is the one called
    globals()[name] = value
    return value
