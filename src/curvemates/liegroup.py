"""Three-dimensional Lie algebra and group primitives.

All three supported groups (the commutative R^3, SO(3), the unit quaternions
S^3) share one bracket model on a fixed orthonormal left-invariant basis:
[u, v] = lam * cross(u, v) with structure scalar lam in {0, 1, 2}.  The
group torsion is lam/2: 0 for R^3, 1/2 for SO(3), 1 for S^3.

Group elements are plain numpy arrays whose shape depends on the family:
(3,) translation vectors, (3,3) rotation matrices, (4,) scalar-first unit
quaternions; a group is a ``GroupSpec`` record.  The uniform-grid rules,
cumulative quadrature, cubic interpolation and the least-squares derivative
filter, live here.

No function here calls LAPACK: the 3x3 determinant, the projection onto
the rotations and the filter's weights are closed forms in float
arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_FAMILIES = {"r3": 0.0, "so3": 1.0, "s3": 2.0}


class _GroupFields(NamedTuple):
    family: str


class GroupSpec(_GroupFields):
    """A group family, checked when built; the structure scalar of its
    bracket and its torsion follow from it."""

    __slots__ = ()

    def __new__(cls, family: str):
        # text only: a list or a dict is no family, and has no hash to look up
        if not (isinstance(family, str) and family in _FAMILIES):
            raise ValueError(f"unknown group family {family!r} (expected r3, so3 or s3)")
        return super().__new__(cls, family)

    @property
    def lam(self) -> float:
        return _FAMILIES[self.family]

    @property
    def tau_g(self) -> float:
        return self.lam / 2.0


def group_spec(name: str) -> GroupSpec:
    return GroupSpec(name.lower())


R3 = group_spec("r3")
SO3 = group_spec("so3")
S3 = group_spec("s3")


def gram_defect(m: np.ndarray) -> float:
    """Largest |m m^T - I| entry of a 3x3 matrix, or over a stack of them,
    one Gram entry at a time so that no (N, 3, 3) temporary is formed."""
    worst = 0.0
    for i in range(3):
        for j in range(i, 3):
            dot = np.einsum("...k,...k->...", m[..., i, :], m[..., j, :])
            worst = max(worst, float(np.max(np.abs(dot - (i == j)))))
    return worst


# ---------------------------------------------------------------------------
# algebra operations

def bracket(u: np.ndarray, v: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Lie bracket [u, v] = lam * cross(u, v)."""
    return spec.lam * np.cross(u, v)


# ---------------------------------------------------------------------------
# group elements
#
# vee, gram_defect, quat_mul_rows, element_defect and pull_back_tangent take
# one element or a stack along leading axes; quat_mul is one-element only.

def identity_element(spec: GroupSpec) -> np.ndarray:
    if spec.family == "r3":
        return np.zeros(3)
    if spec.family == "so3":
        return np.eye(3)
    return np.array([1.0, 0.0, 0.0, 0.0])


def vee(m: np.ndarray) -> np.ndarray:
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, scalar-first."""
    pw, pv = p[0], p[1:]
    qw, qv = q[0], q[1:]
    return np.concatenate(([pw * qw - pv @ qv], pw * qv + qw * pv + np.cross(pv, qv)))


def quat_mul_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, scalar-first, of two quaternions or row by row of
    two stacks of the same shape."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(p.shape)
    out[..., 0] = pw * qw - (px * qx + py * qy + pz * qz)
    out[..., 1] = pw * qx + qw * px + (py * qz - pz * qy)
    out[..., 2] = pw * qy + qw * py + (pz * qx - px * qz)
    out[..., 3] = pw * qz + qw * pz + (px * qy - py * qx)
    return out


def det3(m) -> float:
    """Determinant of a 3x3 matrix: the triple product of its rows."""
    (a, b, c), (d, e, f), (p, q, r) = np.asarray(m, dtype=float).tolist()
    return a * (e * r - f * q) + b * (f * p - d * r) + c * (d * q - e * p)


POLAR_STEPS = 1100    # past the ~1075 halvings that the float range allows


def renormalize_element(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Project back onto the group manifold (the identity map for r3).

    A matrix goes to its polar factor, the nearest rotation, by Newton's
    iteration g <- (g + g^-T) / 2 (Higham 1986), with g^-T = cof(g) / det g,
    until no entry moves by more than 1e-15; a rotation is a fixed point and
    the identity maps to itself exactly.  A matrix whose largest entry lies
    outside [0.5, 2) is first scaled by a power of two, which is exact and
    leaves the polar factor as it is.

    Raises ValueError where no nearby group element exists: a translation
    with a non-finite entry, a matrix with det <= 0 or a non-finite entry (or
    one so near singular that the iteration does not settle in POLAR_STEPS
    steps), a quaternion of zero or non-finite norm."""
    if spec.family == "r3":
        if not np.all(np.isfinite(g)):
            raise ValueError("a translation with a non-finite entry is no point of R^3")
        return g
    if spec.family == "s3":
        norm = np.linalg.norm(g)
        if not 0 < norm < np.inf:
            raise ValueError(f"a quaternion of norm {norm} has no nearest unit quaternion")
        return g / norm
    if not (np.all(np.isfinite(g)) and det3(g) > 0):
        raise ValueError("a matrix with det <= 0 or a non-finite entry "
                         "has no nearest rotation")
    x = g.ravel().tolist()
    big = max(map(abs, x))
    if not 0.5 <= big < 2.0:
        x = [math.ldexp(v, -math.frexp(big)[1]) for v in x]
    for _ in range(POLAR_STEPS):
        a, b, c, d, e, f, p, q, r = x
        # rows of the cofactor matrix: r1 x r2, r2 x r0, r0 x r1
        cof = (e * r - f * q, f * p - d * r, d * q - e * p,
               q * c - r * b, r * a - p * c, p * b - q * a,
               b * f - c * e, c * d - a * f, a * e - b * d)
        det = a * cof[0] + b * cof[1] + c * cof[2]
        step = [0.5 * (v + w / det) for v, w in zip(x, cof)]
        moved = max(abs(v - w) for v, w in zip(step, x))
        x = step
        if moved <= 1e-15:
            return np.array(x).reshape(3, 3)
    raise ValueError("a matrix this near singular has no nearest rotation "
                     f"that {POLAR_STEPS} polar steps reach")


def element_defect(spec: GroupSpec, g: np.ndarray) -> float:
    """Largest distance from the group manifold (0 for r3)."""
    if spec.family == "r3":
        return 0.0
    if spec.family == "s3":
        return float(np.max(np.abs(np.linalg.norm(g, axis=-1) - 1.0)))
    return gram_defect(np.swapaxes(g, -1, -2))


def pull_back_tangent(g: np.ndarray, dg: np.ndarray, spec: GroupSpec) -> np.ndarray:
    """Invert left translation: ambient derivative dg at g -> algebra
    components (skew part of g^T dg, vector part of conj(g) dg)."""
    if spec.family == "r3":
        return np.asarray(dg, dtype=float)
    if spec.family == "s3":
        return quat_mul_rows(g * np.array([1.0, -1.0, -1.0, -1.0]), dg)[..., 1:]
    a = np.einsum("...ja,...jb->...ab", g, dg)
    # the skew part's components, read without another (N, 3, 3) array
    return 0.5 * (vee(a) - vee(np.swapaxes(a, -1, -2)))


# ---------------------------------------------------------------------------
# uniform grids

def cumulative_quadrature(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, O(h^4) at every grid point.

    Even-index prefixes use the composite Simpson recurrence.  Odd-index
    prefixes add the integral of the cubic through the four samples around
    the trailing interval (one-sided cubics at the two ends).
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if n < 3:
        raise ValueError("cumulative quadrature needs at least 3 samples")
    out = np.zeros_like(f)
    pairs = (h / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(pairs, axis=0)
    if n == 3:
        out[1] = (h / 12.0) * (5.0 * f[0] + 8.0 * f[1] - f[2])
        return out
    out[1] = (h / 24.0) * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    # interior odd indices: integral over [m-1, m] of the cubic through m-2..m+1
    last_centered = n - 2 if n % 2 else n - 3
    if last_centered >= 3:
        m = np.arange(3, last_centered + 1, 2)
        mids = (h / 24.0) * (-f[m - 2] + 13.0 * f[m - 1] + 13.0 * f[m] - f[m + 1])
        out[m] = out[m - 1] + mids
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + (h / 24.0) * (
            f[n - 4] - 5.0 * f[n - 3] + 19.0 * f[n - 2] + 9.0 * f[n - 1])
    return out


def is_uniform_grid(s: np.ndarray) -> bool:
    """Whether every step of ``s`` (at least 2 samples) equals the first
    one, h, to within 1e-12 max(1, |h|)."""
    steps = np.diff(s)
    h = float(steps[0])
    return bool(np.allclose(steps, h, rtol=0, atol=1e-12 * max(1.0, abs(h))))


@lru_cache(maxsize=None)
def _sg_coeffs(window: int, offset: int) -> np.ndarray:
    """First-derivative weights of the quartic fit at ``offset``, read-only.

    With p_0..p_4 the monic polynomials orthogonal on the window's nodes
    x_i = i - half (Forsythe 1957), w_i = sum_k p_k'(t) p_k(x_i) / |p_k|^2 at
    t = offset - half.  On these nodes p_k+1 = x p_k - beta_k p_k-1 with
    beta_k = k^2 (n^2 - k^2) / (4 (4k^2 - 1)) and |p_k|^2 = beta_k |p_k-1|^2."""
    n, half = window, window // 2
    x = np.arange(-half, half + 1, dtype=float)
    t = float(offset - half)

    def beta(k):
        return k * k * (n * n - k * k) / (4.0 * (4 * k * k - 1))

    w = np.zeros(n)
    p_prev, p = np.zeros(n), np.ones(n)         # p_k-1, p_k at the nodes
    v_prev, v, dv_prev, dv = 0.0, 1.0, 0.0, 0.0   # p_k-1(t), p_k(t) and their slopes
    norm = float(n)                             # |p_k|^2
    for k in range(5):                          # beta_0 = 0 multiplies p_-1 = 0
        w += (dv / norm) * p
        bk = beta(k)
        p_prev, p = p, x * p - bk * p_prev
        dv_prev, dv = dv, v + t * dv - bk * dv_prev
        v_prev, v = v, t * v - bk * v_prev
        norm *= beta(k + 1)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _sg_end_coeffs(window: int) -> np.ndarray:
    """Weights of the one-sided rows, read-only, shape (2, half, window, 1):
    [0, p] for row p of the first window, [1, p] for row p from the end."""
    half = window // 2
    w = np.array([[_sg_coeffs(window, p) for p in range(half)],
                  [_sg_coeffs(window, window - 1 - p) for p in range(half)]])[..., None]
    w.flags.writeable = False
    return w


def sg_derivative(values: np.ndarray, h: float, window: int) -> np.ndarray:
    """Derivative along axis 0 by least-squares quartic fit over ``window``
    points (odd, >= 5), the filter of Savitzky and Golay (1964); exact for
    quartics, one-sided windows at the ends.  Window 5 is the classical
    5-point stencil, O(h^4) throughout."""
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    if window % 2 == 0 or window < 5:
        raise ValueError("window must be odd and at least 5")
    if n < window:
        raise ValueError(f"need at least {window} samples")
    half = window // 2
    flat = f.reshape(n, -1)
    out = np.empty_like(flat)
    # every row adds its weighted samples one at a time in window order, so
    # its bits do not depend on the input's memory layout: the centred rows
    # as shifted copies, the one-sided rows by cumsum along the window
    w, m = _sg_coeffs(window, half), n - 2 * half
    inner = np.multiply(flat[:m], w[0], out=out[half:n - half])
    for k in range(1, window):
        inner += w[k] * flat[k:k + m]
    ends = np.stack([flat[:window], flat[n - window:]])[:, None]
    ends = np.cumsum(_sg_end_coeffs(window) * ends, axis=2)[:, :, -1]
    out[:half] = ends[0]
    out[n - 1:n - 1 - half:-1] = ends[1]
    return (out / h).reshape(f.shape)


def cubic_interp(s_grid: np.ndarray, values: np.ndarray, s) -> np.ndarray:
    """4-point Lagrange cubic on a uniform grid (clamped near the ends)."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    sq = np.atleast_1d(s)
    n = s_grid.shape[0]
    # a query at a node reads its sample: (s - s0)/h lands a few ulp off
    # the node index, which would mix in the neighbours
    node = np.minimum(np.searchsorted(s_grid, sq), n - 1)
    at_node = s_grid[node] == sq
    h = s_grid[1] - s_grid[0]
    pos = (sq - s_grid[0]) / h
    i = np.clip(np.floor(pos).astype(int), 1, n - 3)
    x = pos - i  # in [0,1] inside the cell, outside when clamped
    fm1, f0, f1, f2 = values[i - 1], values[i], values[i + 1], values[i + 2]
    out = np.where(at_node, values[node], (
        fm1 * (-x * (x - 1.0) * (x - 2.0) / 6.0)
        + f0 * ((x + 1.0) * (x - 1.0) * (x - 2.0) / 2.0)
        + f1 * (-(x + 1.0) * x * (x - 2.0) / 2.0)
        + f2 * ((x + 1.0) * x * (x - 1.0) / 6.0)
    ))
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# runs of a sampled key

def runs(key) -> list[tuple[int, int, object]]:
    """Maximal runs of equal values of a 1-D array, in order.

    Each run is ``(first, last, value)``: ``first`` and ``last`` are the
    inclusive indices of its first and last sample, and ``value`` is the
    value all its samples hold, as a Python scalar.  Consecutive runs hold
    different values.  Values are compared with ``!=``, so every NaN is a
    run of its own.  An empty array has no runs.
    """
    key = np.asarray(key)
    if key.size == 0:
        return []
    last = np.append(np.flatnonzero(key[1:] != key[:-1]), key.size - 1)
    first = np.concatenate(([0], last[:-1] + 1))
    return list(zip(first.tolist(), last.tolist(), key[first].tolist()))
