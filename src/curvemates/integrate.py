"""Frame ODE integration and position reconstruction.

The left-invariant frame components obey

    t' = kappa n,   n' = -kappa t + (tau - tau_G) b,   b' = -(tau - tau_G) n

that is F' = hat(w) F for the frame F with rows (T, N, B) and
w = -(tau - tau_G, 0, kappa).  The transpose G = F^T, whose columns are
T, N and B, then obeys G' = G hat(-w): it is a curve in SO(3) with algebra
components -w, and so solves the same equation as a position, gamma' =
gamma v with v the algebra components of the tangent in the concrete group
model.  Frames, positions and direction curves are all solved by one
fourth-order Magnus step (Iserles, Munthe-Kaas, Norsett & Zanna, Acta
Numerica 2000; Blanes, Casas, Oteo & Ros, Phys. Rep. 2009).  From the
algebra values v0, v_half, v1 at the two ends and the midpoint of a step,

    Omega = (h/6)(v0 + 4 v_half + v1) + lam (h^2/12) v0 x v1

(the bracket is lam * cross), and the step multiplies on the right by
exp(Omega): Rodrigues for rotations, the quaternion exponential for S^3.
The steps are computed and multiplied together a block of rows at a time:
the first row of a block is multiplied by the previous block's last
product, projected back onto the group (polar factor or unit norm), and a
log-depth (Hillis-Steele) prefix scan forms the products within the block
(Blelloch, CMU-CS-90-190, 1990).  So the start and one product per block
are projected, and the defects are checked over the steps and the finished
products.  For R^3 (lam = 0) the step is a translation and the positions
are a cumulative Simpson sum.  Tangents at half-steps come from cubic
Hermite interpolation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .liegroup import (SO3, GroupSpec, element_defect, identity_element,
                       quat_mul_rows, renormalize_element)
from .profiles import CurvatureProfile, require_frenet

# rows per block of the stepper and the scan: bounds their temporaries,
# which would otherwise add several (N, 3, 3) arrays to the peak memory of
# a run, and the products formed between two projections
_BLOCK = 2048


class FrameTrajectory(NamedTuple):
    """Frames (and optionally positions) sampled on a uniform s-grid."""

    s: np.ndarray
    t: np.ndarray        # (N, 3); integrated frames give views of one (N, 3, 3)
    n: np.ndarray
    b: np.ndarray
    kappa: np.ndarray    # (N,)
    tau: np.ndarray
    positions: Optional[np.ndarray] = None
    max_step_defect: float = 0.0    # of the one-step exponentials of frames and positions
    max_frame_defect: float = 0.0   # orthonormality defect of the frames
    max_element_defect: float = 0.0

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])


class PositionCurve(NamedTuple):
    """A position curve without frame data (direction curves, mates)."""

    s: np.ndarray
    positions: np.ndarray
    spec: GroupSpec
    max_step_defect: float = 0.0     # of the one-step exponentials
    max_element_defect: float = 0.0


# the most float64 samples numpy can size an array for: it reports a larger
# request as a ValueError, not as the MemoryError of a failed allocation
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


def _samples(s0: float, s1: float, h: float) -> float:
    """The sample count of the grid over [s0, s1] with step ~h (inf past the
    float range): the span rounds to a whole number of steps, at least one."""
    return max(1.0, float(np.rint((s1 - s0) / h))) + 1.0


def _grid(s0: float, s1: float, h: float) -> np.ndarray:
    if h <= 0:
        raise ValueError("step must be positive")
    if not s0 < s1:
        raise ValueError("empty integration range")
    n = _samples(s0, s1, h)
    if not n <= _MAX_SAMPLES:
        raise MemoryError(f"no array holds {n:.17g} samples")
    return np.linspace(s0, s1, int(n))


def _magnus_exponents(w: np.ndarray, w_mid: np.ndarray, h: float,
                      lam: float) -> np.ndarray:
    """Fourth-order Magnus exponent of every step, from algebra values at
    the nodes (N+1, 3) and the midpoints (N, 3); lam is the structure
    scalar of the bracket.  Each sum is formed in place, so that the
    exponents cost one array besides the bracket term."""
    w0, w1 = w[:-1], w[1:]
    omega = 4.0 * w_mid
    omega += w0
    omega += w1
    omega *= h / 6.0
    if lam:
        commutator = np.cross(w0, w1)
        commutator *= lam * h * h / 12.0
        omega += commutator
    return omega


def _exp_rotations(omega: np.ndarray, r: np.ndarray) -> None:
    """Write exp(hat(omega)) for every row into r (N, 3, 3), by Rodrigues.

    R = cos(th) I + a hat(omega) + b omega omega^T with a = sin(th)/th and
    b = (1 - cos(th))/th^2, written entry by entry so that no (N, 3, 3)
    temporary is formed; sinc keeps a and b exact as th -> 0."""
    x, y, z = omega[:, 0], omega[:, 1], omega[:, 2]
    theta = np.sqrt(x * x + y * y + z * z)
    a = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    cos = np.cos(theta)
    ax, ay, az = a * x, a * y, a * z
    bx, by, bz = b * x, b * y, b * z
    r[:, 0, 0] = cos + bx * x
    r[:, 0, 1] = bx * y - az
    r[:, 0, 2] = bx * z + ay
    r[:, 1, 0] = bx * y + az
    r[:, 1, 1] = cos + by * y
    r[:, 1, 2] = by * z - ax
    r[:, 2, 0] = bx * z - ay
    r[:, 2, 1] = by * z + ax
    r[:, 2, 2] = cos + bz * z


def _exp_quaternions(omega: np.ndarray, q: np.ndarray) -> None:
    """Write exp((0, omega)) = (cos th, sin(th)/th omega), th = |omega|,
    for every row into q (N, 4)."""
    theta = np.linalg.norm(omega, axis=1)
    q[:, 0] = np.cos(theta)
    q[:, 1:] = np.sinc(theta / np.pi)[:, None] * omega


def _integrate_group_positions(s: np.ndarray, field: np.ndarray,
                               field_mid: np.ndarray, spec: GroupSpec,
                               g0: Optional[np.ndarray]):
    """Magnus steps for gamma' = gamma v(s) given v at nodes and midpoints.

    Returns the positions and their defects: the largest distance from the
    group of a one-step exponential and of a position."""
    h = float(s[1] - s[0])
    g = renormalize_element(
        spec, identity_element(spec) if g0 is None else np.array(g0, dtype=float))
    out = np.empty((s.shape[0],) + g.shape)
    out[0] = g
    if spec.family == "r3":
        np.cumsum(_magnus_exponents(field, field_mid, h, spec.lam), axis=0, out=out[1:])
        out[1:] += g
        return out, (0.0, 0.0)
    exp, mul = ((_exp_quaternions, quat_mul_rows) if spec.family == "s3"
                else (_exp_rotations, np.matmul))
    step_defect = 0.0
    for lo in range(0, out.shape[0], _BLOCK):
        hi = lo + _BLOCK
        first = max(lo, 1)      # row k >= 1 holds the step from s[k - 1] to s[k]
        steps = out[first:hi]
        exp(_magnus_exponents(field[first - 1:hi], field_mid[first - 1:hi - 1],
                              h, spec.lam), steps)
        step_defect = max(step_defect, element_defect(spec, steps))
        block = out[lo:hi]
        if lo:
            block[0] = mul(renormalize_element(spec, out[lo - 1]), block[0])
        d = 1
        while d < block.shape[0]:
            block[d:] = mul(block[:-d], block[d:])
            d *= 2
    return out, (step_defect, element_defect(spec, out))


def integrate_frame(p: CurvatureProfile, spec: GroupSpec, s0: float, s1: float,
                    h: float, init: Optional[np.ndarray] = None) -> FrameTrajectory:
    """Solve the frame ODE over [s0, s1] with step ~h.

    ``init`` is the initial frame as a 3x3 matrix with rows T, N, B (the
    identity when None); its transpose is projected onto the rotations once.
    Spans that are not integer multiples of h round to the nearest step
    count.  Profile values at half-steps come from direct expression
    evaluation, or cubic interpolation for sampled profiles.
    """
    s = _grid(s0, s1, h)
    mid = 0.5 * (s[:-1] + s[1:])
    kappa, tau = p.kappa_at(s), p.tau_at(s)
    kappa_mid, tau_mid = p.kappa_at(mid), p.tau_at(mid)
    require_frenet(kappa, s)
    require_frenet(kappa_mid, mid)

    def algebra(kap, tor):
        return np.column_stack([tor - spec.tau_g, np.zeros_like(kap), kap])

    # the midpoint samples are freed before the integration allocates the frames
    field_mid = algebra(kappa_mid, tau_mid)
    del mid, kappa_mid, tau_mid
    g, (step_defect, frame_defect) = _integrate_group_positions(
        s, algebra(kappa, tau), field_mid, SO3,
        None if init is None else np.asarray(init, dtype=float).T)
    return FrameTrajectory(
        s=s, t=g[:, :, 0], n=g[:, :, 1], b=g[:, :, 2], kappa=kappa, tau=tau,
        max_step_defect=step_defect, max_frame_defect=frame_defect)


def _hermite_midpoints(field: np.ndarray, deriv: np.ndarray, h: float) -> np.ndarray:
    """Cubic Hermite value at every interval midpoint from node values and
    node derivatives, formed in place with one temporary besides the
    result.  O(h^4) accurate."""
    mid = field[:-1] + field[1:]
    mid *= 0.5
    slope = deriv[:-1] - deriv[1:]
    slope *= h / 8.0
    mid += slope
    return mid


def reconstruct_position(traj: FrameTrajectory, spec: GroupSpec,
                         g0: Optional[np.ndarray] = None) -> FrameTrajectory:
    """Integrate gamma' = dL_gamma(t(s)) along the trajectory's own tangent."""
    t_mid = _hermite_midpoints(traj.t, traj.kappa[:, None] * traj.n, traj.h)
    positions, (step_defect, drift) = _integrate_group_positions(
        traj.s, traj.t, t_mid, spec, g0)
    return traj._replace(positions=positions, max_element_defect=drift,
                         max_step_defect=max(traj.max_step_defect, step_defect))


def integrate_direction_curve(source: FrameTrajectory, which: str,
                              spec: GroupSpec) -> PositionCurve:
    """Position curve from the identity whose left-invariant tangent
    components equal the source's principal normal (natural mate) or
    binormal (conjugate mate)."""
    m = source.tau - spec.tau_g
    if which == "principal_normal":
        field = source.n
        deriv = -source.kappa[:, None] * source.t + m[:, None] * source.b
    elif which == "binormal":
        field = source.b
        deriv = -m[:, None] * source.n
    else:
        raise ValueError("which must be 'principal_normal' or 'binormal'")
    field_mid = _hermite_midpoints(field, deriv, source.h)
    del m, deriv    # freed before the integration allocates the positions
    positions, (step_defect, drift) = _integrate_group_positions(
        source.s, field, field_mid, spec, None)
    return PositionCurve(s=source.s, positions=positions, spec=spec,
                         max_step_defect=step_defect, max_element_defect=drift)
