"""Reference implementations that the tests check the library against.

None of these is called by a command.  Each is written from the paper's
definitions, apart from the library code it checks, so that the two cannot
drift together.
"""

import numpy as np

from curvemates.analysis import estimate_apparatus
from curvemates.integrate import integrate_frame, reconstruct_position
from curvemates.liegroup import bracket, cumulative_quadrature
from curvemates.profiles import CurvatureProfile


def hat(v):
    """The skew matrix with hat(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def left_translate_tangent(g, v, spec):
    """Algebra components v pushed to the ambient tangent space at g: v, g hat(v),
    or the quaternion product g (0, v) by the left-multiplication matrix of g."""
    if spec.family == "r3":
        return np.asarray(v, dtype=float)
    if spec.family == "so3":
        return g @ hat(v)
    w, x, y, z = g
    return np.array([[-x, -y, -z], [w, -z, y], [z, w, -x], [-y, x, w]]) @ v


def left_translate(g, x, spec):
    """The group product g x of g with one element or a stack of them: a sum
    in R^3, a matrix product in SO(3), and in S^3 the quaternion x (scalar
    first) multiplied by the left-multiplication matrix of g."""
    if spec.family == "r3":
        return g + x
    if spec.family == "so3":
        return g @ x
    w, a, b, c = g
    return x @ np.array([[w, -a, -b, -c], [a, w, -c, b], [b, c, w, -a], [c, -b, a, w]]).T


def covariant_derivative(u, u_prime, t, spec):
    """u' + (1/2)[t, u] along a curve with tangent t."""
    return np.asarray(u_prime) + 0.5 * bracket(t, u, spec)


def lie_group_torsion(frame, spec):
    """(1/2)<[T, N], B> of a frame given as a 3x3 matrix with rows T, N, B,
    which is tau_G for any right-handed orthonormal frame."""
    t, n, b = frame
    return 0.5 * float(np.dot(bracket(t, n, spec), b))


def left_shift(s, tangents, alpha0):
    """alpha0 plus the integral of the tangent rows over a uniform grid s."""
    return np.asarray(alpha0, dtype=float) + cumulative_quadrature(tangents, s[1] - s[0])


def sphere_fit(points):
    """(center, radius, rms) of the least-squares sphere through the rows of
    points, from the linear form 2 p.c + (r^2 - |c|^2) = |p|^2."""
    a = np.column_stack([2.0 * points, np.ones(len(points))])
    sol = np.linalg.lstsq(a, np.sum(points * points, axis=1), rcond=None)[0]
    center = sol[:3]
    radius = float(np.sqrt(sol[3] + center @ center))
    rms = float(np.sqrt(np.mean((np.linalg.norm(points - center, axis=1) - radius) ** 2)))
    return center, radius, rms


def mate_frames(parent, spec, kind, s):
    """Frame rows (T, N, B) at s of the natural or conjugate mate of parent
    in the group spec, in parent-frame coordinates: the natural mate's
    (N, Omega*/omega, Omega/omega) and the conjugate mate's (B, -sign N,
    sign T), with the sign of tau - tau_G at s (NaN where it vanishes)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    zero, one = np.zeros_like(s), np.ones_like(s)
    kappa = np.broadcast_to(parent.kappa_at(s), s.shape)
    m = np.broadcast_to(parent.tau_at(s), s.shape) - spec.tau_g
    if kind == "natural":
        w = np.hypot(m, kappa)
        return (np.stack([zero, one, zero], axis=1),
                np.stack([-kappa / w, zero, m / w], axis=1),
                np.stack([m / w, zero, kappa / w], axis=1))
    sign = np.where(m == 0.0, np.nan, np.sign(m))
    return (np.stack([zero, zero, one], axis=1),
            np.stack([zero, -sign, zero], axis=1),
            np.stack([sign, zero, zero], axis=1))


def estimated_profile(p, spec, h):
    """Integrate p at step h, reconstruct positions and estimate the
    apparatus; returns the estimate on its valid span as a sampled profile,
    and the estimate."""
    traj = integrate_frame(p, spec, p.s_min, p.s_max, h)
    est = estimate_apparatus(reconstruct_position(traj, spec), spec)
    v = est.valid
    return CurvatureProfile.from_samples(est.s[v], est.kappa[v], est.tau[v]), est
