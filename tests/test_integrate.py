import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from curvemates.analysis import estimate_apparatus
from curvemates.integrate import (FrameTrajectory, PositionCurve, _hermite_midpoints,
                                  _integrate_group_positions,
                                  integrate_direction_curve, integrate_frame,
                                  reconstruct_position)
from curvemates.liegroup import R3, S3, SO3, element_defect
from curvemates.profiles import CurvatureProfile, FrenetViolation

from oracles import hat


def constant_coefficient_frame(kappa, m, s):
    """Matrix-exponential oracle for the constant-coefficient frame system."""
    k = np.array([[0.0, kappa, 0.0], [-kappa, 0.0, m], [0.0, -m, 0.0]])
    return expm(s * k)


def test_plane_rotation_closed_form():
    # kappa = 1, tau = tau_G: B is constant and T rotates in a plane
    for spec, tau in ((R3, "0"), (S3, "1")):
        p = CurvatureProfile.from_expressions("1", tau, (0, 2 * np.pi))
        traj = integrate_frame(p, spec, 0, 2 * np.pi, 1e-3)
        s = traj.s
        np.testing.assert_allclose(
            traj.t, np.stack([np.cos(s), np.sin(s), 0 * s], axis=1), atol=1e-9)
        np.testing.assert_allclose(
            traj.n, np.stack([-np.sin(s), np.cos(s), 0 * s], axis=1), atol=1e-9)
        np.testing.assert_allclose(traj.b, np.tile([0, 0, 1.0], (len(s), 1)),
                                   atol=1e-9)


def test_skew_axis_rotation_returns_to_start():
    # kappa = 1, tau - tau_G = 1: rotation about (1,0,1)/sqrt(2) at rate sqrt(2)
    period = 2 * np.pi / np.sqrt(2)
    p = CurvatureProfile.from_expressions("1", "2", (0, period))
    traj = integrate_frame(p, S3, 0, period, 1e-3)
    end = np.vstack([traj.t[-1], traj.n[-1], traj.b[-1]])
    np.testing.assert_allclose(end, np.eye(3), atol=1e-8)
    oracle = constant_coefficient_frame(1.0, 1.0, traj.s[-1])
    np.testing.assert_allclose(end, oracle @ np.eye(3), atol=1e-8)


def test_orthonormality_defect(profiles):
    traj = integrate_frame(profiles["slant_helix"], R3, -1.5, 1.5, 1e-3)
    assert traj.max_frame_defect <= 1e-10


def test_magnus_exact_on_constant_coefficients():
    # with constant kappa and tau every Magnus step is the exact flow, so
    # the endpoint matches the matrix exponential at any step
    p = CurvatureProfile.from_expressions("1", "2", (0, 2.0))
    oracle = constant_coefficient_frame(1.0, 1.0, 2.0)
    for h in (0.2, 0.05, 0.025):
        traj = integrate_frame(p, S3, 0, 2.0, h)
        end = np.vstack([traj.t[-1], traj.n[-1], traj.b[-1]])
        assert np.max(np.abs(end - oracle)) <= 1e-12


def fine_step_frame(kappa, m, s1):
    """Frame at s1 from an adaptive 8th-order Runge-Kutta solve of F' = K F."""
    def rhs(s, y):
        k, mm = kappa(s), m(s)
        km = np.array([[0.0, k, 0.0], [-k, 0.0, mm], [0.0, -mm, 0.0]])
        return (km @ y.reshape(3, 3)).ravel()

    sol = solve_ivp(rhs, (0.0, s1), np.eye(3).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-14)
    return sol.y[:, -1].reshape(3, 3)


def test_magnus_order_4_on_variable_coefficients():
    # the error ratio is 16 as h halves; with the commutator sign flipped
    # the method drops to order 2 (ratio 4)
    p = CurvatureProfile.from_expressions("3*cos(s)", "3*sin(s)", (0, 1))
    ref = fine_step_frame(lambda s: 3 * np.cos(s), lambda s: 3 * np.sin(s), 1.0)
    errs = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate_frame(p, R3, 0, 1, h)
        errs.append(np.max(np.abs(np.vstack([traj.t[-1], traj.n[-1], traj.b[-1]]) - ref)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14 <= coarse / fine <= 18


def test_frames_orthonormal_without_projection():
    # no step is projected back, only the start and one product per
    # 2048-row block: over 30000 steps every frame, and every one-step
    # exponential, is orthonormal and right-handed to round-off
    p = CurvatureProfile.from_expressions("3*cos(s)", "3*sin(s)", (-1.5, 1.5))
    traj = integrate_frame(p, R3, -1.5, 1.5, 1e-4)
    frames = np.stack([traj.t, traj.n, traj.b], axis=1)
    gram = np.einsum("nij,nkj->nik", frames, frames)
    defect = float(np.max(np.abs(gram - np.eye(3))))
    assert defect <= 1e-12
    assert np.max(np.abs(np.cross(traj.t, traj.n) - traj.b)) <= 1e-12
    assert traj.max_frame_defect == pytest.approx(defect, abs=1e-15)
    assert traj.max_step_defect <= 1e-12


@pytest.mark.parametrize("spec", [SO3, S3], ids=["so3", "s3"])
def test_defects_of_long_grids_stay_bounded(spec):
    # the product carried into each 2048-row block is projected back onto
    # the group, so frame and element defects do not grow with the step
    # count: over 60000 steps they stay within 1e-12 (at most 1.9e-13 here)
    p = CurvatureProfile.from_expressions("3", "2*s", (-3, 3))
    traj = reconstruct_position(integrate_frame(p, spec, -3, 3, 1e-4), spec)
    assert len(traj.s) == 60001
    assert traj.max_frame_defect <= 1e-12
    assert traj.max_element_defect <= 1e-12
    assert traj.max_step_defect <= 1e-15


@pytest.mark.parametrize("spec", [SO3, S3], ids=["so3", "s3"])
def test_defects_of_demo_profiles_stay_below_1e_12(spec, profiles):
    # criterion 7's bound at every step down to h = 5e-5 (up to 120001
    # rows): frames, positions and both direction curves of each demo
    # profile stay within 1e-12 of the group (at most 3.0e-13 here)
    for h in (1e-3, 1e-4, 5e-5):
        for name, p in profiles.items():
            traj = reconstruct_position(
                integrate_frame(p, spec, p.s_min, p.s_max, h), spec)
            defects = [traj.max_frame_defect, traj.max_element_defect]
            for which in ("principal_normal", "binormal"):
                curve = integrate_direction_curve(traj, which, spec)
                assert curve.max_element_defect == element_defect(spec, curve.positions)
                defects += [curve.max_element_defect, curve.max_step_defect]
            assert max(defects) <= 1e-12, (name, h, defects)
            assert traj.max_step_defect <= 1e-15, (name, h)


def test_frenet_violation_detected():
    p = CurvatureProfile.from_expressions("-1", "0", (0, 1))
    with pytest.raises(FrenetViolation):
        integrate_frame(p, R3, 0, 1, 1e-2)


def test_start_with_no_nearby_group_element_raises():
    # a reflection is no frame, 0 no unit quaternion and a non-finite
    # translation no point: none is taken as the start
    p = CurvatureProfile.from_expressions("2", "1", (0, 1))
    with pytest.raises(ValueError):
        integrate_frame(p, SO3, 0, 1, 0.1, np.diag([1.0, 1.0, -1.0]))
    traj = integrate_frame(p, S3, 0, 1, 0.1)
    with pytest.raises(ValueError):
        reconstruct_position(traj, S3, np.zeros(4))
    traj = reconstruct_position(integrate_frame(p, R3, 0, 1, 0.1), R3)
    for g0 in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            reconstruct_position(traj, R3, np.array(g0))


def test_reconstruct_circle():
    p = CurvatureProfile.from_expressions("1", "0", (0, 2 * np.pi))
    traj = integrate_frame(p, R3, 0, 2 * np.pi, 1e-3)
    traj = reconstruct_position(traj, R3, np.array([0.0, -1.0, 0.0]))
    s = traj.s
    exact = np.stack([np.sin(s), -np.cos(s), 0 * s], axis=1)
    np.testing.assert_allclose(traj.positions, exact, atol=1e-9)


def test_one_parameter_subgroup_on_s3():
    # constant tangent e1: gamma(s) = (cos s, sin s, 0, 0), period 2*pi
    n = 2001
    s = np.linspace(0, 2 * np.pi, n)
    traj = FrameTrajectory(
        s=s, t=np.tile([1.0, 0, 0], (n, 1)), n=np.tile([0, 1.0, 0], (n, 1)),
        b=np.tile([0, 0, 1.0], (n, 1)), kappa=np.zeros(n), tau=np.ones(n))
    traj = reconstruct_position(traj, S3)
    exact = np.stack([np.cos(s), np.sin(s), 0 * s, 0 * s], axis=1)
    np.testing.assert_allclose(traj.positions, exact, atol=1e-9)
    np.testing.assert_allclose(traj.positions[-1], traj.positions[0], atol=1e-9)
    norms = np.linalg.norm(traj.positions, axis=1)
    assert np.max(np.abs(norms - 1)) <= 1e-12


def test_group_manifold_drift(profiles):
    p = CurvatureProfile.from_expressions("1", "2", (0, 3))
    for spec, tol in ((S3, 1e-12), (SO3, 1e-9)):
        traj = reconstruct_position(integrate_frame(p, spec, 0, 3, 1e-3), spec)
        assert traj.max_element_defect <= tol
        worst = max(element_defect(spec, g) for g in traj.positions[::100])
        assert worst <= tol


def rotation_of(q):
    """Rotation matrices of unit quaternions (scalar-first rows)."""
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def test_double_cover_maps_s3_path_onto_so3_path():
    # q -> R(q) is a homomorphism S3 -> SO(3) whose differential doubles
    # the algebra components, so the S3 path of v maps onto the SO(3) path
    # of 2v started at the image of the same initial element
    p = CurvatureProfile.from_expressions("3*cos(s)", "3*sin(s)", (-1.5, 1.5))
    traj = integrate_frame(p, S3, -1.5, 1.5, 1e-3)
    assert len(traj.s) == 3001
    v = traj.t
    v_mid = _hermite_midpoints(v, traj.kappa[:, None] * traj.n, traj.h)
    q0 = np.array([0.3, -0.5, 0.6, 0.2])
    q0 /= np.linalg.norm(q0)
    quats, _ = _integrate_group_positions(traj.s, v, v_mid, S3, q0)
    rots, _ = _integrate_group_positions(traj.s, 2 * v, 2 * v_mid, SO3,
                                         rotation_of(q0[None])[0])
    assert np.max(np.abs(rotation_of(quats) - rots)) <= 1e-10


@pytest.mark.parametrize("name", ["slant_helix", "salkowski", "rectifying"])
def test_double_cover_halves_the_estimated_apparatus(name, profiles):
    # under q -> R(q) the S3 curve of (kappa, tau) runs at speed 2 in SO(3);
    # on the grid s -> 2s it is the unit-speed curve of (kappa/2, tau/2),
    # and the group torsion of SO(3) is 1/2.  The estimator reads only the
    # rotation matrices, so it shares no formula with the quaternion path
    p = profiles[name]
    traj = reconstruct_position(integrate_frame(p, S3, p.s_min, p.s_max, 1e-3), S3)
    rots = PositionCurve(s=2 * traj.s, positions=rotation_of(traj.positions), spec=SO3)
    est = estimate_apparatus(rots, SO3)
    v = est.valid
    assert np.max(np.abs(est.kappa[v] - traj.kappa[v] / 2)) <= 1e-6
    assert np.max(np.abs(est.tau[v] - traj.tau[v] / 2)) <= 1e-6
    assert np.max(np.abs(est.tau_g[v] - 0.5)) <= 1e-12


def test_natural_mate_of_circle_is_circle():
    p = CurvatureProfile.from_expressions("1", "0", (0, 2 * np.pi))
    traj = integrate_frame(p, R3, 0, 2 * np.pi, 1e-3)
    mate = integrate_direction_curve(traj, "principal_normal", R3)
    # the unit circle through (1, 0, 0), translated to start at the origin
    exact = np.stack([np.cos(mate.s) - 1, np.sin(mate.s), 0 * mate.s], axis=1)
    np.testing.assert_allclose(mate.positions, exact, atol=1e-9)


def test_binormal_curve_of_planar_curve_is_straight():
    p = CurvatureProfile.from_expressions("2+sin(s)", "0", (0, 3))
    traj = integrate_frame(p, R3, 0, 3, 1e-3)
    mate = integrate_direction_curve(traj, "binormal", R3)
    steps = np.diff(mate.positions, axis=0)
    assert np.max(np.abs(steps - steps[0])) <= 1e-12


def test_round_trip_estimation_all_profiles(profiles):
    # synthesize -> reconstruct -> estimate closes to 1e-4 (scale-protected
    # relative error) at h = 1e-3
    for name, p in profiles.items():
        traj = integrate_frame(p, R3, p.s_min, p.s_max, 1e-3)
        traj = reconstruct_position(traj, R3)
        est = estimate_apparatus(traj, R3)
        v = est.valid
        k_true = np.asarray(p.kappa_at(est.s[v]))
        t_true = np.asarray(p.tau_at(est.s[v]))
        k_err = np.max(np.abs(est.kappa[v] - k_true) / (1 + np.abs(k_true)))
        t_err = np.max(np.abs(est.tau[v] - t_true) / (1 + np.abs(t_true)))
        assert k_err <= 1e-4, name
        assert t_err <= 1e-4, name


def test_grid_step_matches_request():
    p = CurvatureProfile.from_expressions("1", "0", (0, 1))
    traj = integrate_frame(p, R3, 0, 1, 1e-3)
    steps = np.diff(traj.s)
    assert np.max(np.abs(steps - 1e-3)) <= 1e-15
    assert len(traj.s) == 1001


def _quat_product(p, q):
    """Hamilton product of scalar-first quaternions, from the 4x4 matrix of
    left multiplication by p."""
    w, x, y, z = p
    left = np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])
    return left @ q


def _quat_exp(v):
    th = np.linalg.norm(v)
    return np.concatenate(([np.cos(th)], np.sin(th) * v / th)) if th else np.eye(4)[0]


@pytest.mark.parametrize("spec", [SO3, S3], ids=["so3", "s3"])
def test_helix_matches_closed_form(spec):
    # constant kappa and tau: the Darboux vector D = (tau - tau_G) T0 + kappa B0
    # is fixed in the algebra and gamma(s) = gamma0 exp(s (T0 + D/lam))
    # exp(-s D/lam), and the frame is F(s) = expm(s hat(w)) F0 with
    # w = -(tau - tau_G, 0, kappa), with no integrator involved
    kappa, tau = 2.0, 1.5
    rot = expm(hat(np.array([0.3, -0.7, 0.4])))
    t0, b0 = rot[0], rot[2]
    d = (tau - spec.tau_g) * t0 + kappa * b0
    w = -np.array([tau - spec.tau_g, 0.0, kappa])
    if spec is SO3:
        g0 = expm(hat(np.array([-0.2, 0.5, 0.1])))

        def exact(s):
            return g0 @ expm(hat(s * (t0 + d / spec.lam))) @ expm(hat(-s * d / spec.lam))
    else:
        g0 = _quat_exp(np.array([-0.2, 0.5, 0.1]))

        def exact(s):
            return _quat_product(_quat_product(g0, _quat_exp(s * (t0 + d / spec.lam))),
                                 _quat_exp(-s * d / spec.lam))

    p = CurvatureProfile.from_expressions(str(kappa), str(tau), (0, 4))
    errors, frame_errors = [], []
    for h in (1e-2, 1e-3, 1e-4):
        traj = reconstruct_position(integrate_frame(p, spec, 0, 4, h, rot), spec, g0)
        # h = 1e-4 gives 40001 rows, 19 blocks joined by projected carries;
        # every 97th row, counted from the end, keeps the references cheap
        rows = np.arange(len(traj.s) - 1, -1, -97 if h < 1e-3 else -1)
        ref = np.array([exact(s) for s in traj.s[rows]])
        errors.append(float(np.max(np.abs(traj.positions[rows] - ref))))
        frames = np.stack([traj.t[rows], traj.n[rows], traj.b[rows]], axis=1)
        frame_ref = np.array([expm(s * hat(w)) @ rot for s in traj.s[rows]])
        frame_errors.append(float(np.max(np.abs(frames - frame_ref))))
    # measured positions: 2.5e-9, 2.7e-13, 1.8e-13 (so3); 2.9e-9, 2.0e-13,
    # 2.1e-13 (s3); order 4 until round-off.  Every Magnus step of a
    # constant-coefficient frame is exact, so the frames carry round-off
    # only: at most 1.5e-13 (so3) and 1.7e-13 (s3) at every h
    assert errors[0] <= 1e-8
    assert errors[1] <= 1e-11
    assert errors[2] <= 5e-13
    assert errors[0] / errors[1] >= 5e3
    assert max(frame_errors) <= 5e-13
