from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import polar

from curvemates.liegroup import (R3, S3, SO3, GroupSpec, _sg_coeffs, bracket,
                                 cumulative_quadrature, det3, element_defect,
                                 group_spec, identity_element,
                                 pull_back_tangent, quat_mul, quat_mul_rows,
                                 renormalize_element, sg_derivative, vee)

from oracles import (covariant_derivative, hat, left_shift,
                     left_translate_tangent, lie_group_torsion)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def quat_commutator(u, v):
    """Independent oracle: pure-quaternion commutator uv - vu."""
    qu = np.concatenate(([0.0], u))
    qv = np.concatenate(([0.0], v))

    def mul(p, q):
        w = p[0] * q[0] - p[1:] @ q[1:]
        vec = p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:])
        return np.concatenate(([w], vec))

    return (mul(qu, qv) - mul(qv, qu))[1:]


def so3_commutator(u, v):
    """Independent oracle: commutator of the hat matrices, mapped back."""
    return vee(hat(u) @ hat(v) - hat(v) @ hat(u))


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_group_spec_torsions():
    assert R3.tau_g == 0.0
    assert SO3.tau_g == 0.5
    assert S3.tau_g == 1.0
    assert (R3.lam, SO3.lam, group_spec("s3").lam) == (0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        group_spec("su2")
    with pytest.raises(ValueError):
        GroupSpec("su2")


def test_bracket_examples():
    np.testing.assert_allclose(bracket(E1, E2, R3), np.zeros(3))
    np.testing.assert_allclose(bracket(E1, E2, S3), quat_commutator(E1, E2))
    np.testing.assert_allclose(bracket(E1, E2, S3), [0, 0, 2])
    np.testing.assert_allclose(bracket(E1, E2, SO3), so3_commutator(E1, E2))
    np.testing.assert_allclose(bracket(E1, E2, SO3), [0, 0, 1])


def test_bracket_matches_concrete_commutators_on_random_vectors():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u, v = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(bracket(u, v, S3), quat_commutator(u, v),
                                   atol=1e-12)
        np.testing.assert_allclose(bracket(u, v, SO3), so3_commutator(u, v),
                                   atol=1e-12)


def test_covariant_derivative_examples():
    out = covariant_derivative(E2, np.zeros(3), E1, S3)
    np.testing.assert_allclose(out, 0.5 * quat_commutator(E1, E2), atol=1e-15)
    np.testing.assert_allclose(out, [0, 0, 1])
    rng = np.random.default_rng(0)
    u, up = rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_allclose(covariant_derivative(u, up, rng.normal(size=3), R3), up)
    for spec in (R3, SO3, S3):
        np.testing.assert_allclose(
            covariant_derivative(E1, np.zeros(3), E1, spec), np.zeros(3))


def test_lie_group_torsion_identity_frame():
    f = np.eye(3)
    assert lie_group_torsion(f, R3) == 0.0
    assert lie_group_torsion(f, S3) == pytest.approx(1.0, abs=1e-15)
    assert lie_group_torsion(f, SO3) == pytest.approx(0.5, abs=1e-15)


def test_lie_group_torsion_rotation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rot = random_rotation(rng)
        assert lie_group_torsion(rot, SO3) == pytest.approx(0.5, abs=1e-12)
        assert lie_group_torsion(rot, S3) == pytest.approx(1.0, abs=1e-12)


def test_adapted_frame_bracket_identities():
    # [t,n] = 2 tau_G b, [n,b] = 2 tau_G t, [t,b] = -2 tau_G n; the last is
    # forced by ad-invariance (the sign is sometimes misquoted with [b,t])
    rng = np.random.default_rng(5)
    for spec in (R3, SO3, S3):
        for _ in range(25):
            rot = random_rotation(rng)
            t, n, b = rot
            tg = spec.tau_g
            np.testing.assert_allclose(bracket(t, n, spec), 2 * tg * b, atol=1e-12)
            np.testing.assert_allclose(bracket(n, b, spec), 2 * tg * t, atol=1e-12)
            np.testing.assert_allclose(bracket(t, b, spec), -2 * tg * n, atol=1e-12)


three_vec = st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                     min_size=3, max_size=3).map(np.array)


@settings(max_examples=80, deadline=None)
@given(three_vec, three_vec)
def test_bracket_antisymmetry(u, v):
    for spec in (R3, SO3, S3):
        np.testing.assert_array_equal(bracket(u, v, spec), -bracket(v, u, spec))


@settings(max_examples=80, deadline=None)
@given(three_vec, three_vec, three_vec)
def test_ad_invariance(u, v, w):
    size = 1 + np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    for spec in (SO3, S3):
        lhs = np.dot(u, bracket(v, w, spec))
        rhs = np.dot(bracket(u, v, spec), w)
        assert abs(lhs - rhs) <= 1e-12 * size


def test_left_translate_examples():
    for spec in (R3, SO3, S3):
        g = identity_element(spec)
        out = left_translate_tangent(g, E1, spec)
        np.testing.assert_allclose(pull_back_tangent(g, out, spec), E1, atol=1e-15)
    # unit quaternion k times i equals j
    k = np.array([0.0, 0.0, 0.0, 1.0])
    out = left_translate_tangent(k, E1, S3)
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        left_translate_tangent(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2, 3]), R3),
        [1, 2, 3])


def test_pull_back_inverts_left_translate():
    rng = np.random.default_rng(9)
    for spec in (SO3, S3):
        for _ in range(20):
            if spec.family == "s3":
                g = rng.normal(size=4)
                g /= np.linalg.norm(g)
            else:
                g = random_rotation(rng)
            v = rng.normal(size=3)
            amb = left_translate_tangent(g, v, spec)
            np.testing.assert_allclose(pull_back_tangent(g, amb, spec), v,
                                       atol=1e-12)


def test_renormalize_and_defect():
    rng = np.random.default_rng(2)
    q = np.array([1.0, 1e-4, -2e-4, 3e-4]) * (1 + 1e-5)
    q2 = renormalize_element(S3, q)
    assert element_defect(S3, q2) <= 1e-12
    m = random_rotation(rng) + 1e-6 * rng.normal(size=(3, 3))
    m2 = renormalize_element(SO3, m)
    assert element_defect(SO3, m2) <= 1e-9
    assert np.linalg.det(m2) > 0


@pytest.mark.parametrize("spec,g", [
    (SO3, np.diag([1.0, 1.0, -1.0])),
    (SO3, np.zeros((3, 3))),
    (SO3, np.where(np.eye(3) > 0, np.nan, 0.0)),
    (S3, np.zeros(4)),
    (S3, np.array([np.inf, 0.0, 0.0, 0.0])),
    (S3, np.array([np.nan, 1.0, 0.0, 0.0])),
], ids=["so3-reflection", "so3-zero", "so3-nan", "s3-zero", "s3-inf", "s3-nan"])
def test_renormalize_rejects_an_element_with_no_nearest_group_element(spec, g):
    with pytest.raises(ValueError):
        renormalize_element(spec, g)


def test_det3_matches_numpy_det():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
        assert det3(m) == pytest.approx(np.linalg.det(m), rel=1e-12, abs=0.0)
    assert det3(np.diag([1.0, 1.0, -1.0])) == -1.0
    assert np.isnan(det3(np.where(np.eye(3) > 0, np.nan, 0.0)))


def test_projection_matches_the_polar_factor():
    # the closed form against scipy's SVD-based polar decomposition, near
    # rotations and on matrices far from any (scaled, sheared), det > 0
    rng = np.random.default_rng(5)
    for trial in range(400):
        u, _, vt = np.linalg.svd(rng.normal(size=(3, 3)))
        if trial % 2:
            m = u @ vt + 10.0 ** rng.uniform(-12, -3) * rng.normal(size=(3, 3))
        else:
            m = 10.0 ** rng.uniform(-3, 3) * (u @ np.diag(10.0 ** rng.uniform(-0.5, 0.5, 3)) @ vt)
        if np.linalg.det(m) < 0:
            m = -m
        r = renormalize_element(SO3, m)
        np.testing.assert_allclose(r, polar(m)[0], rtol=0, atol=1e-14)
        assert element_defect(SO3, r) <= 1e-15 and det3(r) > 0


@pytest.mark.parametrize("scale", [1e-100, 1e-30, 1e-3, 1e3, 1e30, 1e100])
def test_projection_ignores_the_scale(scale):
    m = np.array([[0.0, 1.0, 0.2], [-1.0, 0.1, 0.0], [0.0, 0.3, 1.0]])
    np.testing.assert_allclose(renormalize_element(SO3, scale * m), polar(m)[0],
                               rtol=0, atol=1e-14)


def test_projection_keeps_the_identity_bit_for_bit():
    eye = np.eye(3)
    assert renormalize_element(SO3, eye).tobytes() == eye.tobytes()


@pytest.mark.parametrize("g", [
    -np.eye(3),
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]),
    np.where(np.eye(3) > 0, np.inf, 0.0),
], ids=["det-minus-one", "singular", "inf"])
def test_projection_rejects_det_at_most_zero_and_non_finite_entries(g):
    with pytest.raises(ValueError, match="no nearest rotation"):
        renormalize_element(SO3, g)


def exact_sg_weights(window, offset):
    """Derivative at 0 of the least-squares quartic through the samples at
    x_i = i - offset, as exact rationals: the normal equations V^T V a = e_1
    solved by Gauss-Jordan elimination, then w_i = sum_j a_j x_i^j."""
    xs = [Fraction(i - offset) for i in range(window)]
    rows = [[sum(x ** (i + j) for x in xs) for j in range(5)] + [Fraction(i == 1)]
            for i in range(5)]
    for c in range(5):
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(5):
            if r != c:
                rows[r] = [v - rows[r][c] * pivot for v, pivot in zip(rows[r], rows[c])]
    a = [row[5] for row in rows]
    return [sum(a[j] * x ** j for j in range(5)) for x in xs]


@pytest.mark.parametrize("window", [5, 11, 101])
def test_sg_weights_match_exact_rational_weights(window):
    for offset in range(window):
        exact = exact_sg_weights(window, offset)
        scale = max(abs(v) for v in exact)
        got = _sg_coeffs(window, offset)
        err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
        assert err <= Fraction(1, 10 ** 15) * scale, (window, offset, float(err / scale))


@pytest.mark.parametrize("window", [5, 11, 101])
def test_sg_derivative_gives_the_same_bits_for_any_layout(window):
    rng = np.random.default_rng(window)
    f = np.cumsum(rng.normal(size=(301, 9)), axis=0)
    want = sg_derivative(f, 0.01, window)
    for g in (np.asfortranarray(f), np.repeat(f, 2, axis=1)[:, ::2]):
        assert not g.flags.c_contiguous
        assert sg_derivative(g, 0.01, window).tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [5, 11, 101])
def test_sg_derivative_differentiates_quartics_in_every_row(window):
    # 241 samples: the one-sided rows at both ends and the centred rows
    P = np.polynomial.polynomial
    s = np.linspace(-1.0, 2.0, 241)
    c = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    f = np.stack([P.polyval(s, c), P.polyval(s, -2.0 * c)], axis=1)
    df = np.stack([P.polyval(s, P.polyder(c)), P.polyval(s, P.polyder(-2.0 * c))], axis=1)
    np.testing.assert_allclose(sg_derivative(f, s[1] - s[0], window), df, rtol=0, atol=1e-11)


def test_left_shift_line():
    s = np.linspace(0, 2, 101)
    d = np.array([0.5, -0.25, 1.0])
    t = np.tile(d, (101, 1))
    alpha = left_shift(s, t, np.zeros(3))
    np.testing.assert_allclose(alpha, s[:, None] * d, atol=1e-13)


def test_left_shift_circle_on_unit_sphere():
    s = np.linspace(0, 2 * np.pi, 201)
    t = np.stack([-np.sin(s), np.cos(s), np.zeros_like(s)], axis=1)
    alpha = left_shift(s, t, np.array([1.0, 0.0, 0.0]))
    gamma = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=1)
    np.testing.assert_allclose(alpha, gamma, atol=1e-6)
    np.testing.assert_allclose(np.linalg.norm(alpha, axis=1), 1.0, atol=1e-6)


def test_left_shift_constant_tangent():
    s = np.linspace(0, 3, 61)
    t = np.tile(E1, (61, 1))
    alpha = left_shift(s, t, np.zeros(3))
    np.testing.assert_allclose(alpha, np.stack([s, 0 * s, 0 * s], axis=1),
                               atol=1e-13)


def test_cumulative_quadrature_fourth_order():
    errs = []
    for n in (101, 201):
        s = np.linspace(0, 2, n)
        f = np.cos(3 * s) + s ** 2
        exact = np.sin(3 * s) / 3 + s ** 3 / 3
        errs.append(np.max(np.abs(cumulative_quadrature(f, s[1] - s[0]) - exact)))
    assert errs[0] / errs[1] > 12  # fourth order: ~16x per halving


def test_cumulative_quadrature_on_three_samples_is_exact_for_s_squared():
    # the shortest grid: Simpson's rule at the end, the quadratic through
    # the three samples on the first interval
    s = np.array([0.5, 0.75, 1.0])
    np.testing.assert_allclose(cumulative_quadrature(s ** 2, 0.25),
                               (s ** 3 - 0.125) / 3.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("window", [5, 11])
def test_sg_derivative_is_exact_for_quartics_at_every_sample(window):
    # the one-sided windows at both ends too, column by column
    P = np.polynomial.polynomial
    s = np.linspace(-1.0, 2.0, 31)
    c = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    f = np.stack([P.polyval(s, c), P.polyval(s, -2.0 * c)], axis=1)
    df = np.stack([P.polyval(s, P.polyder(c)), P.polyval(s, P.polyder(-2.0 * c))], axis=1)
    np.testing.assert_allclose(sg_derivative(f, s[1] - s[0], window), df, atol=1e-9)


@pytest.mark.parametrize("window", [1, 3, 6])
def test_sg_derivative_rejects_a_window_that_fits_no_quartic(window):
    # below 5 points the quartic fit is underdetermined: window 3 gave half
    # the derivative of s^2, window 1 zero
    with pytest.raises(ValueError, match="odd and at least 5"):
        sg_derivative(np.linspace(0.0, 1.0, 11) ** 2, 0.1, window)


def test_quat_mul_matches_matrix_representation():
    # sanity for the Hamilton product helper used by S3 translation
    rng = np.random.default_rng(4)
    for _ in range(10):
        p, q = rng.normal(size=4), rng.normal(size=4)
        w = p[0] * q[0] - p[1:] @ q[1:]
        out = quat_mul(p, q)
        assert out[0] == pytest.approx(w, rel=1e-12, abs=1e-12)
        assert np.linalg.norm(quat_mul(p, q)) == pytest.approx(
            np.linalg.norm(p) * np.linalg.norm(q), rel=1e-12)
    p, q = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
    rows = quat_mul_rows(p, q)
    for a, b, out in zip(p, q, rows):
        np.testing.assert_allclose(out, quat_mul(a, b), rtol=1e-14, atol=1e-14)
