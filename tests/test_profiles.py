import warnings

import numpy as np
import pytest

from curvemates.analysis import verify_cor_3_2, verify_cor_6_2
from curvemates.expressions import DomainError, Samples, evaluate
from curvemates.integrate import integrate_frame
from curvemates.liegroup import R3, S3, SO3, bracket, sg_derivative
from curvemates.profiles import (SINGULAR_SIGMA_TOL, CurvatureProfile,
                                 FrenetViolation, ProfileSamples, SingularSigma,
                                 darboux_vectors,
                                 harmonic_curvature, harmonic_curvature_prime,
                                 omega, sigma)

from oracles import covariant_derivative


def test_harmonic_curvature_examples(profiles):
    p = profiles["rectifying"]
    assert harmonic_curvature(p, R3, 2.0) == pytest.approx(4.0, abs=1e-12)
    s = np.linspace(1.1, 3.0, 101)
    np.testing.assert_allclose(harmonic_curvature(p, R3, s), s + 2, atol=1e-12)

    same = CurvatureProfile.from_expressions("2+sin(s)", "2+sin(s)", (0, 1))
    np.testing.assert_allclose(harmonic_curvature(same, R3, np.linspace(0, 1, 11)),
                               1.0, atol=1e-15)

    assert harmonic_curvature(profiles["slant_helix"], R3, 0.0) == pytest.approx(0.0)


def test_harmonic_curvature_requires_positive_kappa():
    p = CurvatureProfile.from_expressions("s", "1", (-1, 1))
    with pytest.raises(FrenetViolation):
        harmonic_curvature(p, R3, -0.5)


def test_sigma_examples(profiles):
    assert sigma(profiles["slant_helix"], R3, 0.3) == pytest.approx(3.0, abs=1e-12)
    p = CurvatureProfile.from_expressions("1", "s", (-1, 1))
    assert sigma(p, R3, 0.0) == pytest.approx(1.0, abs=1e-12)
    const = CurvatureProfile.from_expressions("2", "5", (0, 1))
    with pytest.raises(SingularSigma):
        sigma(const, R3, 0.5)


def test_omega_examples(profiles):
    assert omega(profiles["salkowski"], R3, 0.0) == pytest.approx(3.0, abs=1e-15)
    s = np.linspace(-1.5, 1.5, 33)
    np.testing.assert_allclose(omega(profiles["slant_helix"], R3, s), 3.0,
                               atol=1e-12)
    p = CurvatureProfile.from_expressions("0.6", "1", (0, 1))  # tau = tau_G on S3
    assert omega(p, S3, 0.5) == pytest.approx(0.6, abs=1e-15)


def reference_apparatus(p, spec, s):
    """The apparatus written out from the profile's own evaluations, in the
    operation order of the library's formulas."""
    k, t = p.kappa_at(s), p.tau_at(s)
    kp, tp = p.kappa_prime_at(s), p.tau_prime_at(s)
    m = t - spec.tau_g
    return {"kappa": k, "tau": t, "m": m, "kappa_prime": kp, "tau_prime": tp,
            "H": m / k, "H_prime": (tp * k - m * kp) / k**2,
            "omega": np.sqrt(m * m + k * k)}


@pytest.mark.parametrize("spec", [R3, SO3, S3])
def test_profile_samples_equal_point_functions(profiles, spec):
    for name, p in profiles.items():
        grid = p.grid(301)
        for s in (grid, grid[17], float(grid[150])):
            ps = ProfileSamples(p, spec, s)
            ref = reference_apparatus(p, spec, s)
            for field, value in ref.items():
                assert np.array_equal(getattr(ps, field), value), (name, field)
            assert np.array_equal(ps.kappa, p.kappa_at(s))
            assert np.array_equal(ps.tau, p.tau_at(s))
            assert np.array_equal(ps.H, harmonic_curvature(p, spec, s))
            assert np.array_equal(ps.H_prime, harmonic_curvature_prime(p, spec, s))
            assert np.array_equal(ps.omega, omega(p, spec, s))
            defined = np.abs(ref["H_prime"]) > SINGULAR_SIGMA_TOL
            assert np.array_equal(np.isnan(ps.sigma), ~defined), name
            if np.all(defined):
                assert np.array_equal(ps.sigma, ref["kappa"] * (ref["H"] * ref["H"] + 1.0)
                                      ** 1.5 / ref["H_prime"])
                assert np.array_equal(ps.sigma, sigma(p, spec, s))
            else:
                with pytest.raises(SingularSigma):
                    sigma(p, spec, s)
    # H' = sqrt(2) sin(s) / (3 cos^2 s) vanishes at s = 0, a grid point
    assert np.isnan(ProfileSamples(profiles["anti_salkowski"], spec, 0.0).sigma)
    # H' = SINGULAR_SIGMA_TOL exactly still counts as vanishing
    edge = CurvatureProfile.from_expressions("1", f"{spec.tau_g}+1e-12*s", (0, 1))
    assert np.all(np.isnan(ProfileSamples(edge, spec, edge.grid(5)).sigma))


def test_profile_samples_require_positive_kappa_for_h(profiles):
    p = profiles["rectifying"]  # kappa = s - 1
    for s in (np.linspace(0.5, 1.5, 5), 0.5, 1.0):
        ps = ProfileSamples(p, R3, s)
        assert np.array_equal(ps.omega, omega(p, R3, s))
        for field in ("H", "sigma"):
            with pytest.raises(FrenetViolation):
                getattr(ps, field)


def test_h_prime_requires_positive_kappa_before_dividing():
    # kappa = s is 0 at s = 0, a node of the check grid: H' must raise
    # FrenetViolation, as H does, without a divide-by-zero warning first
    p = CurvatureProfile.from_expressions("s", "1", (-1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (p.grid(), 0.0, np.array([-0.5, 0.5])):
            with pytest.raises(FrenetViolation):
                ProfileSamples(p, R3, s).H_prime
        with pytest.raises(FrenetViolation):
            harmonic_curvature_prime(p, R3, 0.0)
        for verify in (verify_cor_3_2, verify_cor_6_2):
            with pytest.raises(FrenetViolation):
                verify(p, R3)


def test_profile_samples_evaluate_derivatives_only_when_read():
    # kappa' = s/abs(s) is undefined at s = 0
    p = CurvatureProfile.from_expressions("2+abs(s)", "1.5+s", (-1, 1))
    s = p.grid(11)
    ps = ProfileSamples(p, R3, s)
    assert np.array_equal(ps.H, (1.5 + s) / (2.0 + np.abs(s)))
    assert np.array_equal(ps.tau_prime, np.ones_like(s))
    for field in ("kappa_prime", "H_prime", "sigma"):
        with pytest.raises(DomainError):
            getattr(ps, field)


def test_darboux_vectors_examples(profiles):
    d, big, costar = darboux_vectors(profiles["salkowski"], R3, 1.0)
    np.testing.assert_allclose(d, [2, 0, 3], atol=1e-15)
    np.testing.assert_allclose(big, [2, 0, 3], atol=1e-15)
    np.testing.assert_allclose(costar, [-3, 0, 2], atol=1e-15)

    p = CurvatureProfile.from_expressions("1.5", "1", (0, 1))  # tau = tau_G on S3
    _, big, costar = darboux_vectors(p, S3, 0.2)
    np.testing.assert_allclose(big, [0, 0, 1.5], atol=1e-15)
    np.testing.assert_allclose(costar, [-1.5, 0, 0], atol=1e-15)


def test_darboux_orthogonality_random_profiles():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = rng.uniform(0.1, 5)
        t = rng.uniform(-5, 5)
        p = CurvatureProfile.from_expressions(f"{k}", f"{t}", (0, 1))
        spec = (R3, S3)[rng.integers(2)]
        _, big, costar = darboux_vectors(p, spec, 0.5)
        w = omega(p, spec, 0.5)
        assert abs(np.dot(big, costar)) <= 1e-12
        assert np.linalg.norm(big) == pytest.approx(w, abs=1e-12)
        assert np.linalg.norm(costar) == pytest.approx(w, abs=1e-12)


def test_profile_samples_invariants_at_a_point(profiles):
    # the apparatus at one scalar s: omega^2 = (tau - tau_G)^2 + kappa^2,
    # Omega . Omega* = 0, and sigma defined only where H' does not vanish
    for name, p in profiles.items():
        lo, hi = p.domain
        for s in np.linspace(lo + 0.05, hi - 0.05, 7):
            a = ProfileSamples(p, R3, float(s))
            assert np.ndim(a.H) == np.ndim(a.sigma) == 0
            assert a.omega ** 2 == pytest.approx(a.m ** 2 + a.kappa ** 2, abs=1e-12)
            _, big, costar = darboux_vectors(p, R3, float(s))
            assert abs(np.dot(big, costar)) <= 1e-12
            if not np.isnan(a.sigma):
                assert a.H_prime != 0


def test_sampled_profile_derivatives_match_symbolic(profiles):
    for name, p in profiles.items():
        lo, hi = p.domain
        s = np.linspace(lo, hi, 3001)
        sampled = CurvatureProfile.from_samples(s, np.asarray(p.kappa_at(s)),
                                                np.asarray(p.tau_at(s)))
        probe = np.linspace(lo, hi, 257)
        for fn in ("kappa_prime_at", "tau_prime_at"):
            sym = np.asarray(getattr(p, fn)(probe))
            num = np.asarray(getattr(sampled, fn)(probe))
            assert np.max(np.abs(sym - num)) <= 1e-6 * (1 + np.max(np.abs(sym)))


def test_sampled_profile_values_roundtrip(profiles):
    p = profiles["slant_helix"]
    s = np.linspace(-1.5, 1.5, 2001)
    sampled = CurvatureProfile.from_samples(s, np.asarray(p.kappa_at(s)),
                                            np.asarray(p.tau_at(s)))
    probe = np.linspace(-1.45, 1.45, 313)
    np.testing.assert_allclose(sampled.kappa_at(probe), p.kappa_at(probe),
                               atol=1e-10)
    np.testing.assert_allclose(sampled.tau_at(probe), p.tau_at(probe), atol=1e-10)


def test_a_profile_is_two_expressions(profiles):
    assert CurvatureProfile._fields == ("s_min", "s_max", "kappa_expr", "tau_expr")
    p = profiles["slant_helix"]
    s = p.grid(401)
    q = CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s))
    assert isinstance(q.kappa_expr, Samples) and isinstance(q.tau_expr, Samples)
    assert q.domain == p.domain


def test_a_boolean_is_no_curvature_law():
    with pytest.raises(TypeError):
        CurvatureProfile.from_expressions(True, 0, (0, 1))
    with pytest.raises(TypeError):
        CurvatureProfile.from_expressions(1, False, (0, 1))


@pytest.mark.parametrize("name", ["slant_helix", "rectifying", "anti_salkowski"])
def test_sampled_profile_reads_its_samples_at_its_nodes(profiles, name):
    # (s - s0)/h lands a few ulp off the node index; a node must still read
    # back its own sample, and its finite-difference derivative, bit for bit
    p = profiles[name]
    s = np.linspace(*p.domain, 401)
    q = CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s))
    nodes, kappa, tau = q.kappa_expr.s, q.kappa_expr.values, q.tau_expr.values
    np.testing.assert_array_equal(evaluate(q.kappa_expr, nodes), kappa)
    np.testing.assert_array_equal(q.tau_at(nodes), tau)
    np.testing.assert_array_equal(q.kappa_prime_at(nodes),
                                  sg_derivative(kappa, nodes[1] - nodes[0], 5))
    for i in (0, 1, 200, 399, 400):
        assert q.kappa_at(nodes[i]) == kappa[i]


def test_frame_rotation_residuals(profiles):
    # along an integrated frame, finite differences of (T, N, B) follow the
    # plain-derivative rotation by Omega and the covariant one by D
    p = profiles["slant_helix"]
    h = 1e-4
    traj = integrate_frame(p, R3, -0.5, 0.5, h)
    s = traj.s
    _, big, _ = darboux_vectors(p, R3, s)
    d_vec, _, _ = darboux_vectors(p, R3, s)
    worst_plain = 0.0
    worst_cov = 0.0
    for field, deriv_field in (("t", None), ("n", None), ("b", None)):
        f = getattr(traj, field)
        fd = (f[2:] - f[:-2]) / (2 * h)
        for i in range(1, len(s) - 1):
            t, n, b = traj.t[i], traj.n[i], traj.b[i]
            omega_alg = big[i][0] * t + big[i][1] * n + big[i][2] * b
            d_alg = d_vec[i][0] * t + d_vec[i][1] * n + d_vec[i][2] * b
            u = f[i]
            worst_plain = max(worst_plain, float(np.max(np.abs(
                fd[i - 1] - np.cross(omega_alg, u)))))
            cov = covariant_derivative(u, fd[i - 1], t, R3)
            worst_cov = max(worst_cov, float(np.max(np.abs(
                cov - np.cross(d_alg, u)))))
    assert worst_plain <= 1e-6
    assert worst_cov <= 1e-6


def test_sampled_profile_needs_uniform_grid():
    s = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
    with pytest.raises(ValueError):
        CurvatureProfile.from_samples(s, np.ones(5), np.ones(5))
    with pytest.raises(ValueError):
        CurvatureProfile.from_samples(np.linspace(0, 1, 4), np.ones(4), np.ones(4))


@pytest.mark.parametrize("s,kappa,tau", [
    (np.linspace(0, 1, 11), 2 * np.ones(7), np.ones(11)),
    (np.linspace(0, 1, 11), 2 * np.ones(11), np.ones((11, 1))),
    (np.linspace(0, 1, 11), np.r_[2.0, np.nan, 2 * np.ones(9)], np.ones(11)),
    (np.linspace(0, 1, 11), 2 * np.ones(11), np.r_[np.ones(10), np.inf]),
    (np.r_[np.linspace(0, 0.9, 10), np.nan], 2 * np.ones(11), np.ones(11)),
], ids=["short_kappa", "tau_column", "nan_kappa", "inf_tau", "nan_grid"])
def test_sampled_profile_rejects_malformed_samples(s, kappa, tau):
    # accepted, these failed later: an IndexError at the first read between
    # nodes, or seven False verdicts from classify without a word
    with pytest.raises(ValueError, match="per grid point|finite"):
        CurvatureProfile.from_samples(s, kappa, tau)


def test_frenet_violation_names_the_first_failing_point():
    p = CurvatureProfile.from_expressions("s", "1", (-1.0, 1.0))
    with pytest.raises(FrenetViolation,
                       match=r"^Frenet condition violated: kappa <= 0$") as info:
        ProfileSamples(p, R3, p.grid()).H
    assert info.value.s == -1.0
