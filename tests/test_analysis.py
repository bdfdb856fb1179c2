import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from curvemates.analysis import (EstimationError, ToleranceSet, classify,
                                 estimate_apparatus, rel_spread,
                                 sg_derivative, spherical_check, verify_cor_3_1,
                                 verify_cor_3_2, verify_cor_3_3, verify_cor_3_4,
                                 verify_cor_5_2, verify_cor_6_1, verify_cor_6_2,
                                 verify_mate_geometry, verify_thm_4_1,
                                 verify_thm_5_1, verify_thm_5_2, verify_thm_6_2)
from curvemates import checks, expressions
from curvemates.catalog import PROFILES
from curvemates.expressions import DomainError
from curvemates.integrate import (PositionCurve, integrate_direction_curve,
                                  integrate_frame, reconstruct_position)
from curvemates.liegroup import R3, S3, SO3, quat_mul_rows
from curvemates.mates import natural_mate_apparatus
from curvemates.profiles import CurvatureProfile

from conftest import (GENERAL_HELIX_BATTERY, NON_GENERAL_HELIX_BATTERY,
                      NON_SLANT_BATTERY, SLANT_BATTERY)
from oracles import estimated_profile, hat, left_shift, sphere_fit


def prof(kappa, tau, domain):
    return CurvatureProfile.from_expressions(kappa, tau, domain)


# ---------------------------------------------------------------------------
# estimator

def test_estimate_unit_speed_circle_radius_two():
    s = np.linspace(0, 4 * np.pi, 2001)
    pos = np.stack([2 * np.cos(s / 2), 2 * np.sin(s / 2), np.zeros_like(s)], axis=1)
    est = estimate_apparatus(PositionCurve(s=s, positions=pos, spec=R3), R3)
    v = est.valid
    assert np.max(np.abs(est.kappa[v] - 0.5)) <= 1e-6
    assert np.max(np.abs(est.tau[v])) <= 1e-6
    assert np.all(est.kappa >= 0)


def test_estimate_synthesized_spherical_profile(profiles):
    p = profiles["spherical"]
    prof_est, est = estimated_profile(p, R3, 1e-3)
    sg = prof_est.kappa_expr.s
    assert np.max(np.abs(prof_est.kappa_expr.values - np.asarray(p.kappa_at(sg)))) <= 1e-4
    assert np.max(np.abs(prof_est.tau_expr.values - np.asarray(p.tau_at(sg)))) <= 1e-4


def test_estimated_group_torsion_s3_flat_case():
    # kappa = 1, tau = 1 = tau_G on S3
    p = prof("1", "1", (0.0, 3.0))
    _, est = estimated_profile(p, S3, 1e-3)
    assert np.max(np.abs(est.tau_g[est.valid] - 1.0)) <= 1e-6


def test_estimated_group_torsion_all_groups():
    # same kappa and tau - tau_G in each group
    for spec, tau in ((R3, "1"), (SO3, "1.5"), (S3, "2")):
        p = prof("2", tau, (0.0, 2.0))
        _, est = estimated_profile(p, spec, 1e-3)
        assert np.max(np.abs(est.tau_g[est.valid] - spec.tau_g)) <= 1e-6


@pytest.mark.parametrize("spec", [SO3, S3], ids=["so3", "s3"])
def test_estimated_torsion_includes_the_bracket_term(spec):
    # tau = <N' + (1/2)[T, N], B>: without the bracket the estimate reads
    # tau - tau_G, off by 1/2 in SO(3) and by 1 in S^3
    p = prof("2", "1.5", (0.0, 2.0))
    _, est = estimated_profile(p, spec, 1e-3)
    assert np.max(np.abs(est.tau[est.valid] - 1.5)) <= 1e-6


@pytest.mark.parametrize("spec", [SO3, S3], ids=["so3", "s3"])
def test_estimator_is_left_invariant(spec, profiles):
    # the tangent is pulled back by left translation, so a fixed left factor
    # g cancels: g.gamma and gamma have the same apparatus and the same
    # algebra-valued frame (a right-translation pull-back rotates the frame
    # by Ad_g and fails the frame bound)
    p = profiles["slant_helix"]
    traj = reconstruct_position(integrate_frame(p, spec, p.s_min, p.s_max, 1e-3), spec)
    if spec is SO3:
        moved = expm(hat(np.array([0.3, -0.7, 0.4]))) @ traj.positions
    else:
        g = np.array([0.3, -0.5, 0.6, 0.2]) / np.sqrt(0.74)
        moved = quat_mul_rows(np.tile(g, (len(traj.s), 1)), traj.positions)
    est = estimate_apparatus(traj, spec)
    est_g = estimate_apparatus(PositionCurve(s=traj.s, positions=moved, spec=spec), spec)
    assert np.any(np.abs(moved - traj.positions) > 0.1)
    np.testing.assert_array_equal(est_g.valid, est.valid)
    v = est.valid
    assert np.max(np.abs(est_g.kappa - est.kappa)) <= 1e-9
    assert np.max(np.abs(est_g.tau[v] - est.tau[v])) <= 1e-6
    assert np.max(np.abs(est_g.tau_g - est.tau_g)) <= 1e-12
    for a, b in ((est_g.t, est.t), (est_g.n, est.n), (est_g.b, est.b)):
        assert np.max(np.abs(a - b)) <= 1e-8


def test_estimate_rejects_straight_line():
    s = np.linspace(0, 1, 101)
    pos = np.stack([s, 2 * s, np.zeros_like(s)], axis=1) / np.sqrt(5)
    with pytest.raises(EstimationError):
        estimate_apparatus(PositionCurve(s=s, positions=pos, spec=R3), R3)


def test_estimate_needs_nine_samples():
    s = np.linspace(0, 1, 5)
    pos = np.stack([np.cos(s), np.sin(s), 0 * s], axis=1)
    with pytest.raises(EstimationError):
        estimate_apparatus(PositionCurve(s=s, positions=pos, spec=R3), R3)


def test_estimate_needs_31_samples():
    # the valid span starts 15 samples in from each end; 30 samples leave
    # it empty, so the estimator refuses them instead of returning nothing
    def arc(n):
        s = np.linspace(0, 1, n)
        return PositionCurve(s=s, positions=np.stack([np.cos(s), np.sin(s), 0 * s], axis=1),
                             spec=R3)

    with pytest.raises(EstimationError, match="at least 31 samples, got 30"):
        estimate_apparatus(arc(30), R3)
    assert np.count_nonzero(estimate_apparatus(arc(31), R3).valid) == 1


def test_one_uniform_grid_check_for_samples_shift_and_estimator():
    s = np.linspace(0, 1, 101)
    s[50] += 1e-9
    pos = np.stack([np.cos(s), np.sin(s), 0 * s], axis=1)
    with pytest.raises(EstimationError, match="uniform"):
        estimate_apparatus(PositionCurve(s=s, positions=pos, spec=R3), R3)
    with pytest.raises(ValueError, match="uniform"):
        CurvatureProfile.from_samples(s, 1 + 0 * s, 0 * s)


def test_sg_derivative_window5_is_classic_stencil():
    rng = np.random.default_rng(0)
    f = rng.normal(size=31)
    h = 0.1
    d = sg_derivative(f, h, window=5)
    classic = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    np.testing.assert_allclose(d[2:-2], classic, atol=1e-12)


def test_estimator_order_at_coarse_steps(profiles):
    # truncation-dominated regime: halving h shrinks the curvature error by
    # ~16 (order four); the torsion pipeline carries an O(h^3) component from
    # per-step integrator granularity, so its ratio is reported, not asserted
    p = profiles["slant_helix"]
    errs = {}
    for h in (0.02, 0.01):
        prof_est, _ = estimated_profile(p, R3, h)
        sg = prof_est.kappa_expr.s
        errs[h] = (np.max(np.abs(prof_est.kappa_expr.values - np.asarray(p.kappa_at(sg)))),
                   np.max(np.abs(prof_est.tau_expr.values - np.asarray(p.tau_at(sg)))))
    k_ratio = errs[0.02][0] / errs[0.01][0]
    t_ratio = errs[0.02][1] / errs[0.01][1]
    print(f"estimator refinement ratios at h=0.02 -> 0.01: "
          f"kappa {k_ratio:.1f} (order {np.log2(k_ratio):.2f}), "
          f"tau {t_ratio:.1f} (order {np.log2(t_ratio):.2f})")
    assert 12 <= k_ratio <= 20
    assert t_ratio >= 4  # at least the order-2 floor


# ---------------------------------------------------------------------------
# spherical criterion

def test_spherical_check_examples(profiles):
    rep = spherical_check(profiles["spherical"], R3)
    assert rep.is_spherical
    assert rep.radius == pytest.approx(np.sqrt(2), abs=1e-9)
    assert rep.max_eq_residual <= 1e-9

    rep = spherical_check(prof("2", "0", (0, 3)), R3)
    assert rep.is_spherical and rep.radius == pytest.approx(0.5, abs=1e-12)

    rep = spherical_check(profiles["salkowski"], R3)
    assert not rep.is_spherical


@pytest.mark.parametrize("spec", [R3, SO3, S3], ids=lambda g: g.family)
def test_both_closure_forms_vanish_on_a_spherical_profile(spec):
    # max_eq_residual keeps the smaller form, so each is pinned on its own
    entry = PROFILES["spherical"]
    rep = spherical_check(prof(entry.kappa, f"{spec.tau_g!r}+({entry.tau})",
                               entry.domain), spec)
    assert rep.is_spherical
    for seg in rep.segments:
        assert seg.eq_residual <= 1e-9
        assert seg.eq_residual_integrated <= 1e-9


def test_spherical_check_rejects_constant_curvature_nonspherical(profiles):
    # R is constant whenever kappa is, but the closure residual bites:
    # the mate of the spherical demo profile is such a curve
    mate = natural_mate_apparatus(profiles["spherical"], R3)
    rep = spherical_check(mate.profile, R3)
    assert not rep.is_spherical
    # circular helix: both constant, not spherical
    rep = spherical_check(prof("2", "1", (0, 3)), R3)
    assert not rep.is_spherical


def test_spherical_check_mixed_segments():
    # tau = tau_G on the left half, nonzero on the right: segmented report
    p = prof("1", "0.5*(s+abs(s))", (-2.0, 2.0))
    rep = spherical_check(p, R3)
    cases = {seg.case for seg in rep.segments}
    assert "constant_kappa" in cases and "general" in cases


def test_spherical_segments_must_agree_on_the_radius():
    # kappa = 2 - s on the zero run s <= a (mean kappa about 3) and 2 on the
    # general run beyond, where R = 1/kappa^2 = 1/4; the tolerances let both
    # segments pass on their own, so only the radii decide
    a = 0.0123                      # off the grid: kappa' is defined everywhere
    p = prof(f"2-0.5*((s-{a})-abs(s-{a}))", f"0.5*((s-{a})+abs(s-{a}))", (-2.0, 2.0))
    loose = ToleranceSet(constancy=1.0, spherical_residual=1e9)
    rep = spherical_check(p, R3, loose)
    assert [(seg.case, seg.is_spherical) for seg in rep.segments] == [
        ("constant_kappa", True), ("general", True)]
    circle, sphere = (seg.radius for seg in rep.segments)
    assert circle == pytest.approx(1.0 / 3.0, abs=1e-3) and sphere == pytest.approx(0.5)
    assert not rep.is_spherical and rep.radius == circle
    rep = spherical_check(p, R3, loose._replace(spherical_spread=0.5))
    assert rep.is_spherical and rep.radius == pytest.approx(0.5 * (circle + sphere))


def test_spherical_general_segment_below_the_floor(profiles):
    # a floor above every |tau - tau_G| leaves no sample to test
    rep = spherical_check(profiles["spherical"], R3, ToleranceSet(spherical_zero_rel=1.5))
    assert not rep.is_spherical and rep.radius is None
    (seg,) = rep.segments
    assert (seg.case, seg.is_spherical, seg.radius, seg.spread) == (
        "general", False, None, float("inf"))


# ---------------------------------------------------------------------------
# sphere fit

def test_sphere_fit_exact_samples():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    center, radius, rms = sphere_fit(pts)
    np.testing.assert_allclose(center, 0.0, atol=1e-12)
    assert radius == pytest.approx(1.0, abs=1e-12)
    assert rms <= 1e-12


def test_sphere_fit_of_spherical_left_shift():
    # the left shift of a spherical curve lies on a sphere in the algebra:
    # a geometric fit of the integrated tangents shares no formula with the
    # closure criterion, yet must reproduce classify's radius.  Cases: the
    # spherical demo profile and the natural mates of the Salkowski and
    # anti-Salkowski profiles (thm4_1, thm6_2), tau shifted by tau_G
    for spec in (R3, SO3, S3):
        for name, mate in (("spherical", False), ("salkowski", True),
                           ("anti_salkowski", True)):
            entry = PROFILES[name]
            p = prof(entry.kappa, f"{spec.tau_g!r}+({entry.tau})", entry.domain)
            if mate:
                p = natural_mate_apparatus(p, spec).profile
            traj = integrate_frame(p, spec, p.s_min, p.s_max, 1e-3)
            _, radius, rms = sphere_fit(left_shift(traj.s, traj.t, np.zeros(3)))
            rep = classify(p, spec).spherical
            assert rep.is_spherical, (name, spec.family)
            assert abs(radius - rep.radius) <= 1e-9, (name, spec.family)
            assert rms <= 1e-9, (name, spec.family)
            if name == "spherical":
                assert abs(radius - np.sqrt(2)) <= 1e-4


# ---------------------------------------------------------------------------
# classification

def test_classify_demo_profiles(profiles):
    rep = classify(profiles["rectifying"], R3)
    assert rep.verdicts["rectifying"].passed
    assert not rep.verdicts["general_helix"].passed

    rep = classify(profiles["slant_helix"], R3)
    assert rep.verdicts["slant_helix"].passed
    assert rep.verdicts["slant_helix"].residual <= 1e-9

    rep = classify(profiles["spherical"], R3)
    assert rep.spherical.is_spherical
    assert rep.spherical.radius == pytest.approx(np.sqrt(2), abs=1e-6)

    rep = classify(profiles["salkowski"], R3)
    assert rep.verdicts["salkowski"].passed
    assert not rep.verdicts["anti_salkowski"].passed

    rep = classify(profiles["anti_salkowski"], R3)
    assert rep.verdicts["anti_salkowski"].passed
    assert not rep.verdicts["salkowski"].passed


def test_rectifying_residual_of_a_general_helix_is_its_misfit():
    # H = 1.5 is constant: the fit's misfit is round-off, and so is the
    # range of H, which must not divide it
    p = prof("2+0.5*sin(s)", "1.5*(2+0.5*sin(s))", (0, 4))
    s = p.grid(401)
    for q in (p, CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s))):
        verdict = classify(q, R3).verdicts["rectifying"]
        assert not verdict.passed
        assert verdict.residual <= 1e-12


def test_classify_circular_helix_implies_general_helix():
    rep = classify(prof("2", "2", (0, 2)), R3)
    assert rep.verdicts["circular_helix"].passed
    assert rep.verdicts["general_helix"].passed
    assert not rep.verdicts["slant_helix"].passed  # H' = 0: sigma undefined


def test_classify_structural_invariants(profiles):
    battery = list(profiles.values()) + [prof("2", "2", (0, 2)),
                                         prof("1", "3", (0, 2))]
    for p in battery:
        rep = classify(p, R3)
        if rep.verdicts["circular_helix"].passed:
            assert rep.verdicts["general_helix"].passed
        assert not (rep.verdicts["salkowski"].passed
                    and rep.verdicts["anti_salkowski"].passed)


def test_classify_segments_report_sign_structure(profiles):
    rep = classify(profiles["slant_helix"], R3)
    assert len(rep.segments) == 2
    assert rep.segments[0].sign == -1 and rep.segments[1].sign == 1


# ---------------------------------------------------------------------------
# theorem verifiers

def test_thm_4_1(profiles):
    rep = verify_thm_4_1(profiles["salkowski"], R3)
    assert rep.passed and rep.max_residual <= 1e-9
    assert rep.details["radius"] == pytest.approx(1 / 3, abs=1e-9)

    rep = verify_thm_4_1(prof("1", "0", (0, 3)), R3)
    assert rep.passed and rep.details["radius"] == pytest.approx(1.0, abs=1e-12)

    rep = verify_thm_4_1(prof("2", "sin(s)", (0, 3)), R3)
    assert rep.passed and rep.max_residual <= 1e-8
    assert rep.details["radius"] == pytest.approx(0.5, abs=1e-8)

    rep = verify_thm_4_1(profiles["spherical"], R3)   # kappa not constant
    assert not rep.applicable and rep.ok

    # no spread of R is allowed: the mate fails the spherical criterion
    rep = verify_thm_4_1(profiles["salkowski"], R3, ToleranceSet(spherical_spread=0.0))
    assert rep.applicable and not rep.passed
    assert rep.hypothesis_note == "mate not spherical"


def test_thm_4_1_evaluates_the_mate_torsion_once(monkeypatch):
    # the spherical criterion and its converse read the same samples of the
    # natural mate on the check grid
    p = prof("3", "2*s", (-3, 3))
    mate_tau = natural_mate_apparatus(p, SO3).profile.tau_expr
    evaluate = expressions.evaluate
    calls = []

    def counting(e, s):
        calls.append(e is mate_tau)
        return evaluate(e, s)

    monkeypatch.setattr(expressions, "evaluate", counting)
    rep = verify_thm_4_1(p, SO3)
    assert rep.passed
    assert sum(calls) == 1


def test_thm_5_1(profiles):
    rep = verify_thm_5_1(profiles["spherical"], R3)
    assert rep.passed and rep.max_residual <= 1e-8

    rep = verify_thm_5_1(profiles["slant_helix"], R3)
    assert rep.passed  # mate is (3, 1): constant curvature

    rep = verify_thm_5_1(profiles["rectifying"], R3)  # mate curvature varies
    assert not rep.applicable


def test_thm_5_2_rejects_a_radius_below_one_over_the_mate_curvature(profiles, monkeypatch):
    # exact data cannot give a < c (c r >= 1 on a sphere); a report with a
    # too small radius reaches the guard
    fake = checks.SphericalReport(True, 0.1, [])
    monkeypatch.setattr(checks, "spherical_check", lambda p, spec, tol: fake)
    rep = verify_thm_5_2(profiles["spherical"], R3)
    assert rep.applicable and not rep.passed
    assert rep.hypothesis_note == "a < c is impossible"
    assert rep.details["a"] == pytest.approx(0.4) and rep.details["c"] == pytest.approx(2.0)


def test_thm_5_2(profiles):
    rep = verify_thm_5_2(profiles["spherical"], R3)
    assert rep.passed and rep.max_residual <= 1e-9
    assert rep.details["c"] == pytest.approx(2.0, abs=1e-12)
    assert rep.details["a"] == pytest.approx(4 * np.sqrt(2), abs=1e-9)

    # degenerate a = c: constant profile parent
    rep = verify_thm_5_2(prof("2", "0", (0, 3)), R3)
    assert rep.passed
    assert rep.details["a"] == pytest.approx(rep.details["c"], abs=1e-9)

    # perturbed curvature: mate curvature no longer constant
    pp = prof("1.01*2*(1+7*sin(2*s)^2)^(-1/2)",
              "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)", (0, np.pi))
    rep = verify_thm_5_2(pp, R3)
    assert not rep.applicable and rep.ok


def test_thm_6_2(profiles):
    rep = verify_thm_6_2(profiles["anti_salkowski"], R3)
    assert rep.passed and rep.max_residual <= 1e-9
    assert rep.details["radius"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    rep = verify_thm_6_2(prof("abs(cos(s))+2", "1", (0.1, 1.4)), R3)
    assert rep.passed
    assert rep.details["radius"] == pytest.approx(1.0, abs=1e-8)

    rep = verify_thm_6_2(prof("2", "0", (0, 1)), R3)  # tau = tau_G
    assert not rep.applicable and rep.ok

    rep = verify_thm_6_2(profiles["anti_salkowski"], R3, ToleranceSet(spherical_spread=0.0))
    assert rep.applicable and not rep.passed
    assert rep.hypothesis_note == "mate not spherical"


def sampled_copy(p):
    """A copy of p sampled at 401 points of its domain."""
    s = p.grid(401)
    return CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s))


@pytest.mark.parametrize("spec", [R3, SO3, S3], ids=["r3", "so3", "s3"])
def test_thm_6_2_holds_on_a_sampled_anti_salkowski_curve(profiles, spec):
    # the sampled parent's mate is the same formula over its samples, so
    # its spherical check sees no second layer of interpolation and filtering
    rep = verify_thm_6_2(sampled_copy(profiles["anti_salkowski"]), spec)
    assert rep.applicable and rep.passed, (rep.max_residual, rep.hypothesis_note)


@pytest.mark.parametrize("spec", [R3, SO3, S3], ids=["r3", "so3", "s3"])
def test_cor_3_3_holds_on_a_sampled_salkowski_curve(profiles, spec):
    rep = verify_cor_3_3(sampled_copy(profiles["salkowski"]), spec)
    assert rep.applicable and rep.passed, rep.max_residual


@pytest.mark.parametrize("spec", [R3, SO3, S3], ids=["r3", "so3", "s3"])
def test_circle_mate_lies_on_the_theorem_spheres(spec):
    # kappa = 2, tau - tau_G = 1.5: the natural mate has tau_bar = tau_G and
    # kappa_bar = omega = 2.5, a circle of radius 0.4, which lies on the
    # spheres of radius 1/2 (thm4_1) and 1/1.5 (thm6_2)
    p = prof("2", f"{spec.tau_g!r}+1.5", (0, 4))
    for verify, expected in ((verify_thm_4_1, 0.5), (verify_thm_6_2, 1 / 1.5)):
        rep = verify(p, spec)
        assert rep.applicable and rep.passed, rep.details
        assert rep.details["mate_is_circle"]
        assert rep.details["radius"] == pytest.approx(0.4, abs=1e-12)
        assert rep.details["expected_radius"] == pytest.approx(expected, abs=1e-12)


def test_estimated_paths_for_spherical_theorems(profiles):
    tol = ToleranceSet.estimated()
    parent, _ = estimated_profile(profiles["salkowski"], R3, 1e-3)
    rep = verify_thm_4_1(parent, R3, tol)
    assert rep.passed and rep.max_residual <= 1e-3

    parent, _ = estimated_profile(profiles["spherical"], R3, 1e-3)
    rep = verify_thm_5_2(parent, R3, tol)
    assert rep.passed and rep.max_residual <= 1e-3

    parent, _ = estimated_profile(profiles["anti_salkowski"], R3, 1e-3)
    rep = verify_thm_6_2(parent, R3, tol)
    assert rep.passed and rep.max_residual <= 1e-3


def test_checks_that_read_no_derivative_run_where_one_is_undefined():
    # kappa' = s/abs(s) is undefined at s = 0, a point of every grid here
    p = prof("2+abs(s)", "1.5+s", (-1, 1))
    for check in (verify_thm_4_1, verify_thm_5_1, verify_thm_6_2, verify_cor_6_1):
        assert check(p, R3).ok
    for check in (classify, spherical_check, verify_thm_5_2, verify_cor_3_1,
                  verify_cor_3_2, verify_cor_3_3, verify_cor_3_4, verify_cor_5_2,
                  verify_cor_6_2):
        with pytest.raises(DomainError):
            check(p, R3)


# ---------------------------------------------------------------------------
# corollary biconditionals

def test_cor_3_1_battery():
    for k, t, dom in GENERAL_HELIX_BATTERY + NON_GENERAL_HELIX_BATTERY:
        rep = verify_cor_3_1(prof(k, t, dom), R3)
        assert rep.passed, (k, t, rep.details)


def test_cor_3_2_battery():
    for k, t, dom in SLANT_BATTERY:
        rep = verify_cor_3_2(prof(k, t, dom), R3)
        assert rep.passed and rep.details["slant"], (k, t, rep.details)
    for k, t, dom in NON_SLANT_BATTERY:
        rep = verify_cor_3_2(prof(k, t, dom), R3)
        assert rep.passed and not rep.details["slant"], (k, t, rep.details)
    # H' vanishes identically on a general helix, so sigma is undefined
    for k, t, dom in GENERAL_HELIX_BATTERY:
        rep = verify_cor_3_2(prof(k, t, dom), R3)
        assert rep.ok and not rep.applicable, (k, t, rep.details)
        assert "sigma undefined" in rep.hypothesis_note


def test_cor_6_1_battery():
    for k, t, dom in GENERAL_HELIX_BATTERY:
        rep = verify_cor_6_1(prof(k, t, dom), R3)
        assert rep.passed and rep.details["general_helix"], (k, t)
        assert rep.details["H_product_identity_residual"] <= 1e-9
    for k, t, dom in NON_GENERAL_HELIX_BATTERY:
        rep = verify_cor_6_1(prof(k, t, dom), R3)
        assert rep.passed and not rep.details["general_helix"], (k, t)


def test_cor_6_2_battery():
    for k, t, dom in SLANT_BATTERY:
        rep = verify_cor_6_2(prof(k, t, dom), R3)
        assert rep.passed and rep.details["slant"], (k, t, rep.details)
        assert rep.details["sigma_sum_residual"] <= 1e-9
    for k, t, dom in NON_SLANT_BATTERY:
        rep = verify_cor_6_2(prof(k, t, dom), R3)
        assert rep.passed and not rep.details["slant"], (k, t, rep.details)


@pytest.mark.parametrize("spec", [R3, SO3, S3], ids=["r3", "so3", "s3"])
def test_cor_6_2_is_not_applicable_on_a_general_helix(spec):
    # sigma is undefined on both sides, as in cor3_2
    rep = verify_cor_6_2(prof("2", f"{spec.tau_g!r}+1.5", (0, 4)), spec)
    assert rep.ok and not rep.applicable, rep.details
    assert "sigma undefined" in rep.hypothesis_note


def test_cor_3_3(profiles):
    rep = verify_cor_3_3(profiles["rectifying"], R3)
    assert rep.passed and rep.details["rectifying"]
    assert rep.max_residual <= 1e-9
    rep = verify_cor_3_3(prof("2", "2", (0, 2)), R3)  # constant H: not rectifying
    assert rep.passed and not rep.details["rectifying"]


def test_cor_3_4(profiles):
    rep = verify_cor_3_4(profiles["spherical"], R3)
    assert rep.passed and rep.max_residual <= 1e-8
    rep = verify_cor_3_4(profiles["salkowski"], R3)
    assert not rep.applicable and rep.ok


def test_cor_5_2(profiles):
    rep = verify_cor_5_2(profiles["spherical"], R3)
    assert rep.passed and rep.max_residual <= 1e-8
    rep = verify_cor_5_2(prof("2", "0", (0, 2)), R3)  # tau == tau_G branch
    assert rep.passed
    # the perturbed profile of test_thm_5_2: spherical, but its mate's
    # curvature varies
    pp = prof("1.01*2*(1+7*sin(2*s)^2)^(-1/2)",
              "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)", (0, np.pi))
    assert spherical_check(pp, R3).is_spherical
    rep = verify_cor_5_2(pp, R3)
    assert not rep.applicable and rep.ok
    assert rep.hypothesis_note == "mate curvature not constant"


# ---------------------------------------------------------------------------
# geometric mate verification

def test_mate_geometry_r3(profiles):
    p = profiles["slant_helix"]
    traj = reconstruct_position(integrate_frame(p, R3, -1.5, 1.5, 1e-3), R3)
    nat = integrate_direction_curve(traj, "principal_normal", R3)
    conj = integrate_direction_curve(traj, "binormal", R3)
    reports = verify_mate_geometry(traj, nat, conj, R3)
    rep = reports["cor6_3"]
    assert rep.passed
    assert rep.details["tangent_residual"] <= 1e-5
    assert rep.details["orthogonality_residual"] <= 1e-5
    rep = reports["cor6_4"]
    assert rep.passed
    assert rep.details["bertrand_residual"] <= 1e-4


def test_mate_geometry_s3():
    p = prof("1", "2", (0, 3))
    traj = reconstruct_position(integrate_frame(p, S3, 0, 3, 1e-3), S3)
    nat = integrate_direction_curve(traj, "principal_normal", S3)
    conj = integrate_direction_curve(traj, "binormal", S3)
    rep = verify_mate_geometry(traj, nat, conj, S3)["cor6_4"]
    assert rep.passed
    est = estimate_apparatus(traj, S3)
    assert np.max(np.abs(est.tau_g[est.valid] - 1.0)) <= 1e-6


def test_bertrand_residual_is_the_worst_sample(profiles):
    # the binormal curve of another helix from the same start frame: N* and
    # N agree near the start only, so the residual must reach sqrt(2)
    p = profiles["slant_helix"]
    traj = reconstruct_position(integrate_frame(p, R3, -1.5, 1.5, 1e-3), R3)
    nat = integrate_direction_curve(traj, "principal_normal", R3)
    other = integrate_frame(prof("2", "1", (-1.5, 1.5)), R3, -1.5, 1.5, 1e-3)
    conj = integrate_direction_curve(other, "binormal", R3)
    rep = verify_mate_geometry(traj, nat, conj, R3)["cor6_4"]
    assert not rep.passed
    assert rep.details["bertrand_residual"] == pytest.approx(np.sqrt(2.0), abs=1e-3)


def test_mate_geometry_planar_natural_only():
    # tau == tau_G: no conjugate mate, so neither check applies
    p = prof("1", "0", (0, 3))
    traj = reconstruct_position(integrate_frame(p, R3, 0, 3, 1e-3), R3)
    nat = integrate_direction_curve(traj, "principal_normal", R3)
    tol = ToleranceSet(orthogonality=0.25, bertrand=0.5)
    reports = verify_mate_geometry(traj, nat, None, R3, tol)
    assert list(reports) == ["cor6_3", "cor6_4"]
    for theorem, tolerance in (("cor6_3", tol.orthogonality), ("cor6_4", tol.bertrand)):
        rep = reports[theorem]
        assert rep.theorem == theorem
        assert not rep.applicable and not rep.passed and rep.ok
        assert rep.max_residual is None and rep.tolerance == tolerance
        assert rep.hypothesis_note == "tau - tau_G vanishes identically"


# ---------------------------------------------------------------------------
# misc

def test_rel_spread():
    assert rel_spread([3.0, 3.0, 3.0]) == 0.0
    assert rel_spread([0.0, 1e-7]) == pytest.approx(1e-7)
    assert rel_spread([100.0, 100.001]) == pytest.approx(1e-5, rel=1e-3)


def _rel_spread_by_functions(x) -> float:
    """rel_spread written with numpy's reduction functions, the reference
    of its method form."""
    x = np.asarray(x, dtype=float)
    return float((np.max(x) - np.min(x)) / max(1.0, abs(float(np.mean(x)))))


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
_SHAPES = hnp.array_shapes(max_dims=1, min_side=1, max_side=64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
                 hnp.arrays(np.int64, _SHAPES),
                 st.lists(_FLOATS, min_size=1, max_size=64),
                 st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64)))
@example(np.array([2.5]))
@example([1.0, float("nan"), 3.0])
def test_rel_spread_equals_its_function_form_to_the_bit(x):
    with np.errstate(all="ignore"):
        assert float.hex(rel_spread(x)) == float.hex(_rel_spread_by_functions(x))
