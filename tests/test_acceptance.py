"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import numpy as np

from curvemates.analysis import (ToleranceSet, estimate_apparatus,
                                 spherical_check, verify_cor_3_1,
                                 verify_cor_3_2, verify_cor_6_1,
                                 verify_cor_6_2, verify_mate_geometry,
                                 verify_thm_4_1, verify_thm_5_2, verify_thm_6_2)
from curvemates.expressions import differentiate, evaluate, parse
from curvemates.integrate import (integrate_direction_curve, integrate_frame,
                                  reconstruct_position)
from curvemates.liegroup import R3, S3, SO3
from curvemates.mates import conjugate_mate_apparatus, natural_mate_apparatus
from curvemates.profiles import CurvatureProfile

from conftest import (GENERAL_HELIX_BATTERY, MATE_REFERENCE,
                      NON_GENERAL_HELIX_BATTERY, NON_SLANT_BATTERY,
                      SLANT_BATTERY)
from curvemates.catalog import PROFILES
from oracles import estimated_profile


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_mate_formulas_match_references():
    # four demo profiles with closed-form mates, 2001-point grids, 1e-12
    worst = 0.0
    for name in ("rectifying", "slant_helix", "spherical", "salkowski"):
        p = PROFILES[name].profile()
        ref = MATE_REFERENCE[name]
        s = np.linspace(p.s_min, p.s_max, 2001)
        nat = natural_mate_apparatus(p, R3)
        conj = conjugate_mate_apparatus(p, R3)
        worst = max(
            worst,
            float(np.max(np.abs(np.asarray(nat.kappa_at(s)) - ref["kappa_bar"](s)))),
            float(np.max(np.abs(np.asarray(nat.tau_at(s)) - ref["tau_bar"](s)))),
            float(np.max(np.abs(np.asarray(conj.kappa_at(s)) - ref["kappa_star"](s)))),
            float(np.max(np.abs(np.asarray(conj.tau_at(s)) - ref["tau_star"](s)))),
        )
    report(1, "closed-form mate apparatus <= 1e-12", worst <= 1e-12,
           f"max dev {worst:.3e}")


def test_criterion_2_anti_salkowski_mate_curvature():
    # the correct mate curvature is sqrt(2 + 9 cos^2 s); the superficially
    # similar sqrt(2 + 9 s^2) does not satisfy the mate identities
    p = PROFILES["anti_salkowski"].profile()
    nat = natural_mate_apparatus(p, R3)
    s = np.linspace(-1.5, 1.5, 2001)
    kb = np.asarray(nat.kappa_at(s))
    tb = np.asarray(nat.tau_at(s))
    dev_correct = float(np.max(np.abs(kb - np.sqrt(2 + 9 * np.cos(s) ** 2))))
    dev_tau = float(np.max(np.abs(
        tb - 3 * np.sqrt(2) * np.sin(s) / (2 + 9 * np.cos(s) ** 2))))
    dev_wrong = float(np.max(np.abs(kb - np.sqrt(2 + 9 * s ** 2))))
    ok = dev_correct <= 1e-12 and dev_tau <= 1e-12 and dev_wrong > 1.0
    report(2, "anti-Salkowski mate curvature discrepancy resolved", ok,
           f"correct dev {dev_correct:.2e}, tau dev {dev_tau:.2e}, "
           f"rejected form deviates by {dev_wrong:.2f}")


def test_criterion_3_end_to_end_oracle():
    # synthesize -> reconstruct -> estimate at h = 1e-3 within 1e-4;
    # the tolerance tightens twelvefold at h = 5e-4
    tolerances = {1e-3: 1e-4, 5e-4: 1e-4 / 12}
    worst = {h: 0.0 for h in tolerances}
    for entry in PROFILES.values():
        p = entry.profile()
        for h in tolerances:
            prof_est, _ = estimated_profile(p, R3, h)
            sg = prof_est.kappa_expr.s
            worst[h] = max(
                worst[h],
                float(np.max(np.abs(prof_est.kappa_expr.values
                                    - np.asarray(p.kappa_at(sg))))),
                float(np.max(np.abs(prof_est.tau_expr.values
                                    - np.asarray(p.tau_at(sg))))),
            )
    ok = all(worst[h] <= tol for h, tol in tolerances.items())
    report(3, "end-to-end apparatus recovery", ok,
           f"max err {worst[1e-3]:.2e} @ h=1e-3 (tol 1e-4), "
           f"{worst[5e-4]:.2e} @ h=5e-4 (tol {1e-4 / 12:.2e})")


def test_criterion_4_spherical_mate_theorems():
    analytic = ToleranceSet()
    estimated = ToleranceSet.estimated()
    checks = []

    rep = verify_thm_4_1(PROFILES["salkowski"].profile(), R3, analytic)
    checks.append(("thm4_1 analytic", rep.passed and rep.max_residual <= 1e-8
                   and abs(rep.details["radius"] - 1 / 3) <= 1e-8,
                   rep.max_residual))
    rep = verify_thm_5_2(PROFILES["spherical"].profile(), R3, analytic)
    checks.append(("thm5_2 analytic", rep.passed and rep.max_residual <= 1e-8
                   and abs(rep.details["a"] - 4 * np.sqrt(2)) <= 1e-8
                   and abs(rep.details["c"] - 2.0) <= 1e-8
                   and abs(rep.details["r"] - np.sqrt(2)) <= 1e-8,
                   rep.max_residual))
    rep = verify_thm_6_2(PROFILES["anti_salkowski"].profile(), R3, analytic)
    checks.append(("thm6_2 analytic", rep.passed and rep.max_residual <= 1e-8
                   and abs(rep.details["radius"] - 1 / np.sqrt(2)) <= 1e-8,
                   rep.max_residual))

    parent, _ = estimated_profile(PROFILES["salkowski"].profile(), R3, 1e-3)
    rep = verify_thm_4_1(parent, R3, estimated)
    checks.append(("thm4_1 estimated", rep.passed and rep.max_residual <= 1e-3,
                   rep.max_residual))
    parent, _ = estimated_profile(PROFILES["spherical"].profile(), R3, 1e-3)
    rep = verify_thm_5_2(parent, R3, estimated)
    checks.append(("thm5_2 estimated", rep.passed and rep.max_residual <= 1e-3,
                   rep.max_residual))
    parent, _ = estimated_profile(PROFILES["anti_salkowski"].profile(), R3, 1e-3)
    rep = verify_thm_6_2(parent, R3, estimated)
    checks.append(("thm6_2 estimated", rep.passed and rep.max_residual <= 1e-3,
                   rep.max_residual))

    ok = all(c[1] for c in checks)
    detail = ", ".join(f"{c[0]} {c[2]:.2e}" for c in checks)
    report(4, "spherical-mate theorems (analytic & estimated)", ok, detail)


def test_criterion_5_corollary_biconditionals():
    failures = []
    for k, t, dom in GENERAL_HELIX_BATTERY + NON_GENERAL_HELIX_BATTERY:
        p = CurvatureProfile.from_expressions(k, t, dom)
        if not verify_cor_3_1(p, R3).passed:
            failures.append(("cor3_1", k, t))
        if not verify_cor_6_1(p, R3).passed:
            failures.append(("cor6_1", k, t))
    for k, t, dom in SLANT_BATTERY + NON_SLANT_BATTERY:
        p = CurvatureProfile.from_expressions(k, t, dom)
        if not verify_cor_3_2(p, R3).passed:
            failures.append(("cor3_2", k, t))
        if not verify_cor_6_2(p, R3).passed:
            failures.append(("cor6_2", k, t))
    n_pos = len(GENERAL_HELIX_BATTERY) + len(SLANT_BATTERY)
    n_neg = len(NON_GENERAL_HELIX_BATTERY) + len(NON_SLANT_BATTERY)
    report(5, "corollary biconditionals, zero misclassifications",
           not failures,
           f"{n_pos} positive + {n_neg} negative profiles x 2 corollaries each"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_group_torsion_estimates():
    devs = {}
    for spec, tau in ((R3, "1"), (SO3, "1.5"), (S3, "2")):
        p = CurvatureProfile.from_expressions("2", tau, (0.0, 2.0))
        _, est = estimated_profile(p, spec, 1e-3)
        devs[spec.family] = float(np.max(np.abs(est.tau_g[est.valid]
                                                - spec.tau_g)))
    ok = all(d <= 1e-6 for d in devs.values())
    report(6, "estimated group torsion 0, 1/2, 1 within 1e-6", ok,
           ", ".join(f"{k}: {v:.2e}" for k, v in devs.items()))


def test_criterion_7_structural_invariants():
    slant = PROFILES["slant_helix"].profile()
    checks = []

    traj = integrate_frame(slant, R3, -1.5, 1.5, 1e-3)
    checks.append(("frame defect r3", traj.max_frame_defect, 1e-10))

    p = CurvatureProfile.from_expressions("1", "2", (0.0, 3.0))
    s3_traj = reconstruct_position(integrate_frame(p, S3, 0, 3, 1e-3), S3)
    checks.append(("frame defect s3", s3_traj.max_frame_defect, 1e-10))
    checks.append(("quaternion drift", s3_traj.max_element_defect, 1e-12))

    so3_traj = reconstruct_position(integrate_frame(p, SO3, 0, 3, 1e-3), SO3)
    checks.append(("matrix drift", so3_traj.max_element_defect, 1e-9))

    # frame rotation law residual with centered differences at h = 1e-4
    h = 1e-4
    fine = integrate_frame(slant, R3, -0.5, 0.5, h)
    m = fine.tau - R3.tau_g
    worst = 0.0
    for field in (fine.t, fine.n, fine.b):
        fd = (field[2:] - field[:-2]) / (2 * h)
        omega_alg = m[1:-1, None] * fine.t[1:-1] + fine.kappa[1:-1, None] * fine.b[1:-1]
        worst = max(worst, float(np.max(np.abs(
            fd - np.cross(omega_alg, field[1:-1])))))
    checks.append(("rotation-law residual @ h=1e-4", worst, 1e-6))

    ok = all(value <= tol for _, value, tol in checks)
    report(7, "structural invariants", ok,
           ", ".join(f"{name} {value:.2e} (tol {tol:g})"
                     for name, value, tol in checks))


def test_criterion_8_orthogonality_and_bertrand():
    results = []
    slant = PROFILES["slant_helix"].profile()
    traj = reconstruct_position(integrate_frame(slant, R3, -1.5, 1.5, 1e-3), R3)
    nat = integrate_direction_curve(traj, "principal_normal", R3)
    conj = integrate_direction_curve(traj, "binormal", R3)
    reports = verify_mate_geometry(traj, nat, conj, R3)
    rep_n, rep_c = reports["cor6_3"], reports["cor6_4"]
    results.append(("r3", rep_n, rep_c))

    p = CurvatureProfile.from_expressions("1", "2", (0.0, 3.0))
    traj = reconstruct_position(integrate_frame(p, S3, 0, 3, 1e-3), S3)
    nat = integrate_direction_curve(traj, "principal_normal", S3)
    conj = integrate_direction_curve(traj, "binormal", S3)
    reports = verify_mate_geometry(traj, nat, conj, S3)
    rep_n, rep_c = reports["cor6_3"], reports["cor6_4"]
    results.append(("s3", rep_n, rep_c))

    ok = True
    details = []
    for name, rn, rc in results:
        ok = ok and rn.passed and rc.passed
        details.append(
            f"{name}: ortho {max(rn.details['orthogonality_residual'], rc.details['orthogonality_residual']):.2e}, "
            f"bertrand {rc.details['bertrand_residual']:.2e}")
    report(8, "mutual orthogonality (1e-5) and Bertrand (1e-4)", ok,
           "; ".join(details))


def test_criterion_9_parser_on_demo_formulas():
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst = 0.0
    count = 0
    for entry in PROFILES.values():
        for text in (entry.kappa, entry.tau):
            e = parse(text)
            de = differentiate(e)
            lo, hi = entry.domain
            for s in rng.uniform(lo + 10 * h, hi - 10 * h, size=50):
                sym = evaluate(de, float(s))
                fd = (evaluate(e, s + h) - evaluate(e, s - h)) / (2 * h)
                worst = max(worst, abs(sym - fd) / (1 + abs(sym)))
            count += 1
    ok = worst <= 1e-6 and count == 10
    report(9, "parser + symbolic derivative vs central differences", ok,
           f"{count} formulas, worst rel dev {worst:.2e}")
