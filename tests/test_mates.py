import pickle
from collections import Counter

import numpy as np
import pytest

from curvemates import expressions as ex
from curvemates.analysis import (classify, verify_cor_3_1, verify_cor_3_2,
                                 verify_cor_3_3, verify_cor_3_4, verify_cor_5_2,
                                 verify_cor_6_1, verify_cor_6_2, verify_thm_4_1,
                                 verify_thm_5_1, verify_thm_5_2, verify_thm_6_2)
from curvemates.catalog import PROFILES
from curvemates.expressions import DifferentiationError
from curvemates.liegroup import R3, S3, SO3, bracket, group_spec
from curvemates.mates import (MateApparatus, NotAFrenetMate,
                              conjugate_mate_apparatus,
                              constant_curvature_inverse,
                              natural_mate_apparatus)
from curvemates.profiles import (CurvatureProfile, FrenetViolation,
                                 harmonic_curvature, sigma)

from conftest import MATE_REFERENCE
from oracles import mate_frames

MATE_BUILDERS = (("natural", natural_mate_apparatus),
                 ("conjugate", conjugate_mate_apparatus))


def shifted_expressions(name, p):
    """The demo profile in R^3, then in SO(3) and S^3 with its tau written
    as tau_G + (tau): tau - tau_G, and so the reference forms, are kept,
    and a mate torsion that drops tau_G is off by tau_G."""
    entry = PROFILES[name]
    return [(p, R3)] + [
        (CurvatureProfile.from_expressions(entry.kappa, f"{spec.tau_g!r}+({entry.tau})",
                                           entry.domain), spec)
        for spec in (SO3, S3)]


def test_natural_mate_matches_reference_forms(profiles):
    for name, p in profiles.items():
        ref = MATE_REFERENCE[name]
        s = np.linspace(p.s_min, p.s_max, 2001)
        for parent, spec in shifted_expressions(name, p):
            mate = natural_mate_apparatus(parent, spec)
            np.testing.assert_allclose(mate.kappa_at(s), ref["kappa_bar"](s),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(mate.tau_at(s), ref["tau_bar"](s) + spec.tau_g,
                                       rtol=0, atol=1e-12)


def test_conjugate_mate_matches_reference_forms(profiles):
    for name, p in profiles.items():
        ref = MATE_REFERENCE[name]
        s = np.linspace(p.s_min, p.s_max, 2001)
        # sampled copies too, tau shifted by tau_G and read at their nodes,
        # where tau* = kappa + tau_G differs from kappa
        copies = shifted_expressions(name, p) + [
            (CurvatureProfile.from_samples(s, p.kappa_at(s), p.tau_at(s) + spec.tau_g), spec)
            for spec in (R3, SO3, S3)]
        for parent, spec in copies:
            mate = conjugate_mate_apparatus(parent, spec)
            np.testing.assert_allclose(mate.kappa_at(s), ref["kappa_star"](s),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(mate.tau_at(s), ref["tau_star"](s) + spec.tau_g,
                                       rtol=0, atol=1e-12)


def test_conjugate_segments_split_at_torsion_zeros(profiles):
    mate = conjugate_mate_apparatus(profiles["slant_helix"], R3)
    assert len(mate.segments) == 2
    assert mate.segments[0].sign == -1
    assert mate.segments[1].sign == 1
    assert abs(mate.segments[0].s_max) < 5e-3
    assert abs(mate.segments[1].s_min) < 5e-3
    # the conjugate binormal is sign T
    binormal = mate_frames(profiles["slant_helix"], R3, "conjugate", [1.0, -1.0])[2]
    np.testing.assert_array_equal(binormal[:, 0], [1.0, -1.0])


def test_conjugate_requires_nonvanishing_torsion_gap():
    p = CurvatureProfile.from_expressions("5", "0", (0, 1))
    with pytest.raises(NotAFrenetMate):
        conjugate_mate_apparatus(p, R3)
    p2 = CurvatureProfile.from_expressions("5", "1", (0, 1))  # tau = tau_G on S3
    with pytest.raises(NotAFrenetMate):
        conjugate_mate_apparatus(p2, S3)


def test_mate_frames_orthonormal_and_right_handed(profiles):
    for p in profiles.values():
        for kind, builder in MATE_BUILDERS:
            mate = builder(p, R3)
            for seg in mate.segments:
                pad = 0.05 * (seg.s_max - seg.s_min)
                s = np.linspace(seg.s_min + pad, seg.s_max - pad, 64)
                t, n, b = mate_frames(p, R3, kind, s)
                for arr in (t, n, b):
                    np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0,
                                               atol=1e-12)
                np.testing.assert_allclose(np.sum(t * n, axis=1), 0.0, atol=1e-12)
                np.testing.assert_allclose(np.cross(t, n), b, atol=1e-12)


def test_mate_lie_torsion_equals_parent(profiles):
    # (1/2)<[T,N],B> of the mate frame equals the parent group torsion
    p = profiles["rectifying"]
    for spec in (R3, S3):
        for kind in ("natural", "conjugate"):
            s = np.linspace(1.1, 2.9, 17)
            t, n, b = mate_frames(p, spec, kind, s)
            for i in range(len(s)):
                val = 0.5 * np.dot(bracket(t[i], n[i], spec), b[i])
                assert val == pytest.approx(spec.tau_g, abs=1e-12)


def test_mate_harmonic_data_examples(profiles):
    natural = natural_mate_apparatus(profiles["slant_helix"], R3)
    s = np.linspace(-1.4, 1.4, 65)
    np.testing.assert_allclose(harmonic_curvature(natural.profile, R3, s), 1.0 / 3.0,
                               atol=1e-12)

    conj = conjugate_mate_apparatus(profiles["rectifying"], R3)
    s = np.linspace(1.1, 2.9, 65)
    np.testing.assert_allclose(harmonic_curvature(conj.profile, R3, s), 1.0 / (s + 2.0),
                               atol=1e-12)


def test_conjugate_harmonic_undefined_where_parent_h_vanishes():
    # H = 0 forces kappa* = 0, so the conjugate harmonic curvature blows up
    p = CurvatureProfile.from_expressions("2", "s", (-1, 1))
    mate = conjugate_mate_apparatus(p, R3)
    with pytest.raises(FrenetViolation):
        harmonic_curvature(mate.profile, R3, 0.0)


def test_sigma_of_mates_opposite_for_positive_torsion_gap():
    # monotone H with tau - tau_G > 0: sigma* + sigma = 0
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.3, 2.0)
        k = rng.uniform(0.5, 3.0)
        p = CurvatureProfile.from_expressions(
            f"{k}+0.3*cos(s)", f"({k}+0.3*cos(s))*({a}*s+{b})", (0.0, 1.0))
        conj = conjugate_mate_apparatus(p, R3)
        s = np.linspace(0.05, 0.95, 11)
        worst = max(worst, float(np.max(np.abs(sigma(conj.profile, R3, s)
                                               + sigma(p, R3, s)))))
    assert worst <= 1e-9


def test_constant_curvature_inverse_trivial():
    rec = constant_curvature_inverse("0", 3.0, R3, domain=(0, 2), n=201)
    np.testing.assert_allclose(rec.kappa_expr.values, 3.0, atol=1e-15)
    np.testing.assert_allclose(rec.tau_expr.values, 0.0, atol=1e-15)


def test_constant_curvature_inverse_arctangent_oracle():
    # tau_bar = 6/(9+4s^2) integrates to arctan(2s/3) exactly, so the parent
    # must be kappa = 3 cos(arctan(2s/3)) = 9/sqrt(9+4s^2) and
    # tau = 3 sin(arctan(2s/3)) = 6s/sqrt(9+4s^2)
    rec = constant_curvature_inverse("6/(9+4*s^2)", 3.0, R3, domain=(0, 2), n=4001)
    s = rec.kappa_expr.s
    np.testing.assert_allclose(rec.kappa_expr.values, 9 / np.sqrt(9 + 4 * s ** 2),
                               atol=1e-8)
    np.testing.assert_allclose(rec.tau_expr.values, 6 * s / np.sqrt(9 + 4 * s ** 2),
                               atol=1e-8)


def test_constant_curvature_inverse_round_trips():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(-0.3, 0.3, size=3)
        c = rng.uniform(0.5, 3.0)
        text = f"{a[0]}*sin(s)+{a[1]}*cos(2*s)+{a[2]}"
        rec = constant_curvature_inverse(text, c, R3, domain=(0.0, 1.0), n=2001)
        mate = natural_mate_apparatus(rec, R3)
        s = rec.kappa_expr.s[4:-4]
        vals = a[0] * np.sin(s) + a[1] * np.cos(2 * s) + a[2]
        worst = max(worst,
                    float(np.max(np.abs(mate.kappa_at(s) - c))),
                    float(np.max(np.abs(mate.tau_at(s) - vals))))
    assert worst <= 1e-8


def test_constant_curvature_inverse_reports_usable_subdomain():
    # steady positive tau_bar drives phi past pi/2 eventually
    with pytest.raises(FrenetViolation) as exc:
        constant_curvature_inverse("1", 2.0, R3, domain=(0.0, 3.0), n=301)
    assert exc.value.usable_subdomain is not None
    lo, hi = exc.value.usable_subdomain
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(np.pi / 2, abs=0.02)


def test_natural_mate_of_conjugate_is_congruent_to_natural_mate(profiles):
    # same curvature; torsion gap flips with the sign of tau - tau_G
    p = profiles["rectifying"]
    nat = natural_mate_apparatus(p, R3)
    conj = conjugate_mate_apparatus(p, R3)
    nat_of_conj = natural_mate_apparatus(conj.profile, R3)
    s = np.linspace(1.06, 2.99, 1001)   # tau - tau_G > 0 here
    np.testing.assert_allclose(nat_of_conj.kappa_at(s), nat.kappa_at(s),
                               atol=1e-10)
    np.testing.assert_allclose(nat_of_conj.tau_at(s) - R3.tau_g,
                               -(nat.tau_at(s) - R3.tau_g), atol=1e-10)


def test_linear_harmonic_identity():
    # H = a s + b profiles satisfy a kappa^2 = (tau_bar - tau_G) kappa_bar^2
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(0.2, 2.0) * rng.choice([-1, 1])
        b = rng.uniform(-0.5, 2.0)
        k0 = rng.uniform(0.5, 3.0)
        p = CurvatureProfile.from_expressions(
            f"{k0}+0.2*sin(s)", f"({k0}+0.2*sin(s))*({a}*s+{b})", (0.0, 1.0))
        mate = natural_mate_apparatus(p, R3)
        s = np.linspace(0.0, 1.0, 501)
        kappa = np.asarray(p.kappa_at(s))
        resid = (a * kappa ** 2
                 - (np.asarray(mate.tau_at(s)) - R3.tau_g)
                 * np.asarray(mate.kappa_at(s)) ** 2)
        assert np.max(np.abs(resid)) <= 1e-9


def test_mate_apparatus_kind_and_parent(profiles):
    # a mate holds its profile and segments; its parent keeps it under its
    # kind and group
    assert MateApparatus._fields == ("profile", "segments")
    p = profiles["salkowski"]
    mate = natural_mate_apparatus(p, R3)
    assert isinstance(mate, MateApparatus)
    assert p.mates[("natural", R3)] is mate
    conj = conjugate_mate_apparatus(p, R3)
    assert p.mates[("conjugate", R3)] is conj
    assert len(conj.segments) == 2  # split at s = 0


# ---------------------------------------------------------------------------
# a profile keeps its derivatives and its mates

THEOREM_CHECKS = (verify_thm_4_1, verify_thm_5_1, verify_thm_5_2, verify_thm_6_2,
                  verify_cor_3_1, verify_cor_3_2, verify_cor_3_3, verify_cor_3_4,
                  verify_cor_5_2, verify_cor_6_1, verify_cor_6_2)
CHECKS = (classify,) + THEOREM_CHECKS


def _pickled_reports(p, spec, checks):
    """Each check's report on (p, spec), pickled, run in the given order."""
    return {check.__name__: pickle.dumps(check(p, spec)) for check in checks}


def _mate_values(p, spec):
    s = np.linspace(p.s_min, p.s_max, 101)
    out = []
    for kind, build in MATE_BUILDERS:
        m = build(p, spec)
        out.append((kind, m.segments, m.profile.kappa_expr, m.profile.tau_expr,
                    m.kappa_at(s).tobytes(), m.tau_at(s).tobytes()))
    return out


def test_repeat_calls_return_the_same_mate():
    p = CurvatureProfile.from_expressions("3*cos(s)", "3*sin(s)", (-1.5, 1.5))
    for build in (natural_mate_apparatus, conjugate_mate_apparatus):
        first = build(p, SO3)
        assert build(p, SO3) is first
        assert build(p, group_spec("so3")) is first   # an equal spec
        assert build(p, S3) is not first


def test_one_profile_in_three_groups_matches_fresh_profiles():
    for entry in PROFILES.values():
        used = entry.profile()
        for spec in (R3, SO3, S3):
            fresh = entry.profile()
            assert (_pickled_reports(used, spec, CHECKS)
                    == _pickled_reports(fresh, spec, CHECKS))
            assert _mate_values(used, spec) == _mate_values(fresh, spec)


def test_reverse_order_on_a_used_profile_matches_forward_on_a_fresh_one():
    for entry in PROFILES.values():
        used = entry.profile()
        for spec in (R3, SO3, S3):
            _pickled_reports(used, spec, CHECKS)
        for spec in (R3, SO3, S3):
            assert (_pickled_reports(used, spec, CHECKS[::-1])
                    == _pickled_reports(entry.profile(), spec, CHECKS))


def test_failed_mates_raise_on_every_call():
    flat = CurvatureProfile.from_expressions("2", "0.5", (0, 1))
    for _ in range(2):
        with pytest.raises(NotAFrenetMate):
            conjugate_mate_apparatus(flat, SO3)
    p = CurvatureProfile.from_expressions("2+s^s", "1", (0.5, 1.5))
    for _ in range(2):
        with pytest.raises(DifferentiationError):
            natural_mate_apparatus(p, R3)
        with pytest.raises(DifferentiationError):
            p.kappa_prime_at(1.0)
    assert flat.mates == {} and p.mates == {}


def test_each_derivative_is_taken_once_per_profile(monkeypatch):
    # counted by expression object: a profile and its mates hold their own
    # expression trees, and two profiles may hold equal ones (in R3 the
    # conjugate mate's torsion equals the parent's curvature)
    seen = Counter()
    held = []
    differentiate = ex.differentiate

    def counting(e):
        seen[id(e)] += 1
        held.append(e)      # keeps every id distinct while counting
        return differentiate(e)

    monkeypatch.setattr(ex, "differentiate", counting)
    for entry in PROFILES.values():
        p = entry.profile()
        seen.clear()
        for spec in (R3, SO3, S3):
            for check in CHECKS:
                check(p, spec)
        assert seen and max(seen.values()) == 1, entry.name
