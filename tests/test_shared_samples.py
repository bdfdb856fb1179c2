"""Consecutive checks of one profile share its case: the check-grid
samples of the profile and of its two mates, with their spherical reports,
the spreads of their fields and the line fit of H.  Whatever a check finds
kept, its report is the one a fresh run gives: in any order of checks,
across groups and tolerance sets, and from several threads at once.  Only
the case of the last profile checked is kept."""

import sys
import threading

import numpy as np
import pytest

from curvemates import checks
from curvemates.analysis import (ToleranceSet, classify, rel_spread, spherical_check,
                                 verify_cor_3_1, verify_cor_3_2, verify_cor_3_3,
                                 verify_cor_3_4, verify_cor_5_2, verify_cor_6_1,
                                 verify_cor_6_2, verify_thm_4_1, verify_thm_5_1,
                                 verify_thm_5_2, verify_thm_6_2)
from curvemates.catalog import SPHERICAL
from curvemates.checks import INVERSE_GRID_POINTS, _entry
from curvemates.liegroup import R3, S3, SO3
from curvemates.mates import conjugate_mate_apparatus, natural_mate_apparatus
from curvemates.profiles import CurvatureProfile, ProfileSamples

from conftest import (GENERAL_HELIX_BATTERY, NON_GENERAL_HELIX_BATTERY,
                      NON_SLANT_BATTERY, SLANT_BATTERY)

CHECKS = (classify, spherical_check, verify_thm_4_1, verify_thm_5_1,
          verify_thm_5_2, verify_thm_6_2, verify_cor_3_1, verify_cor_3_2,
          verify_cor_3_3, verify_cor_3_4, verify_cor_5_2, verify_cor_6_1,
          verify_cor_6_2)
GROUPS = (R3, SO3, S3)
BATTERY = (GENERAL_HELIX_BATTERY + NON_GENERAL_HELIX_BATTERY + SLANT_BATTERY
           + NON_SLANT_BATTERY)


def prof(kappa, tau, domain):
    return CurvatureProfile.from_expressions(kappa, tau, domain)


def outcome(check, p, spec, tol=ToleranceSet()):
    """The check's report, or the type and message of what it raised."""
    try:
        return check(p, spec, tol)
    except Exception as e:      # a check that raises must raise alike when shared
        return (type(e).__name__, str(e))


def fresh(check, entry, spec, tol=ToleranceSet()):
    """The check on a new profile object, which no earlier check has kept."""
    return outcome(check, prof(*entry), spec, tol)


def assert_same(a, b, where):
    """Equal reports: floats to the bit, arrays element by element."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, where
        assert np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"), where
    elif isinstance(a, float):
        assert float.hex(a) == float.hex(b), where
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for name, x, y in zip(getattr(a, "_fields", range(len(a))), a, b):
            assert_same(x, y, f"{where}.{name}")
    else:
        assert a == b, where


def battery_calls():
    """(battery index, group, check) for every check on every battery
    profile in every group, profile by profile."""
    return [(i, spec, check) for i in range(len(BATTERY))
            for spec in GROUPS for check in CHECKS]


@pytest.fixture(scope="module")
def reference():
    return {(i, spec, check): fresh(check, BATTERY[i], spec)
            for i, spec, check in battery_calls()}


def test_battery_in_forward_and_reverse_order_matches_fresh_runs(reference):
    # one profile object serves all three groups
    profiles = [prof(*entry) for entry in BATTERY]
    calls = battery_calls()
    for order in (calls, calls[::-1]):
        for i, spec, check in order:
            assert_same(outcome(check, profiles[i], spec), reference[i, spec, check],
                        f"{check.__name__}{BATTERY[i]} {spec.family}")


def test_battery_from_four_threads_matches_serial_results(reference):
    profiles = [prof(*entry) for entry in BATTERY]
    calls = battery_calls()
    results = [[] for _ in range(4)]

    def run(k):
        # each thread starts at its own quarter, so they meet on shared profiles
        start = k * len(calls) // 4
        for i, spec, check in calls[start:] + calls[:start]:
            results[k].append(((i, spec, check), outcome(check, profiles[i], spec)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for rows in results:
        assert len(rows) == len(calls)
        for key, got in rows:
            i, spec, check = key
            assert_same(got, reference[key], f"{check.__name__}{BATTERY[i]} {spec.family}")


def test_one_profile_object_in_two_groups():
    entry = ("2+cos(s)", "1+0.5*s", (0.0, 1.0))
    p = prof(*entry)
    for spec in (R3, SO3):
        for check in CHECKS:
            assert_same(outcome(check, p, spec), fresh(check, entry, spec),
                        f"{check.__name__} {spec.family}")
    assert _entry(p, R3) is not _entry(p, SO3)


def test_spherical_check_with_two_tolerance_sets_in_a_row():
    entry = SPHERICAL[1:]
    p = prof(*entry)
    strict, floor = ToleranceSet(), ToleranceSet(spherical_zero_rel=1.5)
    first = spherical_check(p, R3, strict)
    second = spherical_check(p, R3, floor)
    assert first.is_spherical and not second.is_spherical
    assert spherical_check(p, R3, strict) is first
    for tol, rep in ((strict, first), (floor, second)):
        assert_same(rep, fresh(spherical_check, entry, R3, tol), repr(tol))


def test_samples_are_shared_within_the_case_of_the_last_profile():
    p = prof("2", "1+0.5*s", (0.0, 1.0))
    parent = _entry(p, R3)
    assert parent is _entry(p, R3)
    assert classify(p, R3).spherical is spherical_check(p, R3)
    natural, conjugate = _entry(p, R3, "natural"), _entry(p, R3, "conjugate")
    assert len({id(parent), id(natural), id(conjugate)}) == 3
    assert natural.samples.profile is natural_mate_apparatus(p, R3).profile
    assert conjugate.samples.profile is conjugate_mate_apparatus(p, R3).profile
    verify_cor_3_1(p, R3)
    verify_cor_6_1(p, R3)
    for role, e in (("parent", parent), ("natural", natural), ("conjugate", conjugate)):
        assert _entry(p, R3, role) is e, role
    classify(prof("3", "s", (0.0, 1.0)), R3)
    assert _entry(p, R3) is not parent
    assert _entry(p, R3, "natural") is not natural


def test_a_checked_profile_is_released_once_another_is_checked():
    p = prof("2", "1+0.5*s", (0.0, 1.0))
    held = sys.getrefcount(p)
    for check in CHECKS:
        outcome(check, p, R3)
    classify(prof("3", "s", (0.0, 1.0)), R3)
    assert sys.getrefcount(p) == held


def test_thm_5_1_decides_on_the_mates_check_grid_as_it_did_on_its_own(monkeypatch):
    # the hypothesis is read from the mate's kept check-grid samples; the
    # fine grid of the quadrature round trip gives the same decisions here,
    # and an applicable report is the one a run with nothing kept gives
    applicable = 0
    for entry in BATTERY:
        p = prof(*entry)
        for spec in GROUPS:
            mate = natural_mate_apparatus(p, spec).profile
            fine = ProfileSamples(mate, spec, p.grid(INVERSE_GRID_POINTS)).kappa
            classify(p, spec)
            verify_thm_5_2(p, spec)
            rep = verify_thm_5_1(p, spec)
            where = f"{entry} {spec.family}"
            assert rep.applicable == (rel_spread(fine) <= ToleranceSet().constancy), where
            if rep.applicable:
                applicable += 1
                monkeypatch.setattr(checks, "_case", (None, None, {}))
                assert_same(rep, verify_thm_5_1(p, spec), where)
    # the circular helices in every group and the slant helices in r3
    assert applicable == 4 * len(GROUPS) + len(SLANT_BATTERY)


# the line fit of H is a closed form, checked against numpy's lstsq: its
# slope to within FIT_REL of the slope, its rms misfit to within FIT_REL of
# the range of H (the rectifying residual is that misfit over the range)
FIT_REL = 1e-12


def test_kept_statistics_equal_their_direct_computation():
    # whatever was kept first, each spread and the line fit of H are those
    # of their own field, computed here from samples no check has seen
    for entry in SLANT_BATTERY + NON_SLANT_BATTERY:
        p = prof(*entry)
        for spec in GROUPS:
            where = f"{entry} {spec.family}"
            verify_cor_3_2(p, spec)
            verify_thm_6_2(p, spec)
            v = classify(p, spec).verdicts
            ps = ProfileSamples(p, spec, p.grid())
            spread = {f: rel_spread(getattr(ps, f)) for f in ("kappa", "tau", "H", "sigma")}
            design = np.vstack([ps.s, np.ones_like(ps.s)]).T
            (slope, intercept), *_ = np.linalg.lstsq(design, ps.H, rcond=None)
            rms = float(np.sqrt(np.mean((ps.H - design @ [slope, intercept]) ** 2)))
            h_range = max(float(np.max(ps.H) - np.min(ps.H)), 1e-300)
            sigma_defined = not np.any(np.isnan(ps.sigma))
            for verdict, want in (("general_helix", spread["H"]),
                                  ("slant_helix", spread["sigma"] if sigma_defined else None),
                                  ("salkowski", spread["kappa"]),
                                  ("anti_salkowski", spread["tau"])):
                assert_same(v[verdict].residual, want, f"{where} {verdict}")
            kept_slope, kept_rms, kept_range = checks._line_fit(_entry(p, spec), "H")
            assert abs(kept_slope - slope) <= FIT_REL * abs(slope), where
            assert abs(kept_rms - rms) <= FIT_REL * h_range, where
            assert float.hex(kept_range) == float.hex(h_range), where
            assert abs(v["rectifying"].residual - rms / h_range) <= FIT_REL, where
            assert v["rectifying"].note == f"H fit slope {kept_slope:.6g}", where
            assert f"{kept_slope:.6g}" == f"{slope:.6g}", where
            mate = natural_mate_apparatus(p, spec).profile
            mate_h = rel_spread(ProfileSamples(mate, spec, mate.grid()).H)
            rep = verify_cor_3_2(p, spec)
            assert float.hex(rep.details["mate_H_spread"]) == float.hex(mate_h), where
