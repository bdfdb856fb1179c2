"""Run-length scans: the vectorised helper and its callers against
per-sample reference scans written out below."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemates.cli import main
from curvemates.liegroup import R3, runs
from curvemates.mates import (ZERO_TOL, Segment, _longest_run,
                              conjugate_mate_apparatus, sign_segments)
from curvemates.profiles import CurvatureProfile


# ---------------------------------------------------------------------------
# per-sample reference scans

def ref_runs(key):
    out = []
    i, n = 0, len(key)
    while i < n:
        j = i
        while j + 1 < n and key[j + 1] == key[i]:
            j += 1
        out.append((i, j, key[i].item()))
        i = j + 1
    return out


def ref_sign_segments(s, m, zero_tol):
    valid = np.abs(m) > zero_tol
    out = []
    i, n = 0, len(s)
    while i < n:
        if not valid[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and valid[j + 1] and np.sign(m[j + 1]) == np.sign(m[i]):
            j += 1
        out.append(Segment(float(s[i]), float(s[j]), int(np.sign(m[i]))))
        i = j + 1
    return tuple(out)


def ref_longest_run(mask):
    best = None
    for i, j, flag in ref_runs(mask):
        if flag and (best is None or j - i > best[1] - best[0]):
            best = (i, j)
    return best


def exact(run_list):
    """Runs with each value spelled by repr, so -0.0 and NaN compare exactly."""
    return [(i, j, repr(v)) for i, j, v in run_list]


# ---------------------------------------------------------------------------
# property tests

masks = st.lists(st.booleans(), max_size=60).map(lambda v: np.array(v, dtype=bool))
# few distinct values, so runs form; NaN, signed zeros and the tolerance edge
m_values = st.sampled_from([
    np.nan, 0.0, -0.0, 1.0, -1.0, 2.5, -3.0,
    ZERO_TOL, -ZERO_TOL, np.nextafter(ZERO_TOL, 1.0), -np.nextafter(ZERO_TOL, 1.0),
    np.nextafter(ZERO_TOL, 0.0)])
m_arrays = st.lists(m_values, max_size=60).map(lambda v: np.array(v, dtype=float))


@settings(max_examples=300, deadline=None)
@given(masks)
def test_runs_of_bool_mask_match_reference(mask):
    out = runs(mask)
    assert out == ref_runs(mask)
    assert all(type(v) is bool for _, _, v in out)


@settings(max_examples=300, deadline=None)
@given(m_arrays)
def test_runs_of_float_key_match_reference(key):
    assert exact(runs(key)) == exact(ref_runs(key))


@settings(max_examples=300, deadline=None)
@given(m_arrays)
def test_sign_segments_match_reference(m):
    s = np.linspace(-1.0, 2.0, len(m))
    segments = sign_segments(s, m, ZERO_TOL)
    assert segments == ref_sign_segments(s, m, ZERO_TOL)
    # |m| equal to the tolerance is a zero: the test is strict
    for seg in segments:
        inside = (s >= seg.s_min) & (s <= seg.s_max)
        assert not np.any(np.abs(m[inside]) == ZERO_TOL)


@settings(max_examples=300, deadline=None)
@given(masks)
def test_longest_run_matches_reference(mask):
    assert _longest_run(mask) == ref_longest_run(mask)


def test_longest_run_first_wins_a_tie():
    mask = np.array([False, True, True, False, True, True, False, True])
    assert _longest_run(mask) == (1, 2)
    assert _longest_run(np.zeros(4, dtype=bool)) is None
    assert runs(np.array([])) == []


# ---------------------------------------------------------------------------
# segments of a mate with sign changes and an exact-zero stretch

def test_crossings_ordered_over_sign_changes_and_zero_stretch():
    # tau = 0 on [0, 1]; sign changes of cos(5s) at -pi/2, -3pi/10, -pi/10
    p = CurvatureProfile.from_expressions("2", "(abs(s)-s)*cos(5*s)", (-2.0, 1.0))
    s = p.grid(2001)
    m = np.asarray(p.tau_at(s), dtype=float)
    mate = conjugate_mate_apparatus(p, R3)
    assert mate.segments == ref_sign_segments(s, m, ZERO_TOL)
    assert [seg.sign for seg in mate.segments] == [-1, 1, -1, 1]
    # each sign change lies in the one-step gap between consecutive segments
    h = s[1] - s[0]
    for left, right, crossing in zip(mate.segments, mate.segments[1:],
                                     [-np.pi / 2, -3 * np.pi / 10, -np.pi / 10]):
        assert left.s_max < crossing < right.s_min
        assert right.s_min - left.s_max == pytest.approx(h)
    # the last segment ends at the sample before the first zero sample
    assert mate.segments[-1].s_max == float(s[np.argmax(s > 0.0) - 1])


def test_conjugate_exit_4_names_the_vanishing_gap(capsys):
    # tau - tau_G never leaves the zero band: the mate is degenerate
    tau = "1e-10*sin(40*s)"
    code = main(["mate", "--group", "r3", "--kappa", "2", "--tau", tau,
                 "--domain", "0:1", "--step", "1e-2",
                 "--kind", "conjugate", "--mode", "analytic"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: tau - tau_G vanishes identically on [0.0, 1.0]\n"
