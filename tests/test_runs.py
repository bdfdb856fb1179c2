"""Run-length scans: the vectorised helper and its callers against
per-sample reference scans written out below."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemates.cli import main
from curvemates.liegroup import R3, runs
from curvemates.mates import (ZERO_TOL, Segment, _longest_run,
                              _mate_zero_structure, conjugate_mate_apparatus,
                              sign_segments)
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


def ref_crossings(s, m, zero_tol):
    valid = np.abs(m) > zero_tol
    out = []
    for i in range(len(s) - 1):
        if valid[i] and valid[i + 1] and np.sign(m[i]) != np.sign(m[i + 1]):
            out.append(float(s[i] - m[i] * (s[i + 1] - s[i]) / (m[i + 1] - m[i])))
        elif valid[i] and not valid[i + 1]:
            out.append(float(s[i + 1]))
    return out


def ref_longest_run(mask):
    best = None
    for i, j, flag in ref_runs(mask):
        if flag and (best is None or j - i > best[1] - best[0]):
            best = (i, j)
    return best


def exact(run_list):
    """Runs with each value spelled by repr, so -0.0 and NaN compare exactly."""
    return [(i, j, repr(v)) for i, j, v in run_list]


def bits(values):
    return [float(v).hex() for v in values]


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
def test_sign_segments_and_crossings_match_reference(m):
    s = np.linspace(-1.0, 2.0, len(m))
    assert sign_segments(s, m, ZERO_TOL) == ref_sign_segments(s, m, ZERO_TOL)
    profile = SimpleNamespace(grid=lambda n: s, tau_at=lambda _: m)
    _, _, valid, crossings = _mate_zero_structure(profile, R3, len(m))
    assert bits(crossings) == bits(ref_crossings(s, m, ZERO_TOL))
    # |m| equal to the tolerance is a zero: the test is strict
    assert not np.any(valid[np.abs(m) == ZERO_TOL])


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
# crossings of a mate with sign changes and an exact-zero stretch

def test_crossings_ordered_over_sign_changes_and_zero_stretch():
    # tau = 0 on [0, 1]; sign changes of cos(5s) at -pi/2, -3pi/10, -pi/10
    p = CurvatureProfile.from_expressions("2", "(abs(s)-s)*cos(5*s)", (-2.0, 1.0))
    s, m, _, crossings = _mate_zero_structure(p, R3, 2001)
    expected = ref_crossings(s, m, ZERO_TOL)
    assert bits(crossings) == bits(expected)
    assert crossings == sorted(crossings)
    assert np.allclose(crossings[:3], [-np.pi / 2, -3 * np.pi / 10, -np.pi / 10],
                       atol=1e-5)
    assert crossings[3] == float(s[np.argmax(s > 0.0)])   # first zero sample
    mate = conjugate_mate_apparatus(p, R3)
    assert mate.segments == ref_sign_segments(s, m, ZERO_TOL)
    assert [seg.sign for seg in mate.segments] == [-1, 1, -1, 1]


def test_conjugate_exit_4_lists_reference_crossings(capsys):
    # tau - tau_G never leaves the zero band: the mate is degenerate, and no
    # sample is valid, so no crossing can be listed
    tau = "1e-10*sin(40*s)"
    p = CurvatureProfile.from_expressions("2", tau, (0.0, 1.0))
    s = p.grid(2001)
    expected = ref_crossings(s, np.asarray(p.tau_at(s), dtype=float), ZERO_TOL)
    code = main(["mate", "--group", "r3", "--kappa", "2", "--tau", tau,
                 "--domain", "0:1", "--step", "1e-2",
                 "--kind", "conjugate", "--mode", "analytic"])
    err = capsys.readouterr().err
    assert code == 4
    listed = ", ".join(f"{c:.6g}" for c in expected) or "none (identically zero)"
    assert err.rstrip("\n").endswith(f"zero crossings of tau - tau_G: {listed}")
