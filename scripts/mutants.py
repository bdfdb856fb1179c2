"""Mutation corpus: single edits to the program that its tests should catch.

    python3 scripts/mutants.py [--rev REV] [--list] [NAME ...]

Run it from the root of the repository.  Each entry of MUTANTS is one edit:
a file, an exact text that occurs once in it, the text that replaces it,
and the tests expected to fail after it.  The script exports REV (default
HEAD) with ``git archive`` into a temporary directory and first runs every
named test there unedited; they must pass.  Then, for each entry (all of
them, or those named), it applies the edit to a fresh copy of the export,
runs the entry's tests with pytest, and reports the mutant as killed (a
test failed), survived (every test passed) or error (pytest could not run
the tests).  The exit status is 0 when every mutant run was killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from bench_ab import export


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    old: str            # occurs exactly once in path
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the paper's formulas
    Mutant("natural_kappa_drops_m", "src/curvemates/mates.py",
           'ex.Binary("+", ex.Binary("^", m, ex.Num(2.0)),',
           'ex.Binary("+", ex.Num(0.0),',
           ("tests/test_mates.py",)),
    Mutant("natural_tau_drops_one", "src/curvemates/mates.py",
           'one_h2 = ex.Binary("+", ex.Num(1.0),',
           'one_h2 = ex.Binary("+", ex.Num(0.0),',
           ("tests/test_mates.py",)),
    Mutant("natural_tau_drops_tau_g", "src/curvemates/mates.py",
           'tb = ex.simplify(ex.Binary("+", ex.Num(tg),',
           'tb = ex.simplify(ex.Binary("+", ex.Num(0.0),',
           ("tests/test_mates.py",)),
    Mutant("conjugate_kappa_drops_tau_g", "src/curvemates/mates.py",
           'kstar = ex.Unary("abs", m)',
           'kstar = ex.Unary("abs", p.tau_expr)',
           ("tests/test_mates.py",)),
    Mutant("conjugate_tau_drops_tau_g", "src/curvemates/mates.py",
           'tstar = ex.simplify(ex.Binary("+", p.kappa_expr, ex.Num(tg)))',
           'tstar = ex.simplify(ex.Binary("+", p.kappa_expr, ex.Num(0.0)))',
           ("tests/test_mates.py",)),
    Mutant("group_torsion_is_lam", "src/curvemates/liegroup.py",
           "return self.lam / 2.0",
           "return self.lam",
           ("tests/test_liegroup.py", "tests/test_integrate.py")),
    Mutant("group_lam_ignores_family", "src/curvemates/liegroup.py",
           "return _FAMILIES[self.family]",
           'return _FAMILIES["so3"]',
           ("tests/test_liegroup.py::test_group_spec_torsions",)),
    Mutant("harmonic_curvature_prime_sign", "src/curvemates/profiles.py",
           "num = self.tau_prime * self.kappa - self.m * self.kappa_prime",
           "num = self.tau_prime * self.kappa + self.m * self.kappa_prime",
           ("tests/test_profiles.py",)),
    Mutant("sigma_mask_at_zero", "src/curvemates/profiles.py",
           "defined = np.abs(hp) > SINGULAR_SIGMA_TOL",
           "defined = np.abs(hp) > 0.0",
           ("tests/test_profiles.py", "tests/test_cli.py")),
    Mutant("spherical_radius_squared", "src/curvemates/checks.py",
           "ok, math.sqrt(r_mean) if ok else None,",
           "ok, r_mean if ok else None,",
           ("tests/test_analysis.py",)),
    Mutant("magnus_commutator_sign", "src/curvemates/integrate.py",
           "h, spec.lam), steps)",
           "h, -spec.lam), steps)",
           ("tests/test_integrate.py", "tests/test_acceptance.py")),
    Mutant("frame_algebra_sign", "src/curvemates/integrate.py",
           "np.column_stack([tor - spec.tau_g, np.zeros_like(kap), kap])",
           "np.column_stack([spec.tau_g - tor, np.zeros_like(kap), -kap])",
           ("tests/test_integrate.py", "tests/test_acceptance.py")),
    Mutant("frame_transpose_dropped", "src/curvemates/integrate.py",
           "t=g[:, :, 0], n=g[:, :, 1], b=g[:, :, 2]",
           "t=g[:, 0], n=g[:, 1], b=g[:, 2]",
           ("tests/test_integrate.py",)),
    # the blocked scan: 4001 rows at h = 1e-3 cross one block boundary
    Mutant("scan_carry_dropped", "src/curvemates/integrate.py",
           "block[0] = mul(renormalize_element(spec, out[lo - 1]), block[0])",
           "block[0] = block[0]",
           ("tests/test_integrate.py::test_helix_matches_closed_form",)),
    Mutant("scan_carry_not_projected", "src/curvemates/integrate.py",
           "mul(renormalize_element(spec, out[lo - 1]), block[0])",
           "mul(out[lo - 1], block[0])",
           ("tests/test_integrate.py::test_defects_of_demo_profiles_stay_below_1e_12",)),
    Mutant("hermite_midpoint_sign", "src/curvemates/integrate.py",
           "slope = deriv[:-1] - deriv[1:]",
           "slope = deriv[1:] - deriv[:-1]",
           ("tests/test_integrate.py", "tests/test_acceptance.py")),
    Mutant("binormal_derivative_sign", "src/curvemates/integrate.py",
           "deriv = -m[:, None] * source.n",
           "deriv = m[:, None] * source.n",
           ("tests/test_integrate.py", "tests/test_acceptance.py")),
    Mutant("grid_count_floors", "src/curvemates/integrate.py",
           "max(1.0, float(np.rint((s1 - s0) / h)))",
           "max(1.0, float(np.floor((s1 - s0) / h)))",
           ("tests/test_integrate.py", "tests/test_cli.py")),
    Mutant("quat_product_cross_sign", "src/curvemates/liegroup.py",
           "out[..., 1] = pw * qx + qw * px + (py * qz - pz * qy)",
           "out[..., 1] = pw * qx + qw * px + (pz * qy - py * qz)",
           ("tests/test_liegroup.py",)),
    Mutant("rodrigues_skew_sign", "src/curvemates/integrate.py",
           "r[:, 0, 1] = bx * y - az",
           "r[:, 0, 1] = bx * y + az",
           ("tests/test_integrate.py",)),
    Mutant("simpson_middle_weight", "src/curvemates/liegroup.py",
           "(f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])",
           "(f[0:-2:2] + 2.0 * f[1:-1:2] + f[2::2])",
           ("tests/test_liegroup.py",)),
    Mutant("sigma_power", "src/curvemates/profiles.py",
           "self.kappa * (h * h + 1.0) ** 1.5",
           "self.kappa * (h * h + 1.0) ** 0.5",
           ("tests/test_profiles.py", "tests/test_analysis.py")),
    Mutant("estimated_torsion_drops_bracket", "src/curvemates/analysis.py",
           "tau = np.sum((nprime + 0.5 * tn_bracket) * bhat, axis=1)",
           "tau = np.sum(nprime * bhat, axis=1)",
           ("tests/test_analysis.py",)),
    Mutant("pi_parses_to_another_constant", "src/curvemates/expressions.py",
           "return Num(math.pi)",
           "return Num(math.e)",
           ("tests/test_expressions.py::test_pi_parses_to_the_number_pi",)),
    Mutant("sqrt_derivative_factor", "src/curvemates/expressions.py",
           'return Binary("/", du, Binary("*", Num(2.0), Unary("sqrt", u)))',
           'return Binary("/", du, Binary("*", Num(1.0), Unary("sqrt", u)))',
           ("tests/test_expressions.py",)),
    # the scanner's number rule and the precedence table
    Mutant("times_binds_like_plus", "src/curvemates/expressions.py",
           '_PREC = {"+": 1, "-": 1, "*": 2,',
           '_PREC = {"+": 1, "-": 1, "*": 1,',
           ("tests/test_expressions.py",)),
    Mutant("exponent_digits_optional", "src/curvemates/expressions.py",
           "(?:[eE][+-]?[0-9]+)?",
           "(?:[eE][+-]?[0-9]*)?",
           ("tests/test_expressions.py",)),
    # from earlier hand-made mutants
    Mutant("tan_derivative_drops_one", "src/curvemates/expressions.py",
           'return Binary("*", Binary("+", Num(1.0), sq), du)',
           'return Binary("*", sq, du)',
           ("tests/test_expressions.py",)),
    Mutant("samples_derivative_window_7", "src/curvemates/expressions.py",
           "return Samples(e.s, sg_derivative(e.values, e.s[1] - e.s[0], 5))",
           "return Samples(e.s, sg_derivative(e.values, e.s[1] - e.s[0], 7))",
           ("tests/test_expressions.py::test_samples_differentiate_by_the_window_5_filter",)),
    Mutant("so3_pull_back_right", "src/curvemates/liegroup.py",
           'a = np.einsum("...ja,...jb->...ab", g, dg)',
           'a = np.einsum("...aj,...bj->...ab", dg, g)',
           ("tests/test_liegroup.py", "tests/test_analysis.py")),
    Mutant("s3_pull_back_right", "src/curvemates/liegroup.py",
           "return quat_mul_rows(g * np.array([1.0, -1.0, -1.0, -1.0]), dg)[..., 1:]",
           "return quat_mul_rows(dg, g * np.array([1.0, -1.0, -1.0, -1.0]))[..., 1:]",
           ("tests/test_liegroup.py", "tests/test_analysis.py")),
    Mutant("csv_tie_fallback_dropped", "src/curvemates/csvfmt.py",
           "alone = np.abs(small - rounded) > 0.5 - _TIE",
           "alone = np.abs(small - rounded) > 0.5",
           ("tests/test_csvfmt.py",)),
    Mutant("csv_point_one_digit_off", "src/curvemates/csvfmt.py",
           "point, stop = 6 + x, 23",
           "point, stop = 7 + x, 23",
           ("tests/test_csvfmt.py",)),
    Mutant("csv_sign_byte_dropped", "src/curvemates/csvfmt.py",
           'sign = (r + 32) % 64 - 32, b"-" if 32 <= r < 96',
           'sign = (r + 32) % 64 - 32, b"\\0" if 32 <= r < 96',
           ("tests/test_csvfmt.py",)),
    Mutant("csv_trailing_zeros_off_by_one", "src/curvemates/csvfmt.py",
           "bytes([23 - i]) * 10 ** (3 - i)",
           "bytes([22 - i]) * 10 ** (3 - i)",
           ("tests/test_csvfmt.py",)),
    # the mate's direction, the CSV chunks and the grid too large for memory
    Mutant("mate_direction_swapped", "src/curvemates/cli.py",
           'which = "principal_normal" if kind == "natural" else "binormal"',
           'which = "binormal" if kind == "natural" else "principal_normal"',
           ("tests/test_cli.py",)),
    Mutant("csv_chunk_slice_overlaps", "src/curvemates/cli.py",
           "for i in range(0, total, rows):",
           "for i in range(0, total, rows - 1):",
           ("tests/test_cli.py::test_csv_chunks_join_to_one_formatting_of_the_table",)),
    Mutant("csv_blank_bounds_shifted", "src/curvemates/cli.py",
           "empty.T[blank[0], :n] = blank[1][i:i + n]",
           "empty.T[blank[0], :n] = blank[1][i + 1:i + n + 1]",
           ("tests/test_cli.py::test_csv_chunks_join_to_one_formatting_of_the_table",)),
    Mutant("estimator_grid_check_off_by_one", "src/curvemates/cli.py",
           "if n <= 2 * analysis.MARGIN:",
           "if n < 2 * analysis.MARGIN:",
           ("tests/test_cli.py::test_grid_too_short_for_the_estimator_exits_2",)),
    Mutant("grid_size_check_dropped", "src/curvemates/integrate.py",
           "if not n <= _MAX_SAMPLES:",
           "if False:",
           ("tests/test_cli.py::test_grid_too_large_for_memory_exits_2",)),
    Mutant("memory_error_not_converted", "src/curvemates/cli.py",
           "except MemoryError as e:",
           "except ArithmeticError as e:",
           ("tests/test_cli.py::test_grid_too_large_for_memory_exits_2",)),
    # the derivative filter, the estimator's margin, the spherical
    # segmentation and the sampled-profile checks
    Mutant("sg_end_window_one_off", "src/curvemates/liegroup.py",
           "_sg_coeffs(window, window - 1 - p)",
           "_sg_coeffs(window, window - 2 - p)",
           ("tests/test_liegroup.py",)),
    # the closed forms that stand in for LAPACK
    Mutant("sg_recurrence_drops_beta", "src/curvemates/liegroup.py",
           "p_prev, p = p, x * p - bk * p_prev",
           "p_prev, p = p, x * p",
           ("tests/test_liegroup.py",)),
    Mutant("polar_step_drops_half", "src/curvemates/liegroup.py",
           "step = [0.5 * (v + w / det) for v, w in zip(x, cof)]",
           "step = [(v + w / det) for v, w in zip(x, cof)]",
           ("tests/test_liegroup.py",)),
    Mutant("line_fit_uncentred", "src/curvemates/checks.py",
           "sc, yc = s - s.mean(), y - y.mean()",
           "sc, yc = s, y",
           ("tests/test_shared_samples.py::test_kept_statistics_equal_their_direct_computation",)),
    Mutant("estimator_margin_shrunk", "src/curvemates/analysis.py",
           "MARGIN = 3 * (DEFAULT_WINDOW // 2)",
           "MARGIN = 2 * (DEFAULT_WINDOW // 2)",
           ("tests/test_analysis.py",)),
    Mutant("spherical_zero_runs_never_merged", "src/curvemates/checks.py",
           "zero = np.convolve(triple, np.ones(3)) > 0",
           "zero = np.abs(m) <= tol.zero",
           ("tests/test_analysis.py",)),
    Mutant("sample_shape_check_dropped", "src/curvemates/profiles.py",
           "if not s_grid.shape == kappa_samples.shape == tau_samples.shape:",
           "if False:",
           ("tests/test_profiles.py",)),
    Mutant("sample_finite_check_dropped", "src/curvemates/profiles.py",
           "if not all(np.all(np.isfinite(a)) for a in (s_grid, kappa_samples, tau_samples)):",
           "if False:",
           ("tests/test_profiles.py",)),
    # the checks' residuals
    Mutant("spherical_closure_sign", "src/curvemates/checks.py",
           "resid = resid + hvals[sl]",
           "resid = resid - hvals[sl]",
           ("tests/test_analysis.py::test_both_closure_forms_vanish_on_a_spherical_profile",)),
    Mutant("spherical_integrated_closure_sign", "src/curvemates/checks.py",
           "drift = seg_u - seg_u[0] + seg_h",
           "drift = seg_u - seg_u[0] - seg_h",
           ("tests/test_analysis.py::test_estimated_paths_for_spherical_theorems",)),
    Mutant("signed_sqrt_one_branch", "src/curvemates/checks.py",
           "worst = max(worst, min(plus, minus))",
           "worst = max(worst, plus)",
           ("tests/test_analysis.py::test_cor_3_4",)),
    Mutant("bertrand_sign_dropped", "src/curvemates/checks.py",
           "np.max(np.minimum(diff_minus, diff_plus))",
           "np.max(diff_minus)",
           ("tests/test_analysis.py::test_mate_geometry_r3",)),
    Mutant("bertrand_best_sample", "src/curvemates/checks.py",
           "np.max(np.minimum(diff_minus, diff_plus))",
           "np.min(np.minimum(diff_minus, diff_plus))",
           ("tests/test_analysis.py::test_bertrand_residual_is_the_worst_sample",)),
    # the check-grid samples and spherical reports kept between checks
    Mutant("case_ignores_group", "src/curvemates/checks.py",
           "if case[0] is not p or case[1] != spec:",
           "if case[0] is not p:",
           ("tests/test_shared_samples.py",)),
    Mutant("case_swaps_the_mates", "src/curvemates/checks.py",
           '_MATES = {"natural": natural_mate_apparatus, "conjugate": conjugate_mate_apparatus}',
           '_MATES = {"natural": conjugate_mate_apparatus, "conjugate": natural_mate_apparatus}',
           ("tests/test_analysis.py",)),
    Mutant("spherical_report_ignores_tol", "src/curvemates/checks.py",
           "if tol not in entry.reports:\n"
           "        entry.reports[tol] = _spherical(entry.samples, tol)\n"
           "    return entry.reports[tol]",
           "if not entry.reports:\n"
           "        entry.reports[None] = _spherical(entry.samples, tol)\n"
           "    return entry.reports[None]",
           ("tests/test_shared_samples.py",)),
    Mutant("kept_spread_ignores_field", "src/curvemates/checks.py",
           "if field not in entry.spreads:\n"
           "        entry.spreads[field] = rel_spread(getattr(entry.samples, field))\n"
           "    return entry.spreads[field]",
           "if not entry.spreads:\n"
           "        entry.spreads[None] = rel_spread(getattr(entry.samples, field))\n"
           "    return entry.spreads[None]",
           ("tests/test_shared_samples.py::test_kept_statistics_equal_their_direct_computation",)),
    Mutant("thm5_1_gate_reads_parent", "src/curvemates/checks.py",
           'spread = _spread(natural, "kappa")',
           'spread = _spread(_entry(p, spec), "kappa")',
           ("tests/test_shared_samples.py::"
            "test_thm_5_1_decides_on_the_mates_check_grid_as_it_did_on_its_own",)),
    # the in-place work of the integrators and the estimator
    Mutant("magnus_scaling_dropped", "src/curvemates/integrate.py",
           "omega *= h / 6.0",
           "omega *= 1.0 / 6.0",
           ("tests/test_integrate.py::test_magnus_exact_on_constant_coefficients",)),
    Mutant("hermite_sum_in_callers_field", "src/curvemates/integrate.py",
           "mid = field[:-1] + field[1:]",
           "mid = field[:-1]\n    mid += field[1:]",
           ("tests/test_memory.py::test_pipeline_leaves_its_inputs_unchanged",)),
    Mutant("estimator_normalises_callers_positions", "src/curvemates/liegroup.py",
           "return np.asarray(dg, dtype=float)",
           "return np.asarray(g, dtype=float)",
           ("tests/test_memory.py::test_pipeline_leaves_its_inputs_unchanged",)),
    # the entry rule: main() owns the process and freezes its start-up heap
    Mutant("entry_point_skips_freeze", "src/curvemates/cli.py",
           "        gc.freeze()",
           "        pass",
           ("tests/test_cli.py::test_main_without_argv_freezes_the_start_up_heap",)),
)


def _pytest(root: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                           "-p", "no:cacheprovider", *tests],
                          cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def apply(root: Path, mutant: Mutant) -> None:
    """Replace mutant.old by mutant.new in its file under root; the old text
    must occur exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--rev", default="HEAD", help="the revision to mutate")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}  {m.path}  {' '.join(m.tests)}")
        return 0
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp, "clean")
        clean.mkdir()
        export(args.rev, clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(clean, tests) != 0:
            print(f"error: the named tests fail on the unedited {args.rev}", file=sys.stderr)
            return 2
        outcomes = {}
        for m in chosen:
            work = Path(tmp, "work")
            shutil.copytree(clean, work)
            start = time.perf_counter()
            try:
                apply(work, m)
                code = _pytest(work, m.tests)
            finally:
                shutil.rmtree(work)
            # pytest exits 1 when a test failed; other codes mean it did not run them
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            outcomes[m.name] = outcome
            print(f"{outcome:9s} {m.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
    killed = sum(o == "killed" for o in outcomes.values())
    print(f"{killed}/{len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
