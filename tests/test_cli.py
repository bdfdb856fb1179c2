import ast
import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import expm

from curvemates.catalog import PROFILES
from curvemates import cli, csvfmt
from curvemates.cli import _CHUNK_CELLS, THEOREMS, _csv_rows, main
from curvemates.expressions import MAX_DEPTH
from curvemates.liegroup import group_spec, identity_element

from oracles import hat, left_translate


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_synthesize_row_count_and_header(tmp_path, capsys):
    out = tmp_path / "slant.csv"
    code, _, _ = run_cli(["synthesize", "--group", "r3", "--kappa", "3*cos(s)",
                          "--tau", "3*sin(s)", "--domain=-1.5:1.5",
                          "--step", "1e-3", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s", "x", "y", "z", "t1", "t2", "t3", "n1", "n2", "n3",
                      "b1", "b2", "b3", "kappa", "tau", "H", "sigma", "omega"]
    assert len(rows) == 3001
    assert float(rows[0][13]) == pytest.approx(3 * np.cos(-1.5))


def test_synthesize_deterministic(tmp_path, capsys):
    args = ["synthesize", "--group", "r3", "--kappa", "s-1", "--tau", "s^2+s-2",
            "--domain", "1.05:3", "--step", "1e-2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_synthesize_s3_quaternion_norms(tmp_path, capsys):
    out = tmp_path / "s3.csv"
    code, _, _ = run_cli(["synthesize", "--group", "s3", "--kappa", "1",
                          "--tau", "1", "--domain", "0:6.283185",
                          "--step", "1e-3", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header[1:5] == ["qw", "qx", "qy", "qz"]
    q = np.array([[float(c) for c in row[1:5]] for row in rows[::500]])
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)


def test_synthesize_sigma_empty_for_constant_h(tmp_path, capsys):
    out = tmp_path / "helix.csv"
    code, _, _ = run_cli(["synthesize", "--group", "r3", "--kappa", "2",
                          "--tau", "1", "--domain", "0:1", "--step", "1e-2",
                          "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    assert all(row[16] == "" for row in rows)  # sigma column stays empty


@pytest.mark.parametrize("name", ["slant_helix", "anti_salkowski"])
def test_synthesize_sigma_matches_scalar_formula(name, tmp_path, capsys):
    entry = PROFILES[name]
    out = tmp_path / "sigma.csv"
    code, _, _ = run_cli(["synthesize", "--group", "r3", "--kappa", entry.kappa,
                          "--tau", entry.tau,
                          f"--domain={entry.domain[0]!r}:{entry.domain[1]!r}",
                          "--step", "1e-3", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    cells = [row[header.index("sigma")] for row in rows]
    p = entry.profile()
    s = np.array([float(row[0]) for row in rows])
    k, m = p.kappa_at(s), p.tau_at(s)  # tau_G = 0 in r3
    hp = (p.tau_prime_at(s) * k - m * p.kappa_prime_at(s)) / k**2
    assert [c == "" for c in cells] == (np.abs(hp) <= 1e-12).tolist()
    assert any(c == "" for c in cells) == (name == "anti_salkowski")
    # element by element in Python floats, so the power is libm's pow
    for c, kk, h, d in zip(cells, k.tolist(), (m / k).tolist(), hp.tolist()):
        if c:
            ref = kk * (h**2 + 1.0) ** 1.5 / d
            assert abs(float(c) - ref) <= 4 * np.spacing(abs(ref))


def per_cell_csv(rows):
    """Reference CSV body: each cell formatted on its own, "" left empty."""
    return "".join(",".join(c if isinstance(c, str) else f"{c:.17g}" for c in row)
                   + "\n" for row in rows)


def test_csv_templates_match_per_cell_formatting():
    rng = np.random.default_rng(7)
    n = 1300                            # spans several formatting chunks
    a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
               -1e300, 123456789012345678.0, 0.1, 1 / 3, 1e16, -2.5e-8]
    a[:len(special)] = special
    b = rng.normal(size=(n, 3))
    b[0] = [-0.0, 1e-300, -1e300]
    c = rng.normal(size=n) * 1e12
    blank = rng.random(n) < 0.2
    blank[:3] = True
    blank[-1] = True
    rows = [[float(a[i]), *b[i], "" if blank[i] else float(c[i]), float(-a[i])]
            for i in range(n)]
    body = "".join(_csv_rows([a, b, c, -a], blank=(4, blank)))
    assert body == per_cell_csv(rows)
    assert "".join(_csv_rows([a, b])) == per_cell_csv(
        [[float(a[i]), *b[i]] for i in range(n)])
    # verify traces: a literal first cell, blank residuals where not finite
    resid = c.copy()
    resid[blank] = np.nan
    resid[5] = np.inf
    traced = [["cor6_1", float(a[i]), float(resid[i]) if np.isfinite(resid[i]) else ""]
              for i in range(n)]
    body = "".join(_csv_rows([a, resid], blank=(1, ~np.isfinite(resid)),
                             prefix="cor6_1,"))
    assert body == per_cell_csv(traced)


@pytest.mark.parametrize("width", [2, 8, 9, 14, 24])
def test_csv_chunks_join_to_one_formatting_of_the_table(width):
    # chunks of _CHUNK_CELLS // width rows: around each chunk boundary the
    # body equals one formatting of the whole table, byte for byte
    rows = _CHUNK_CELLS // width
    rng = np.random.default_rng(width)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
        first = rng.normal(size=n) * 1e3
        rest = rng.normal(size=(n, width - 1))
        mask = np.zeros(n, bool)
        mask[max(0, rows - 2):rows + 2] = True      # straddles the first boundary
        mask[-1] = True
        cells = np.column_stack([first, rest])
        blanked = [0, width - 1]
        empty = np.zeros(cells.shape, bool)
        empty[:, blanked] = mask[:, None]
        body = "".join(_csv_rows([first, rest], blank=(blanked, mask), prefix="p,"))
        assert body == csvfmt.format_rows(cells, empty, "p,"), (width, n)
        assert "".join(_csv_rows([first, rest])) == csvfmt.format_rows(cells), (width, n)


def test_frenet_violation_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run_cli(["synthesize", "--group", "r3", "--kappa=-1",
                            "--tau", "0", "--domain", "0:1", "--step", "1e-3",
                            "--out", str(out)], capsys)
    assert code == 2
    assert "Frenet condition violated" in err
    assert not out.exists()


def test_domain_error_exits_3_and_removes_output(tmp_path, capsys):
    # negative sqrt argument only inside a pit narrower than the pre-checks
    out = tmp_path / "partial.csv"
    code, _, err = run_cli(["synthesize", "--group", "r3",
                            "--kappa", "sqrt(abs(s-0.1235)-0.0001)+1",
                            "--tau", "0", "--domain", "0:1", "--step", "1e-3",
                            "--out", str(out)], capsys)
    assert code == 3
    assert "domain error" in err
    assert not out.exists()


def test_domain_error_text_names_the_first_s(capsys):
    code, out, err = run_cli(["classify", "--group", "r3", "--kappa", "1/s+2",
                              "--tau", "1", "--domain=-1:1", "--step", "0.01"], capsys)
    assert code == 3 and out == ""
    assert err == "domain error: domain error in '1.0/s' near s=0.0\n"


@pytest.mark.parametrize("kappa,offset", [("1e999", 0), ("s+1e999", 2)])
def test_non_finite_literal_exits_2(kappa, offset, capsys):
    # 1e999 reads as inf, a constant curvature that no numpy fault would flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "--group", "r3", "--kappa", kappa,
                                  "--tau", "s", "--domain=0:1", "--step", "0.01"],
                                 capsys)
    assert code == 2 and out == ""
    assert err == f"error: number '1e999' is out of range at offset {offset}\n"


@pytest.mark.parametrize("command", [["synthesize"], ["classify"],
                                     ["verify", "--theorems", "thm6_2"]])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(command + ["--group", "r3", "--kappa", "3*cos(s)",
                                      "--tau", "sqrt(2)", "--domain=-1.5:1.5",
                                      "--step", "1e-2", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["synthesize"], ["mate"], ["classify"],
                                     ["verify", "--theorems", "thm6_2"]])
def test_out_naming_a_directory_exits_2_and_keeps_it(command, tmp_path, capsys):
    out = tmp_path / "a_directory"
    out.mkdir()
    (out / "inside.txt").write_text("kept", encoding="utf-8")
    code, stdout, err = run_cli(command + ["--group", "r3", "--kappa", "3*cos(s)",
                                           "--tau", "sqrt(2)", "--domain=-1.5:1.5",
                                           "--step", "1e-2", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ")
    assert (out / "inside.txt").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("command", [["synthesize"], ["mate"], ["classify"],
                                     ["verify", "--theorems", "thm6_2"]])
@pytest.mark.parametrize("flags,code", [(["--kappa", "1", "--step=-1"], 2),
                                        (["--kappa", "sqrt(s)", "--step", "1e-2"], 3)],
                         ids=["config-error", "domain-error"])
def test_failing_command_keeps_an_existing_out_file(command, flags, code, tmp_path,
                                                    capsys):
    # the command fails before it writes: a file it did not write stays as it was
    out = tmp_path / "keep.csv"
    out.write_bytes(b"written earlier\r\n")
    assert run_cli(command + ["--group", "r3", "--tau", "1", "--domain=-1:1",
                              "--out", str(out)] + flags, capsys)[0] == code
    assert out.read_bytes() == b"written earlier\r\n"


class FullAfterOneWrite(io.FileIO):
    """A file whose writes fail as on a full disk once it holds any bytes."""

    def write(self, b):
        if self.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(b)


@pytest.mark.parametrize("command", [["synthesize"], ["verify", "--theorems", "thm6_2"]])
def test_write_failing_partway_removes_the_partial_file(command, tmp_path, capsys,
                                                       monkeypatch):
    from curvemates import cli
    opened = []

    def open_full(path, mode, **kwargs):
        opened.append(path)
        raw = FullAfterOneWrite(path, mode)
        return io.TextIOWrapper(io.BufferedWriter(raw), **kwargs)

    monkeypatch.setattr(cli, "open", open_full, raising=False)
    out = tmp_path / "partial.csv"
    code, stdout, err = run_cli(command + ["--group", "r3", "--kappa", "3*cos(s)",
                                           "--tau", "sqrt(2)", "--domain=-1.5:1.5",
                                           "--step", "1e-3", "--out", str(out)], capsys)
    assert opened == [str(out)]
    assert (code, stdout) == (2, "")       # verify: no report after a failed trace
    assert err.startswith(f"error: cannot write {out}: [Errno {errno.ENOSPC}]")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_failing_on_a_pipe_keeps_the_pipe(tmp_path):
    # the reader hangs up after one byte; only a regular file is removed
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    cmd = [sys.executable, "-m", "curvemates.cli", "synthesize", "--group", "r3",
           "--kappa", "2", "--tau", "1", "--domain", "0:1", "--step", "1e-3",
           "--out", str(fifo)]
    cp = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        data, deadline = b"", time.monotonic() + 120
        try:
            # b"" until the command opens the pipe, BlockingIOError until it writes
            while not data and cp.poll() is None and time.monotonic() < deadline:
                try:
                    data = os.read(reader, 1)
                except BlockingIOError:
                    pass
                time.sleep(0.01)
        finally:
            os.close(reader)
        stdout, err = cp.communicate(timeout=120)
    finally:
        cp.kill()           # a no-op once the command has exited
        cp.wait()
    assert data
    assert (cp.returncode, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {fifo}: [Errno {errno.EPIPE}]")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_write_failing_on_stdout_exits_2():
    # the reader closes stdout after one line, long before the CSV ends
    cmd = [sys.executable, "-m", "curvemates.cli", "synthesize", "--group", "r3",
           "--kappa", "2", "--tau", "1", "--domain", "0:1", "--step", "1e-3"]
    cp = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = cp.stdout.readline()
        cp.stdout.close()
        _, err = cp.communicate(timeout=120)
    finally:
        cp.kill()           # a no-op once the command has exited
        cp.wait()
    assert first.startswith("s,x,y,z,")
    assert cp.returncode == 2
    # nothing else: no traceback, and no second failure at the final flush
    assert err == (f"error: cannot write stdout: [Errno {errno.EPIPE}] "
                   f"{os.strerror(errno.EPIPE)}\n")


def test_verify_prints_nothing_when_out_cannot_be_written(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(["verify", "--theorems", "thm6_2", "--group", "r3",
                                 "--kappa", "3*cos(s)", "--tau", "sqrt(2)",
                                 "--domain=-1.5:1.5", "--step", "1e-2",
                                 "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write")


def test_mate_analytic_columns(tmp_path, capsys):
    out = tmp_path / "conj.csv"
    code, _, _ = run_cli(["mate", "--group", "r3", "--kappa", "s-1",
                          "--tau", "s^2+s-2", "--domain", "1.05:3",
                          "--step", "1e-3", "--kind", "conjugate",
                          "--mode", "analytic", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["s", "kappa", "tau"]
    assert len(rows) == 1951
    s = np.array([float(r[0]) for r in rows])
    np.testing.assert_array_equal(s, np.linspace(1.05, 3, 1951))
    kap = np.array([float(r[1]) for r in rows])
    tau = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(kap, np.abs(s ** 2 + s - 2), atol=1e-12)
    np.testing.assert_allclose(tau, s - 1, atol=1e-12)


def test_mate_both_summary(tmp_path, capsys):
    out = tmp_path / "mate.csv"
    code, stdout, _ = run_cli(["mate", "--group", "r3", "--kappa", "3",
                               "--tau", "2*s", "--domain=-3:3", "--step", "1e-3",
                               "--kind", "natural", "--mode", "both",
                               "--out", str(out)], capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["schema_version"] == "1"
    assert summary["max_abs_kappa_diff"] <= 1e-4
    assert summary["max_abs_tau_diff"] <= 1e-4
    header, rows = read_csv(out)
    assert header[:3] == ["s", "kappa_analytic", "tau_analytic"]
    assert len(rows) == 6001


def test_mate_geometric_mode(tmp_path, capsys):
    out = tmp_path / "geo.csv"
    code, _, _ = run_cli(["mate", "--group", "r3", "--kappa", "3*cos(s)",
                          "--tau", "3*sin(s)", "--domain=-1:1", "--step", "1e-2",
                          "--kind", "natural", "--mode", "geometric",
                          "--out", str(out)], capsys)
    assert code == 0
    header, _ = read_csv(out)
    assert header == ["s", "x", "y", "z", "kappa_est", "tau_est"]


@pytest.mark.parametrize("command", [["mate", "--mode", "both"],
                                     ["verify", "--theorems", "cor6_3"],
                                     ["verify", "--theorems", "cor6_4"],
                                     ["mate", "--mode", "geometric", "--kind", "natural"],
                                     ["mate", "--mode", "geometric", "--kind", "conjugate"]])
def test_grid_too_short_for_the_estimator_exits_2(command, tmp_path, capsys):
    # the estimator leaves 15 samples out at each end: 30 leave none to compare
    out = tmp_path / "short.csv"
    args = command + ["--group", "so3", "--kappa", "2", "--tau", "1",
                      "--step", "0.01", "--out", str(out)]
    for extra, n in ((["--domain=0:0.29"], 30), (["--domain=0:1", "--step", "0.1"], 11)):
        code, stdout, err = run_cli(args + extra, capsys)
        assert (code, stdout) == (2, "")
        assert err == (f"error: the grid has {n} samples; comparing estimated values "
                       "needs at least 31\n")
        assert not out.exists()
    code, stdout, _ = run_cli(args + ["--domain=0:0.3"], capsys)
    assert code == 0
    if "both" in command:
        assert json.loads(stdout)["samples_compared"] == 1


@pytest.mark.parametrize("group", ["r3", "so3", "s3"])
@pytest.mark.parametrize("kind", ["natural", "conjugate"])
def test_mate_analytic_checks_the_parent_frenet_condition(group, kind, capsys):
    # kappa = s is no Frenet curve at s <= 0: every mode says so alike
    tau = f"{group_spec(group).tau_g!r}+1"
    for mode in ("analytic", "both"):
        code, out, err = run_cli(["mate", "--group", group, "--kappa", "s", "--tau", tau,
                                  "--domain=-1:1", "--step", "1e-2", "--kind", kind,
                                  "--mode", mode], capsys)
        assert (code, out) == (2, "")
        assert err == "error: Frenet condition violated: kappa <= 0\n"


@pytest.mark.parametrize("group", ["r3", "so3", "s3"])
def test_mate_analytic_conjugate_is_empty_where_no_frenet_curve(group, capsys):
    # tau - tau_G = max(s, 0): the conjugate mate has one segment, on s > 0
    tau_g = group_spec(group).tau_g
    code, out, _ = run_cli(["mate", "--group", group, "--kappa", "1",
                            "--tau", f"{tau_g!r}+0.5*(s+abs(s))", "--domain=-2:2",
                            "--step", "1e-2", "--kind", "conjugate",
                            "--mode", "analytic"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 401
    for row in rows:
        s = float(row[0])
        if s <= 0:
            assert row[1:] == ["", ""], row
        else:
            assert float(row[1]) == pytest.approx(s, abs=1e-12)
            assert float(row[2]) == pytest.approx(1 + tau_g, abs=1e-12)


def test_conjugate_of_flat_torsion_exits_4(capsys):
    code, _, err = run_cli(["mate", "--group", "r3", "--kappa", "2", "--tau", "0",
                            "--domain", "0:1", "--step", "1e-2",
                            "--kind", "conjugate", "--mode", "analytic"], capsys)
    assert code == 4
    assert "vanishes identically" in err


def test_classify_slant(capsys):
    code, stdout, _ = run_cli(["classify", "--group", "r3", "--kappa", "3*cos(s)",
                               "--tau", "3*sin(s)", "--domain=-1.5:1.5",
                               "--step", "1e-3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["schema_version"] == "1"
    assert report["verdicts"]["slant_helix"]["pass"]
    assert report["verdicts"]["slant_helix"]["residual"] <= 1e-9
    assert [seg["sign"] for seg in report["segments"]] == [-1, 1]
    assert stdout.endswith('''
  "tolerances": {
    "constancy": 1e-06,
    "residual": 1e-08,
    "spherical_spread": 1e-06,
    "spherical_residual": 1e-06,
    "zero": 1e-09,
    "spherical_zero_rel": 0.0,
    "rectifying_slope_min": 1e-06,
    "tangent": 1e-05,
    "bertrand": 0.0001,
    "orthogonality": 1e-05
  }
}
''')


def test_classify_spherical_radius(capsys):
    code, stdout, _ = run_cli(["classify", "--group", "r3",
                               "--kappa", "2*(1+7*sin(2*s)^2)^(-1/2)",
                               "--tau", "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)",
                               "--domain", "0:3.141592653589793",
                               "--step", "1e-3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["spherical"]["pass"]
    assert report["spherical"]["radius"] == pytest.approx(1.41421356, abs=1e-6)


def test_classify_anti_salkowski(capsys):
    code, stdout, _ = run_cli(["classify", "--group", "r3", "--kappa", "3*cos(s)",
                               "--tau", "sqrt(2)", "--domain=-1.5:1.5",
                               "--step", "1e-3"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["verdicts"]["anti_salkowski"]["pass"]
    assert not report["verdicts"]["salkowski"]["pass"]


def test_verify_commands(capsys, tmp_path):
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "3",
                               "--tau", "2*s", "--domain=-3:3", "--step", "1e-3",
                               "--theorems", "thm4_1"], capsys)
    assert code == 0
    report = json.loads(stdout)
    entry = report["results"][0]
    assert entry["pass"] and entry["details"]["radius"] == pytest.approx(1 / 3)

    code, stdout, _ = run_cli(["verify", "--group", "r3",
                               "--kappa", "2*(1+7*sin(2*s)^2)^(-1/2)",
                               "--tau", "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)",
                               "--domain", "0:3.141592653589793", "--step", "1e-3",
                               "--theorems", "thm5_2,thm5_1"], capsys)
    assert code == 0
    report = json.loads(stdout)
    t52 = report["results"][0]
    assert t52["pass"]
    assert t52["details"]["a"] == pytest.approx(4 * np.sqrt(2), abs=1e-8)
    assert t52["details"]["c"] == pytest.approx(2.0, abs=1e-9)

    out = tmp_path / "trace.csv"
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "3*cos(s)",
                               "--tau", "sqrt(2)", "--domain=-1.5:1.5",
                               "--step", "1e-3", "--theorems", "thm6_2",
                               "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["results"][0]["details"]["radius"] == pytest.approx(
        1 / np.sqrt(2), abs=1e-8)
    header, rows = read_csv(out)
    assert header == ["theorem", "s", "residual"]
    assert rows and rows[0][0] == "thm6_2"


def test_verify_mate_geometry_theorems(capsys):
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "2",
                               "--tau", "1", "--domain", "0:2", "--step", "1e-2",
                               "--theorems", "cor6_3,cor6_4"], capsys)
    assert code == 0
    results = {r["theorem"]: r for r in json.loads(stdout)["results"]}
    assert results["cor6_3"]["pass"]
    assert results["cor6_4"]["pass"]
    assert results["cor6_4"]["details"]["bertrand_residual"] <= 1e-4

    # planar profile: conjugate mate degenerate, flagged not applicable
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "2",
                               "--tau", "0", "--domain", "0:2", "--step", "1e-2",
                               "--theorems", "cor6_4"], capsys)
    assert code == 0
    entry = json.loads(stdout)["results"][0]
    assert not entry["applicable"]


def test_verify_estimates_each_mate_curve_once(capsys, monkeypatch):
    # cor6_3 and cor6_4 read one estimate each of the parent and its two
    # direction curves, and no other theorem estimates anything
    from curvemates import checks
    estimate_apparatus = checks.estimate_apparatus
    calls = []

    def counting(curve, spec):
        calls.append(curve)
        return estimate_apparatus(curve, spec)

    monkeypatch.setattr(checks, "estimate_apparatus", counting)
    base = ["verify", "--group", "so3", "--kappa", "3*cos(s)", "--tau", "sqrt(2)",
            "--domain=-1.5:1.5", "--step", "1e-2"]
    for theorems in ("cor6_3,cor6_4", ",".join(THEOREMS)):
        calls.clear()
        code, _, _ = run_cli(base + ["--theorems", theorems], capsys)
        assert code == 0
        assert len(calls) == 3
        assert len({id(curve) for curve in calls}) == 3


def test_verify_integrates_mate_curves_once(capsys, tmp_path, monkeypatch):
    from curvemates import cli
    integrate_frame = cli.integrate_frame
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_frame(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_frame", counting)
    base = ["verify", "--group", "so3", "--kappa", "3*cos(s)", "--tau", "sqrt(2)",
            "--domain=-1.5:1.5", "--step", "1e-2"]
    together = tmp_path / "together.csv"
    code, stdout, _ = run_cli(base + ["--theorems", "cor6_3,thm6_2,cor6_4",
                                      "--out", str(together)], capsys)
    assert code == 0
    assert len(calls) == 1

    # one theorem at a time: the same entries and trace rows
    entries, body, ok = [], "", True
    for theorem in ("cor6_3", "thm6_2", "cor6_4"):
        alone = tmp_path / f"{theorem}.csv"
        _, alone_stdout, _ = run_cli(base + ["--theorems", theorem,
                                             "--out", str(alone)], capsys)
        payload = json.loads(alone_stdout)
        entries += payload["results"]
        ok = ok and payload["all_ok"]
        if alone.exists():
            body += alone.read_text(encoding="utf-8").split("\n", 1)[1]
    assert len(calls) == 3
    assert body
    payload["results"], payload["all_ok"] = entries, ok
    assert stdout == json.dumps(payload, indent=2) + "\n"
    assert together.read_text(encoding="utf-8") == "theorem,s,residual\n" + body

    # a command without cor6_3/cor6_4 integrates nothing
    run_cli(base + ["--theorems", "thm6_2"], capsys)
    assert len(calls) == 3


def count_calls(monkeypatch, module, name, calls):
    """Wrap module.name so that each call appends name to calls."""
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("group", ["so3", "s3"])
@pytest.mark.parametrize("kind", ["natural", "conjugate"])
@pytest.mark.parametrize("mode", ["both", "geometric"])
def test_mate_integrates_only_the_curves_it_writes(group, kind, mode, capsys,
                                                   monkeypatch):
    # a mate's tangent is its parent's N or B: the parent's frame and the
    # direction curve are integrated once each, the parent's positions never
    from curvemates import analysis, cli
    calls = []
    for name in ("integrate_frame", "reconstruct_position",
                 "integrate_direction_curve"):
        count_calls(monkeypatch, cli, name, calls)
    count_calls(monkeypatch, analysis, "estimate_apparatus", calls)
    code, _, _ = run_cli(["mate", "--group", group, "--kappa", "3*cos(s)",
                          "--tau", "3*sin(s)", "--domain=-1.5:1.5", "--step", "1e-2",
                          "--kind", kind, "--mode", mode], capsys)
    assert code == 0
    assert sorted(calls) == ["estimate_apparatus", "integrate_direction_curve",
                             "integrate_frame"]

    calls.clear()
    code, _, _ = run_cli(["synthesize", "--group", group, "--kappa", "3*cos(s)",
                          "--tau", "3*sin(s)", "--domain=-1.5:1.5", "--step", "1e-2"],
                         capsys)
    assert code == 0
    assert sorted(calls) == ["integrate_frame", "reconstruct_position"]


@pytest.mark.parametrize("command", [["synthesize"], ["mate", "--mode", "analytic"],
                                     ["mate", "--mode", "both"],
                                     ["verify", "--theorems", "cor6_3"]])
@pytest.mark.parametrize("step,samples", [("1e-15", "1000000000000001"),
                                          ("1e-20", "1e+20"), ("5e-324", "inf")])
def test_grid_too_large_for_memory_exits_2(command, step, samples, tmp_path, capsys):
    # 1e15 samples and more fail at the first allocation, or cannot even be
    # sized; an --out file written earlier stays as it was
    out = tmp_path / "keep.csv"
    out.write_bytes(b"written earlier\r\n")
    code, stdout, err = run_cli(command + ["--group", "r3", "--kappa", "1", "--tau", "1",
                                           "--domain=0:1", "--step", step,
                                           "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: a grid of {samples} samples does not fit in memory\n"
    assert out.read_bytes() == b"written earlier\r\n"


def test_synthesize_with_init_frame_config(tmp_path, capsys):
    # rotated initial frame from the config file shows up in the first row
    cfg = {"group": "r3", "kappa": "1", "tau": "0", "domain": [0, 1],
           "step": 0.01,
           "init_frame": [0, 1, 0, -1, 0, 0, 0, 0, 1]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "rot.csv"
    code, _, _ = run_cli(["synthesize", "--config", str(cfg_path),
                          "--out", str(out)], capsys)
    assert code == 0
    _, rows = read_csv(out)
    t0 = [float(c) for c in rows[0][4:7]]
    assert t0 == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


INIT_POSITIONS = {
    "r3": [0.5, -1.0, 2.0],
    "so3": expm(hat(np.array([0.3, -0.7, 0.4]))).ravel().tolist(),
    "s3": [0.5, 0.5, -0.5, 0.5],
}


@pytest.mark.parametrize("group", sorted(INIT_POSITIONS))
def test_init_position_left_translates_the_curve(group, tmp_path, capsys):
    # gamma' = gamma v is left invariant: starting at g0 instead of the
    # identity multiplies every position by g0 on the left
    spec = group_spec(group)
    g0 = np.array(INIT_POSITIONS[group])
    positions = []
    for init in ({}, {"init_position": g0.tolist()}):
        cfg = {"group": group, "kappa": "2+sin(s)", "tau": "1+s", "domain": [0, 2],
               "step": 0.01, **init}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(["synthesize", "--config", str(cfg_path),
                              "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        positions.append(np.array([[float(c) for c in row[1:1 + g0.size]]
                                   for row in rows]))
    shape = identity_element(spec).shape
    start, moved = (p.reshape((-1,) + shape) for p in positions)
    ref = left_translate(g0.reshape(shape), start, spec)
    # measured: 0, 4.2e-16 and 2.8e-16 (r3, so3, s3)
    assert np.max(np.abs(moved - ref)) <= 1e-12


def test_left_handed_init_frame_exits_2(tmp_path, capsys):
    cfg = {"group": "r3", "kappa": "1", "tau": "0", "domain": [0, 1],
           "step": 0.01, "init_frame": [1, 0, 0, 0, 1, 0, 0, 0, -1]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "lh.csv"
    code, _, err = run_cli(["synthesize", "--config", str(cfg_path),
                            "--out", str(out)], capsys)
    assert code == 2
    assert "right-handed" in err
    assert not out.exists()


def test_verify_unknown_theorem_exits_2(capsys):
    for flags, message in ((["--theorems", "thm9_9"], "unknown theorem"),
                           ([], "verify requires --theorems")):
        code, _, err = run_cli(["verify", "--group", "r3", "--kappa", "1", "--tau", "1",
                                "--domain", "0:1", "--step", "1e-2"] + flags, capsys)
        assert code == 2
        assert message in err


def test_verify_failure_exits_1(capsys):
    # impossibly tight tolerance forces a residual failure
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "3",
                               "--tau", "2*s", "--domain=-3:3", "--step", "1e-3",
                               "--theorems", "thm4_1", "--tol-residual", "1e-18"],
                              capsys)
    assert code == 1
    assert not json.loads(stdout)["all_ok"]


def test_not_applicable_counts_as_ok(capsys):
    # constant kappa hypothesis fails: flagged, exit stays 0
    code, stdout, _ = run_cli(["verify", "--group", "r3", "--kappa", "s+1",
                               "--tau", "1", "--domain", "0:1", "--step", "1e-2",
                               "--theorems", "thm4_1"], capsys)
    assert code == 0
    entry = json.loads(stdout)["results"][0]
    assert not entry["applicable"] and not entry["pass"]


def test_config_file_with_flag_override(tmp_path, capsys):
    for kappa in ("2", 2):      # an expression, or a JSON number
        cfg = {"group": "r3", "kappa": kappa, "tau": "1", "domain": [0, 2],
               "step": 0.01}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(["synthesize", "--config", str(cfg_path),
                              "--step", "0.02", "--out", str(out)], capsys)
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 101  # step override applied


def test_step_too_large_rejected(capsys):
    code, _, err = run_cli(["synthesize", "--group", "r3", "--kappa", "1",
                            "--tau", "0", "--domain", "0:1", "--step", "0.5"],
                           capsys)
    assert code == 2
    assert "step too large" in err


@pytest.mark.parametrize("command", [
    ["synthesize"], ["classify"], ["verify", "--theorems", "thm4_1"],
    ["mate", "--kind", "natural", "--mode", "both"]])
@pytest.mark.parametrize("domain,step", [
    ("-1e308:1e308", "inf"),     # the span overflows and inf <= inf
    ("-1e308:1e308", "1e300"),   # the span overflows, the step is finite
    ("0:1", "inf"),
    ("0:1", "nan")])
def test_non_finite_span_or_step_exits_2(command, domain, step, tmp_path, capsys):
    code, out, err = run_cli([*command, "--group", "r3", "--kappa", "1", "--tau", "1",
                              f"--domain={domain}", "--step", step,
                              "--out", str(tmp_path / "o")], capsys)
    assert code == 2, err
    assert err.startswith("error: ") and "finite" in err
    assert out == "" and not (tmp_path / "o").exists()


CLASSIFY_FLAT = ["classify", "--group", "r3", "--kappa", "2", "--tau", "0",
                 "--domain", "0:1", "--step", "0.01"]


@pytest.mark.parametrize("name,value", [("zero", "-1"), ("constancy", "nan"),
                                        ("residual", "inf")])
def test_bad_tolerance_flag_exits_2(name, value, capsys):
    code, out, err = run_cli(CLASSIFY_FLAT + [f"--tol-{name}", value], capsys)
    assert code == 2 and out == ""
    assert f"tolerance {name} " in err


def test_bad_tolerance_in_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for text, message in (('{"tolerances": {"constancy": NaN}}', "tolerance constancy "),
                          ('{"tolerances": {"constancy": true}}', "tolerance constancy "),
                          ('{"tolerances": {"bogus": 1}}',
                           "unknown tolerance names: ['bogus']")):
        cfg_path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(CLASSIFY_FLAT + ["--config", str(cfg_path)], capsys)
        assert code == 2, text
        assert message in err


SYNTH_CONFIG = {"group": "r3", "kappa": "1", "tau": "0", "domain": [0, 1],
                "step": 0.01}


@pytest.mark.parametrize("flags,config,key", [
    (["--step", "nan"], SYNTH_CONFIG, "step"),
    (["--domain=0:inf"], SYNTH_CONFIG, "domain"),
    (["--domain=-inf:0"], SYNTH_CONFIG, "domain"),
    ([], [1, 2], "JSON object"),
    ([], {**SYNTH_CONFIG, "domain": [0]}, "domain"),
    ([], {**SYNTH_CONFIG, "step": "abc"}, "step"),
    ([], {**SYNTH_CONFIG, "init_frame": [1, 0, 0]}, "init_frame"),
    ([], {**SYNTH_CONFIG, "init_position": [0, 0, 0, 1]}, "init_position"),
    ([], {**SYNTH_CONFIG, "group": "so3", "init_position": [1, 0, 0, 0]}, "init_position"),
    ([], {**SYNTH_CONFIG, "group": "s3", "init_position": [1, 0, 0]}, "init_position"),
    ([], {**SYNTH_CONFIG, "tolerances": [1]}, "tolerances"),
    ([], {**SYNTH_CONFIG, "theorems": 5}, "theorems"),
    ([], {**SYNTH_CONFIG, "tau": [1]}, "tau"),
    ([], {**SYNTH_CONFIG, "out": ["o.csv"]}, "out"),
    ([], {k: v for k, v in SYNTH_CONFIG.items() if k != "step"}, "required"),
    ([], {**SYNTH_CONFIG, "kappa": True}, "kappa"),
    ([], {**SYNTH_CONFIG, "tau": False}, "tau"),
    ([], {**SYNTH_CONFIG, "domain": [0, 10], "step": True}, "step"),
    ([], {**SYNTH_CONFIG, "domain": [0, True]}, "domain"),
    ([], {**SYNTH_CONFIG, "init_frame": [True, 0, 0, 0, True, 0, 0, 0, True]},
     "init_frame"),
    ([], {**SYNTH_CONFIG, "init_position": [True, False, False]}, "init_position"),
    ([], {**SYNTH_CONFIG, "kappa": float("inf")}, "kappa"),
    ([], {**SYNTH_CONFIG, "tau": float("nan")}, "tau"),
    ([], {**SYNTH_CONFIG, "kappa": 10 ** 400}, "kappa"),
    ([], {**SYNTH_CONFIG, "group": "so3",
          "init_position": [1, 0, 0, 0, 1, 0, 0, 0, -1]}, "init_position"),
    ([], {**SYNTH_CONFIG, "group": "s3", "init_position": [0, 0, 0, 0]},
     "init_position"),
    # det > 0, yet too near singular for the projection onto SO(3)
    ([], {**SYNTH_CONFIG, "group": "so3",
          "init_frame": [1, 0, 0, 0, 1, 0, 0, 0, 5e-324]}, "init_frame"),
    ([], {**SYNTH_CONFIG, "group": "so3",
          "init_position": [1, 0, 0, 0, 1, 0, 0, 0, 5e-324]}, "init_position"),
    (["--domain", "0;1"], SYNTH_CONFIG, "domain must be 'a:b'"),
    (["--domain=a:1"], SYNTH_CONFIG, "bad domain"),
    ([], {**SYNTH_CONFIG, "domain": [1, 0]}, "s_min < s_max"),
    ([], {**SYNTH_CONFIG, "group": "se3"}, "unknown group family"),
    # a number as text, and an integer past the float range, are not numbers
    ([], {**SYNTH_CONFIG, "step": "0.01"}, "step"),
    ([], {**SYNTH_CONFIG, "domain": ["0", "1"]}, "domain"),
    ([], {**SYNTH_CONFIG, "init_frame": ["1", "0", "0", "0", "1", "0", "0", "0", "1"]},
     "init_frame"),
    ([], {**SYNTH_CONFIG, "domain": [0, 10 ** 400]}, "domain"),
    ([], {**SYNTH_CONFIG, "step": 10 ** 400}, "step"),
    ([], {**SYNTH_CONFIG, "init_frame": [10 ** 400, 0, 0, 0, 1, 0, 0, 0, 1]},
     "init_frame"),
    ([], {**SYNTH_CONFIG, "init_position": [10 ** 400, 0, 0]}, "init_position"),
    ([], {**SYNTH_CONFIG, "tolerances": {"residual": 10 ** 400}}, "residual"),
], ids=["step-nan", "domain-inf", "domain-minus-inf", "top-level-list",
        "domain-one-number", "step-text", "init-frame-3", "init-position-r3-4",
        "init-position-so3-4", "init-position-s3-3", "tolerances-list",
        "theorems-number", "tau-list", "out-list", "step-missing", "kappa-true",
        "tau-false", "step-true", "domain-true", "init-frame-true",
        "init-position-true", "kappa-inf", "tau-nan", "kappa-past-float-range",
        "init-position-so3-reflection", "init-position-s3-zero",
        "init-frame-near-singular", "init-position-so3-near-singular",
        "domain-flag-no-colon", "domain-flag-not-a-number", "domain-reversed",
        "group-unknown", "step-number-text", "domain-number-text",
        "init-frame-number-text", "domain-past-float-range", "step-past-float-range",
        "init-frame-past-float-range", "init-position-past-float-range",
        "tolerance-past-float-range"])
def test_malformed_config_exits_2(flags, config, key, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, stdout, err = run_cli(["synthesize", "--config", str(cfg_path)] + flags,
                                capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and key in err


def test_unreadable_config_exits_2(tmp_path, capsys):
    not_json = tmp_path / "cfg.json"
    not_json.write_text("{group: so3}", encoding="utf-8")
    for path in (not_json, tmp_path / "missing.json"):
        code, stdout, err = run_cli(["synthesize", "--config", str(path)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot read config {path}: ")


@pytest.mark.parametrize("text", [b'{"group": "\xff"}',
                                  b'{"init_frame": ' + b"[" * 100000 + b"]" * 100000 + b"}"],
                         ids=["not-utf-8", "nested-past-the-recursion-limit"])
def test_config_that_json_cannot_read_exits_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    code, stdout, err = run_cli(["synthesize", "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot read config {path}: ")


@pytest.mark.parametrize("key,value,message", [
    ("kind", "normal", "kind must be natural or conjugate, got 'normal'"),
    ("mode", "fast", "mode must be analytic, geometric or both, got 'fast'"),
])
def test_mate_config_rejects_unknown_kind_and_mode(key, value, message, tmp_path,
                                                   capsys):
    # a config value meets the rule that a flag meets, in build_config
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SYNTH_CONFIG, key: value}), encoding="utf-8")
    code, stdout, err = run_cli(["mate", "--config", str(cfg_path)], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key,value,message", [
    ("group", "se3", "unknown group family 'se3' (expected r3, so3 or s3)"),
    ("group", "R3", "unknown group family 'R3' (expected r3, so3 or s3)"),
    ("kind", "normal", "kind must be natural or conjugate, got 'normal'"),
    ("mode", "fast", "mode must be analytic, geometric or both, got 'fast'"),
], ids=["group-unknown", "group-capitals", "kind", "mode"])
def test_a_bad_choice_is_refused_alike_from_a_flag_or_a_config_file(key, value, message,
                                                                     tmp_path, capsys):
    # one rule per setting: the parser checks no choice, build_config checks all
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"
    for config, flags in (({**SYNTH_CONFIG, key: value}, []),
                          (SYNTH_CONFIG, [f"--{key}", value])):
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        result = run_cli(["mate", "--config", str(cfg_path), "--out", str(out)] + flags,
                         capsys)
        assert result == (2, "", f"error: {message}\n"), flags
        assert not out.exists()


@pytest.mark.parametrize("group", [["r3"], {}], ids=["list", "object"])
def test_config_group_that_is_not_text_exits_2(group, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SYNTH_CONFIG, "group": group}), encoding="utf-8")
    code, stdout, err = run_cli(["synthesize", "--config", str(cfg_path)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: unknown group family {group!r} (expected r3, so3 or s3)\n"


def test_mate_help_names_every_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mate", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("r3", "so3", "s3", "natural", "conjugate", "analytic", "geometric",
                 "both"):
        assert name in text


def test_only_build_config_refuses_a_setting():
    # the commands only compute, and the parser leaves every choice to the gate
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    bodies = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and (node.name.startswith("cmd_") or node.name == "_mate_geometry")]
    assert len(bodies) == 5
    for node in bodies:
        assert "ConfigError" not in {n.id for n in ast.walk(node)
                                     if isinstance(n, ast.Name)}, node.name
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "add_argument"]
    assert calls
    assert not [c for c in calls if any(k.arg == "choices" for k in c.keywords)]


def test_no_command_prints_usage_and_exits_2(capsys):
    code, stdout, err = run_cli([], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: ")


# a value of each key that one command reads, and of a misspelt key
COMMAND_KEYS = {"init_frame": [1, 0, 0, 0, 1, 0, 0, 0, 1], "init_position": [0, 0, 0],
                "kind": "natural", "mode": "analytic", "theorems": ["thm6_2"],
                "init_fram": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
READS = {"synthesize": ("init_frame", "init_position"), "mate": ("kind", "mode"),
         "classify": (), "verify": ("theorems",)}


@pytest.mark.parametrize("command", list(READS))
def test_config_key_a_command_does_not_read_exits_2(command, tmp_path, capsys):
    # an ignored key would run something other than what the file says
    cfg_path = tmp_path / "cfg.json"
    config = {**SYNTH_CONFIG, "tolerances": {"residual": 1e-8}}
    for key in READS[command]:
        config[key] = COMMAND_KEYS[key]
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, _, _ = run_cli([command, "--config", str(cfg_path)], capsys)
    assert code == 0
    for key in sorted(set(COMMAND_KEYS) - set(READS[command])):
        cfg_path.write_text(json.dumps({**config, key: COMMAND_KEYS[key]}),
                            encoding="utf-8")
        code, stdout, err = run_cli([command, "--config", str(cfg_path)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: {command} does not read config keys ['{key}']\n"
    if command == "verify":
        cfg_path.write_text(json.dumps({**config, "theorems": 5}), encoding="utf-8")
        code, _, err = run_cli([command, "--config", str(cfg_path)], capsys)
        assert code == 2 and "theorems must be a list" in err


@pytest.mark.parametrize("command", [["synthesize"], ["mate"], ["classify"],
                                     ["verify", "--theorems", "thm6_2"]])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_empty_out_exits_2(command, from_config, tmp_path, capsys):
    # one rule for every command: an empty path is rejected before any run
    args = ["--group", "r3", "--kappa", "3*cos(s)", "--tau", "sqrt(2)",
            "--domain=-1.5:1.5", "--step", "1e-2"]
    if from_config:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"out": ""}', encoding="utf-8")
        args += ["--config", str(cfg_path)]
    else:
        args += ["--out", ""]
    code, stdout, err = run_cli(command + args, capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: out must be a file path, got ''\n"


@pytest.mark.parametrize("command", [["synthesize"], ["mate"], ["classify"],
                                     ["verify", "--theorems", "cor3_2"]])
def test_derivative_outside_the_grammar_exits_2(command, capsys):
    code, out, err = run_cli(command + ["--group", "so3", "--kappa", "2+s^s",
                                        "--tau", "1", "--domain", "0.5:1.5",
                                        "--step", "1e-2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: exponent depends on s; derivative leaves the grammar\n"


@pytest.mark.parametrize("kappa", ["2*\u00b2", "2+\u0663"])
def test_non_ascii_digit_exits_2(kappa, capsys):
    code, out, err = run_cli(["synthesize", "--group", "r3", "--kappa", kappa,
                              "--tau", "1", "--domain", "0:1", "--step", "0.01"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: unexpected character") and "at offset 2" in err


@pytest.mark.parametrize("args,offset", [
    (["synthesize", "--kappa", "(" * 400 + "1" + ")" * 400, "--tau", "1"], MAX_DEPTH),
    (["synthesize", "--kappa", "1", "--tau=" + "-" * 1000 + "1"], MAX_DEPTH),
    (["synthesize", "--kappa", "^".join(["1"] * 600), "--tau", "1"], 2 * MAX_DEPTH + 1),
    (["classify", "--kappa", "+".join(["s"] * 1500), "--tau", "1"], 2 * MAX_DEPTH + 1),
], ids=["parentheses", "unary-minus", "powers", "sum"])
def test_expression_nested_past_the_bound_exits_2(args, offset, capsys):
    code, out, err = run_cli(args + ["--group", "r3", "--domain", "1:2",
                                     "--step", "0.01"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: nesting deeper than {MAX_DEPTH} levels at offset {offset}\n"


@pytest.mark.parametrize("group", ["r3", "so3", "s3"])
def test_expressions_at_the_nesting_bound_verify_like_their_shallow_forms(group,
                                                                          capsys):
    def verify(kappa, tau):
        return run_cli(["verify", "--group", group, "--kappa", kappa, "--tau", tau,
                        "--domain", "1:2", "--step", "0.01",
                        "--theorems", ",".join(THEOREMS)], capsys)

    parentheses = "(" * MAX_DEPTH + "s" + ")" * MAX_DEPTH
    total = "+".join(["s"] * (MAX_DEPTH + 1))
    code, out, _ = verify(parentheses, total)
    shallow_code, shallow_out, _ = verify("s", f"{MAX_DEPTH + 1}*s")
    assert code == shallow_code
    verdicts = [[r["theorem"], r["applicable"], r["pass"]]
                for r in json.loads(out)["results"]]
    assert len(verdicts) == len(THEOREMS)
    assert verdicts == [[r["theorem"], r["applicable"], r["pass"]]
                        for r in json.loads(shallow_out)["results"]]
    # one level more is a syntax error
    assert verify("(" + parentheses + ")", total)[0] == 2
    assert verify(parentheses, total + "+s")[0] == 2


def test_cli_reads_the_group_family_only_to_name_position_columns():
    # a config number has one rule, _is_number, and a start position one,
    # its group's projection: neither tests the family
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    assert "_holds_bool" not in {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
    keys = {id(n.slice) for n in nodes if isinstance(n, ast.Subscript)
            and isinstance(n.value, ast.Name) and n.value.id == "_POSITION_COLUMNS"}
    family = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "family"]
    assert family and all(id(n) in keys for n in family)
    # det3 checks the handedness of init_frame, and nothing else
    assert sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "det3" for n in nodes) == 1


@pytest.mark.parametrize("command", [["synthesize"],
                                     ["mate", "--kind", "natural"]])
def test_tolerance_flags_only_on_commands_that_read_them(command, capsys):
    # synthesize and mate read no tolerance, so they take no --tol-* flag
    with pytest.raises(SystemExit) as exc:
        main(command + CLASSIFY_FLAT[1:] + ["--tol-zero", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-zero 1e-9" in capsys.readouterr().err


def test_zero_tolerance_accepted(capsys):
    code, out, _ = run_cli(CLASSIFY_FLAT + ["--tol-zero", "0"], capsys)
    assert code == 0
    assert json.loads(out)["tolerances"]["zero"] == 0.0


def test_show_tolerances(capsys):
    code, stdout, _ = run_cli(["--show-tolerances"], capsys)
    assert code == 0
    assert "constancy" in stdout and "bertrand" in stdout
    assert stdout == (
        "default tolerances (analytic preset):\n"
        "  constancy              1e-06\n"
        "  residual               1e-08\n"
        "  spherical_spread       1e-06\n"
        "  spherical_residual     1e-06\n"
        "  zero                   1e-09\n"
        "  spherical_zero_rel     0\n"
        "  rectifying_slope_min   1e-06\n"
        "  tangent                1e-05\n"
        "  bertrand               0.0001\n"
        "  orthogonality          1e-05\n"
        "estimated preset overrides:\n"
        "  constancy              0.001\n"
        "  residual               0.001\n"
        "  spherical_spread       0.001\n"
        "  spherical_residual     0.001\n"
        "  spherical_zero_rel     0.001\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_show_tolerances_on_a_full_stdout_exits_2():
    # the table goes through the one writer, like every command's output
    with open("/dev/full", "w") as full:
        cp = subprocess.run([sys.executable, "-m", "curvemates.cli", "--show-tolerances"],
                            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert cp.returncode == 2
    assert cp.stderr == (f"error: cannot write stdout: [Errno {errno.ENOSPC}] "
                         f"{os.strerror(errno.ENOSPC)}\n")


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    cmd = [sys.executable, "-m", "curvemates.cli", "synthesize", "--group", "r3",
           "--kappa", "2", "--tau", "1", "--domain", "0:1", "--step", "1e-2",
           "--out", str(out)]
    cp = subprocess.run(cmd, capture_output=True, text=True)
    assert cp.returncode == 0
    assert out.exists()


# the console script and ``python -m curvemates.cli`` call main() without argv
ENTRY = ("import gc; from curvemates.cli import main; code = main(); "
         "print(code, gc.get_freeze_count())")
ENTRY_ARGS = ["synthesize", "--group", "so3", "--kappa", "3*cos(s)", "--tau",
              "3*sin(s)", "--domain=-1.5:1.5", "--step", "1e-2"]


def test_main_without_argv_freezes_the_start_up_heap(tmp_path, capsys):
    child, here = tmp_path / "child.csv", tmp_path / "here.csv"
    cp = subprocess.run([sys.executable, "-c", ENTRY, *ENTRY_ARGS, "--out", str(child)],
                        capture_output=True, text=True, check=True)
    code, frozen = map(int, cp.stdout.split())
    assert code == 0 and frozen > 0
    # freezing changes no output
    assert run_cli(ENTRY_ARGS + ["--out", str(here)], capsys)[0] == 0
    assert child.read_bytes() == here.read_bytes()


def test_main_with_argv_leaves_the_heap_unfrozen(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert run_cli(ENTRY_ARGS + ["--out", str(tmp_path / "a.csv")], capsys)[0] == 0
    assert gc.get_freeze_count() == before
