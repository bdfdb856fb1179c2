"""No command calls LAPACK: with every LAPACK entry point of numpy.linalg
replaced by a function that raises, each command exits as before and
writes the same bytes."""

import json

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from curvemates import liegroup
from curvemates.cli import THEOREMS, main

# the gufuncs through which every numpy.linalg function reaches LAPACK
LAPACK = [name for name in dir(_umath_linalg) if not name.startswith("_")]

PROFILE = ["--kappa", "3*cos(s)", "--tau", "3*sin(s)", "--domain=-1.5:1.5",
           "--step", "1e-2"]


def commands(group, tmp_path):
    """(argv, --out path) of each command run in one group."""
    out = str(tmp_path / "out")
    run = [["synthesize"], ["mate", "--kind", "natural", "--mode", "both"],
           ["mate", "--kind", "conjugate", "--mode", "both"], ["classify"],
           ["verify", "--theorems", ",".join(THEOREMS)]]
    argvs = [cmd + ["--group", group] + PROFILE + ["--out", out] for cmd in run]
    if group == "so3":
        # a start frame and position, each projected onto the rotations
        config = tmp_path / "start.json"
        config.write_text(json.dumps({
            "group": "so3", "kappa": "3*cos(s)", "tau": "3*sin(s)",
            "domain": [-1.5, 1.5], "step": 1e-2, "out": out,
            "init_frame": [0.0, 1.0, 0.0, -1.0, 0.0, 1e-9, 0.0, 0.0, 1.0],
            "init_position": [0.6, -0.8, 0.0, 0.8, 0.6, 0.0, 0.0, 0.0, 1.0]}))
        argvs.append(["synthesize", "--config", str(config)])
    return argvs, tmp_path / "out"


def outcomes(group, tmp_path, capsys):
    """Exit code, stdout, stderr and --out bytes of each command, from a
    cold start of the filter's weight caches."""
    liegroup._sg_coeffs.cache_clear()
    liegroup._sg_end_coeffs.cache_clear()
    argvs, out = commands(group, tmp_path)
    results = []
    for argv in argvs:
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        results.append((argv[0], code, captured.out, captured.err,
                        out.read_bytes() if out.exists() else None))
    return results


@pytest.mark.parametrize("group", ["r3", "so3", "s3"])
def test_commands_run_without_lapack(group, tmp_path, capsys, monkeypatch):
    with monkeypatch.context() as patch:
        for name in LAPACK:
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"LAPACK called: numpy.linalg {_name}")
            patch.setattr(_umath_linalg, name, refuse)
        with pytest.raises(AssertionError, match="LAPACK called"):
            np.linalg.svd(np.eye(3))
        without = outcomes(group, tmp_path, capsys)
    with_lapack = outcomes(group, tmp_path, capsys)
    # every command ran (verify exits 1: some theorems fail on this profile)
    assert {code for _, code, *_ in without} <= {0, 1}
    assert without == with_lapack
