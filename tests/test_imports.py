"""A command loads only the modules it runs, and each name is imported from
the module that defines it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import curvemates
from curvemates import analysis, checks

# run in a fresh interpreter: the command, then what it left in sys.modules
CHILD = """
import contextlib, io, sys
from curvemates import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(repr({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "curvemates"),
    "json": "json" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "bound": [n for n in ("classify", "verify_cor_3_1")
              if n in vars(sys.modules["curvemates.analysis"])],
}))
"""

PROFILE = ["--group", "so3", "--kappa", "3*cos(s)", "--tau", "3*sin(s)",
           "--domain=-1.5:1.5", "--step", "1e-2"]
BASE = {"curvemates", "curvemates.analysis", "curvemates.cli",
        "curvemates.expressions", "curvemates.integrate", "curvemates.liegroup",
        "curvemates.mates", "curvemates.profiles"}


def run_child(argv):
    cp = subprocess.run([sys.executable, "-c", CHILD] + argv,
                        capture_output=True, text=True, check=True)
    return ast.literal_eval(cp.stdout)


# csvfmt serves the CSV outputs only: never --show-tolerances, classify, or
# verify without --out
@pytest.mark.parametrize("argv,extra,bound,reads_json", [
    (["synthesize"] + PROFILE, {"curvemates.csvfmt"}, [], False),
    (["mate", "--mode", "both"] + PROFILE, {"curvemates.csvfmt"}, [], True),
    (["--show-tolerances"], set(), [], False),
    (["classify"] + PROFILE, {"curvemates.checks"}, ["classify"], True),
    (["verify", "--theorems", "cor3_1"] + PROFILE, {"curvemates.checks"},
     ["verify_cor_3_1"], True),
], ids=["synthesize", "mate", "show-tolerances", "classify", "verify"])
def test_each_command_loads_only_what_it_runs(argv, extra, bound, reads_json):
    result = run_child(argv)
    assert result["code"] == 0
    assert set(result["modules"]) == BASE | extra
    # json serves the config file and the JSON reports only
    assert result["json"] == reads_json
    # the result records generate no code at import
    assert not result["dataclasses"]
    # a name of checks is bound in analysis only once it is looked up there
    assert result["bound"] == bound


def test_no_module_imports_dataclasses():
    src = Path(curvemates.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def test_records_write_no_value_methods():
    # records are NamedTuples, whose tuple gives equality, hash, repr,
    # read-only fields and pickling
    value_methods = {"__eq__", "__hash__", "__repr__", "__setattr__",
                     "__delattr__", "__reduce__"}
    src = Path(curvemates.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            names |= {t.id for a in node.body if isinstance(a, ast.Assign)
                      for t in a.targets if isinstance(t, ast.Name)}
            assert not names & value_methods, (path.name, node.name)


def test_dunder_lookups_leave_checks_unloaded():
    code = ("import sys, curvemates.analysis as a; "
            "print(hasattr(a, '__path__'), 'curvemates.checks' in sys.modules)")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True, check=True)
    assert cp.stdout.split() == ["False", "False"]


def test_analysis_alone_leaves_the_integrator_unloaded():
    # the estimator and the analytic checks read samples; they never integrate
    code = "import sys, curvemates.analysis; print('curvemates.integrate' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True, check=True)
    assert cp.stdout.split() == ["False"]


def test_importing_the_package_loads_no_submodule():
    cp = subprocess.run([sys.executable, "-c",
                         "import sys, curvemates; print(sorted(m for m in sys.modules "
                         "if m.startswith('curvemates')))"],
                        capture_output=True, text=True, check=True)
    assert cp.stdout.strip() == "['curvemates']"


def test_only_analysis_resolves_names_lazily():
    # the modules are the API: the package keeps no second route to their names
    src = Path(curvemates.__file__).parent
    lazy = sorted(path.stem for path in src.glob("*.py")
                  if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
                         for node in ast.parse(path.read_text(encoding="utf-8")).body))
    assert lazy == ["analysis"]
    with pytest.raises(ImportError):
        exec("from curvemates import classify", {})


def test_checks_names_resolve_through_analysis():
    names = [name for name, value in vars(checks).items() if not name.startswith("_")
             and getattr(value, "__module__", None) == checks.__name__]
    assert {"classify", "spherical_check", "verify_thm_5_1"} <= set(names)
    for name in names:
        assert getattr(analysis, name) is getattr(checks, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        getattr(analysis, "no_such_name")
    with pytest.raises(AttributeError):
        getattr(analysis, "__no_such_dunder__")


def test_from_package_import_submodule():
    from curvemates import analysis as submodule
    assert submodule is sys.modules["curvemates.analysis"]
