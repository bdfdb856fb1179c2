"""The benchmark's tracer wraps library functions and methods by name, so
each name it lists must resolve: a missing one fails every traced run."""

import importlib
import sys
from pathlib import Path

from curvemates.mates import MateApparatus
from curvemates.profiles import CurvatureProfile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import PROFILE_METHODS, TARGETS  # noqa: E402


def test_every_traced_name_resolves():
    for layer, names in TARGETS.items():
        module = importlib.import_module(f"curvemates.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name in PROFILE_METHODS:
        assert callable(getattr(CurvatureProfile, name, None)), name
    # the sweep reads a mate's values through these
    for name in ("kappa_at", "tau_at"):
        assert callable(getattr(MateApparatus, name, None)), name
