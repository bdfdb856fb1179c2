"""Frenet curves in three-dimensional Lie groups with bi-invariant metric.

Reconstructs curves from curvature/torsion profiles in R^3, SO(3) and S^3,
constructs their natural and conjugate mates, classifies special curves
(helices, slant helices, rectifying, spherical, Salkowski families), and
verifies the defining identities numerically with an independent
finite-difference estimator.

The public names below are imported from their modules on first use, so
``import curvemates`` loads no submodule.
"""

import importlib

_EXPORTS = {
    "analysis": ("EstimatedApparatus", "ToleranceSet", "estimate_apparatus"),
    "checks": ("ClassificationReport", "SphericalReport", "VerificationReport",
               "classify", "spherical_check", "verify_cor_3_1", "verify_cor_3_2",
               "verify_cor_3_3", "verify_cor_3_4", "verify_cor_5_2",
               "verify_cor_6_1", "verify_cor_6_2", "verify_mate_geometry",
               "verify_thm_4_1", "verify_thm_5_1", "verify_thm_5_2",
               "verify_thm_6_2"),
    "expressions": ("DomainError", "ExpressionSyntaxError", "differentiate",
                    "evaluate", "parse", "to_text"),
    "integrate": ("FrameTrajectory", "PositionCurve", "integrate_direction_curve",
                  "integrate_frame", "reconstruct_position"),
    "liegroup": ("R3", "S3", "SO3", "GroupSpec", "bracket",
                 "group_spec", "pull_back_tangent"),
    "mates": ("MateApparatus", "NotAFrenetMate", "Segment",
              "conjugate_mate_apparatus", "constant_curvature_inverse",
              "natural_mate_apparatus"),
    "profiles": ("CurvatureProfile", "FrenetViolation", "SingularSigma",
                 "darboux_vectors", "harmonic_curvature",
                 "harmonic_curvature_prime", "omega", "sigma"),
}
# public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
