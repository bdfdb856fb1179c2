"""Frenet curves in three-dimensional Lie groups with bi-invariant metric.

Reconstructs curves from curvature/torsion profiles in R^3, SO(3) and S^3,
constructs their natural and conjugate mates, classifies special curves
(helices, slant helices, rectifying, spherical, Salkowski families), and
verifies the defining identities numerically with an independent
finite-difference estimator.

The modules are the API: import a name from the module that defines it
(``from curvemates.checks import classify``).  ``import curvemates`` loads
no submodule.
"""

__version__ = "0.1.0"
