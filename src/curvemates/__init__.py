"""Frenet curves in three-dimensional Lie groups with bi-invariant metric.

Reconstructs curves from curvature/torsion profiles in R^3, SO(3) and S^3,
constructs their natural and conjugate mates, classifies special curves
(helices, slant helices, rectifying, spherical, Salkowski families), and
verifies the defining identities numerically with an independent
finite-difference estimator.
"""

from .analysis import (ClassificationReport, EstimatedApparatus, SphereFit,
                       SphericalReport, ToleranceSet, VerificationReport,
                       classify, estimate_apparatus, left_shift_sphere_fit,
                       spherical_check, synthesize_estimated_profile,
                       verify_cor_3_1, verify_cor_3_2, verify_cor_3_3,
                       verify_cor_3_4, verify_cor_5_2, verify_cor_6_1,
                       verify_cor_6_2, verify_mate_geometry, verify_thm_4_1,
                       verify_thm_5_1, verify_thm_5_2, verify_thm_6_2)
from .expressions import (DomainError, ExpressionSyntaxError, differentiate,
                          evaluate, parse, to_text)
from .integrate import (FrameTrajectory, PositionCurve, integrate_direction_curve,
                        integrate_frame, reconstruct_position)
from .liegroup import (R3, S3, SO3, Frame, GroupSpec, bracket,
                       covariant_derivative, frame_defect, group_spec,
                       left_shift, left_translate_tangent, lie_group_torsion,
                       pull_back_tangent)
from .mates import (MateApparatus, NotAFrenetMate, Segment,
                    conjugate_mate_apparatus, constant_curvature_inverse,
                    natural_mate_apparatus)
from .profiles import (CurvatureProfile, FrenetViolation, SingularSigma,
                       darboux_vectors, harmonic_curvature,
                       harmonic_curvature_prime, omega, sigma)

__version__ = "0.1.0"
