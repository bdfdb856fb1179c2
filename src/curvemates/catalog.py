"""Named demonstration profiles used by the test suite and scripts.

Each entry is a (kappa, tau) expression pair with a domain on which the
Frenet condition holds with margin.
"""

from __future__ import annotations

from typing import NamedTuple

from .profiles import CurvatureProfile


class NamedProfile(NamedTuple):
    name: str
    kappa: str
    tau: str
    domain: tuple[float, float]

    def profile(self) -> CurvatureProfile:
        return CurvatureProfile.from_expressions(self.kappa, self.tau, self.domain)


RECTIFYING = NamedProfile("rectifying", "s-1", "s^2+s-2", (1.05, 3.0))
SLANT_HELIX = NamedProfile("slant_helix", "3*cos(s)", "3*sin(s)", (-1.5, 1.5))
SPHERICAL = NamedProfile(
    "spherical",
    "2*(1+7*sin(2*s)^2)^(-1/2)",
    "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)",
    (0.0, 3.141592653589793),
)
SALKOWSKI = NamedProfile("salkowski", "3", "2*s", (-3.0, 3.0))
ANTI_SALKOWSKI = NamedProfile("anti_salkowski", "3*cos(s)", "sqrt(2)", (-1.5, 1.5))

PROFILES = {p.name: p for p in
            (RECTIFYING, SLANT_HELIX, SPHERICAL, SALKOWSKI, ANTI_SALKOWSKI)}
