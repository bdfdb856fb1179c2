#!/usr/bin/env python3
"""Measure and print the convergence orders of the pipeline.

Reports the frame integrator's endpoint error on a variable-coefficient
profile against a fine-step reference (expected order 4: ratio 16 as h
halves) and the end-to-end estimator errors on the slant-helix demo profile
over a range of steps.  Constant coefficients are no test of order: there
the Magnus step is exact and the errors are round-off.
"""

import numpy as np

from curvemates.analysis import estimate_apparatus
from curvemates.catalog import PROFILES
from curvemates.integrate import integrate_frame, reconstruct_position
from curvemates.liegroup import R3
from curvemates.profiles import CurvatureProfile


def frame_order():
    # kappa = 3 cos s, tau = 3 sin s on [0, 1]; at the reference step 1e-4
    # the truncation error is below round-off
    p = CurvatureProfile.from_expressions("3*cos(s)", "3*sin(s)", (0, 1.0))
    ref = integrate_frame(p, R3, 0, 1.0, 1e-4)
    ref_end = np.vstack([ref.t[-1], ref.n[-1], ref.b[-1]])
    print("frame integrator endpoint error vs fine-step reference (h=1e-4):")
    prev = None
    for h in (0.1, 0.05, 0.025, 0.0125):
        traj = integrate_frame(p, R3, 0, 1.0, h)
        err = np.max(np.abs(np.vstack([traj.t[-1], traj.n[-1], traj.b[-1]]) - ref_end))
        note = "" if prev is None else f"  ratio {prev / err:6.2f}"
        print(f"  h={h:<6g} err={err:.3e}{note}")
        prev = err


def estimator_orders():
    p = PROFILES["slant_helix"].profile()
    print("end-to-end estimator error (slant helix demo profile):")
    prev = None
    for h in (0.04, 0.02, 0.01, 0.005, 0.0025):
        traj = integrate_frame(p, R3, p.s_min, p.s_max, h)
        est = estimate_apparatus(reconstruct_position(traj, R3), R3)
        v = est.valid
        ke = np.max(np.abs(est.kappa[v] - np.asarray(p.kappa_at(est.s[v]))))
        te = np.max(np.abs(est.tau[v] - np.asarray(p.tau_at(est.s[v]))))
        note = ""
        if prev is not None:
            note = f"  ratios {prev[0] / ke:6.2f} {prev[1] / te:6.2f}"
        print(f"  h={h:<7g} kappa_err={ke:.3e} tau_err={te:.3e}{note}")
        prev = (ke, te)
    print("(kappa refines at order ~4; tau carries an O(h^3) component from"
          " per-step local-error granularity under triple differentiation)")


if __name__ == "__main__":
    frame_order()
    estimator_orders()
