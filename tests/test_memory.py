"""Memory budgets of the mate pipeline on a 6001-row grid.

Each pipeline function runs on the Salkowski curve (kappa = 3, tau = 2s on
[-3, 3], h = 1e-3) in r3, so3 and s3, measured as ``scripts/peak_memory.py``
measures it: the tracemalloc peak above its start during one call, after
one warm-up call.  The estimator and the integrators work in place in
arrays they allocated themselves, so every array they read must come back
unchanged to the bit.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from peak_memory import MB, salkowski_calls, traced_peak  # noqa: E402

# MB (2^20 bytes), about 5 % above the peaks measured on CPython 3.11 with
# numpy 2.4; the largest full-grid arrays are 0.41 MB ((6001, 3, 3) floats)
BUDGET_MB = {
    "integrate_frame": {"r3": 1.12, "so3": 1.12, "s3": 1.12},
    "reconstruct_position": {"r3": 0.44, "so3": 0.83, "s3": 0.63},
    "integrate_direction_curve": {"r3": 0.49, "so3": 0.83, "s3": 0.63},
    "estimate_apparatus": {"r3": 1.17, "so3": 1.30, "s3": 1.22},
}


@pytest.fixture(scope="module", params=["r3", "so3", "s3"])
def pipeline(request):
    calls, inputs = salkowski_calls(request.param, 1e-3)
    return request.param, calls, inputs


def test_pipeline_functions_stay_within_their_budgets(pipeline):
    family, calls, inputs = pipeline
    assert inputs[0].shape == (6001,)
    over = {}
    for name, call in calls.items():
        peak = traced_peak(call) / MB
        if peak > BUDGET_MB[name][family]:
            over[name] = (round(peak, 3), BUDGET_MB[name][family])
    assert not over, f"{family}: peak above budget (MB): {over}"


def test_pipeline_leaves_its_inputs_unchanged(pipeline):
    family, calls, inputs = pipeline
    before = [a.tobytes() for a in inputs]
    for name, call in calls.items():
        call()
        changed = [i for i, a in enumerate(inputs) if a.tobytes() != before[i]]
        assert not changed, f"{name} in {family} wrote into inputs {changed}"
