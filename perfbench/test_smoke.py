"""Smoke test of the benchmark at minimal size (R3 only, one profile per
family).  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace):
    meta, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], meta
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
    for key in ("commit", "python", "numpy", "nproc", "loadavg"):
        assert key in meta


def test_known_salkowski_crash_is_a_failure():
    meta, result = run("mate_geometric", 0)
    assert meta["failures"] == {"mate:salkowski:conjugate:r3": "EstimationError"}
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(0.75)


def test_layer_split():
    layers = {w: run(w, 1)[1]["metrics"] for w in WORKLOADS}
    sweep = layers["analytic_sweep"]
    for name, m in sweep.items():
        if name.startswith(("integrate.", "cli.")):
            assert m["value"] == 0.0, name
    for w, metrics in layers.items():
        calls = metrics["analysis.estimate_apparatus.calls"]["value"]
        assert (calls > 0) == (w == "mate_geometric"), w
    for w in ("synth", "mate_geometric"):
        assert layers[w]["integrate.integrate_frame.steps"]["value"] > 0
        assert layers[w]["cli.rows_out"]["value"] > 0
    assert sweep["analysis.verify.self_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "synth", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
