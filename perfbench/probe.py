"""Machine-speed probes that the benchmark's reported times are scaled by.

On a shared host the machine's speed drifts by tens of percent over
minutes, longer than a run.  The benchmark runs a probe on the CPU the
measured work runs on, right before each measured child or pass (while
nothing else of the benchmark runs), and scales the reported times by it,
so that runs made minutes apart compare.  ``speed_probe()`` is the
in-process probe.  Run as a script, this module is the fresh-process probe
(interpreter start, numpy import, one ``speed_probe()``), shaped like one
``curve-mates`` command.
"""

import time

import numpy as np

# Probe times on the machine the benchmark was defined on (Intel Xeon,
# 2 vCPUs, in its faster state): speed_probe(), and the wall time of
# ``python3 perfbench/probe.py``.  A measured time t is reported as
# t * REF / (the probe time measured right before it).
PROBE_REF_S = 0.025
PROCESS_PROBE_REF_S = 0.2


def speed_probe() -> float:
    """Seconds taken by a fixed piece of interpreter and small-array numpy
    work, the kind of work the program does per step."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    m = np.eye(3)
    r = np.array([[1.0, 1e-3, 0.0], [-1e-3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(3000):
        m = r @ m
        m = m / np.linalg.norm(m[0])
    return time.perf_counter() - start


if __name__ == "__main__":
    speed_probe()
