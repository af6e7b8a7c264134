"""A fixed machine-speed probe that shares no code with the program.

Two small kernels of fixed size: an integer LCG with dictionary updates
(pure-Python interpreter speed) and a NumPy matrix product plus sort
(native numeric speed).  ``sample()`` times the pair repeatedly for about
a second just before each sweep, on each CPU the sweep is pinned to.  ``run.py`` scales that sweep's times by
``REFERENCE_S`` over the sample, so the time metrics read as seconds on
the reference machine and a host whose speed drifts over minutes moves
them less.  Since the probe shares no code with the program, optimising
the program never rescales it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Median time of one ``sample()`` kernel pair on the reference machine
#: (a 2-vCPU Intel Xeon VM, the host of the README's baseline).
REFERENCE_S = 0.1
#: How long one ``sample()`` runs the kernels.
SAMPLE_BUDGET_S = 1.0


def _python_kernel() -> int:
    x, buckets = 1, {}
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        buckets[x & 1023] = buckets.get(x & 1023, 0) + 1
    return len(buckets)


def _numpy_kernel() -> float:
    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    for _ in range(8):
        a = np.tanh(a @ a / 256.0)
    return float(a.sum() + np.sort(rng.random(200_000))[100_000])


def _pair_s(budget_s: float) -> float:
    """Median seconds of one kernel pair, timed repeatedly for about
    ``budget_s``."""
    times = []
    end = time.monotonic() + budget_s
    while not times or time.monotonic() < end:
        t0 = time.perf_counter()
        _python_kernel()
        _numpy_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sample(cpus: list[int], budget_s: float = SAMPLE_BUDGET_S) -> float:
    """Seconds of one kernel pair on ``cpus``: the machine's current speed
    there, timed on each CPU in turn for an equal share of ``budget_s``.

    The CPUs are combined as a sweep spread over them would be: by the
    harmonic mean, since their speeds (the reciprocals) add up.
    """
    own = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_pair_s(budget_s / len(cpus)))
    finally:
        os.sched_setaffinity(0, own)
    return statistics.harmonic_mean(per_cpu)
