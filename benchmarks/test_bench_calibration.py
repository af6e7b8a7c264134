"""Machine-speed calibration probe for the regression gate and trajectory.

``check_regression.py --calibrate`` and ``trajectory.py`` divide every
fresh time by this benchmark's fresh/baseline ratio, so that a faster or
slower CI machine does not read as a code change.  The probe therefore
imports nothing from ``repro``: optimizing the program must never move
the yardstick it is measured with.  Two fixed kernels stand in for the
two kinds of work the gated benchmarks do: an integer LCG with
dictionary updates (interpreter speed) and a NumPy matrix product, tanh
and sort (native numeric speed).
"""

import numpy as np


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


def _probe() -> tuple[int, float]:
    return _python_kernel(), _numpy_kernel()


def test_machine_speed_probe(benchmark):
    buckets, checksum = benchmark.pedantic(_probe, rounds=10, iterations=1)
    assert buckets == 1024
    assert np.isfinite(checksum)
