"""Metrics overhead: typed metrics disabled must be effectively free.

Every :mod:`repro.obs.metrics` emission site costs one contextvar read
when no :class:`Metrics` registry is active — the same gating discipline
as the trace recorder, benchmarked the same way:

* a timed quick comparison with metrics *off* (the default path, and
  the number the CI trajectory tracks for the <3% overhead guard), and
* an interleaved off-vs-on measurement asserting that even with a live
  registry — every cache lookup, solve, simulated task, and per-cell
  wall/CPU observation counted — the comparison stays within a loose
  in-file factor.  The tight cross-run bound lives in CI, where this
  file's off-path timing is compared against the committed baseline.
"""

from __future__ import annotations

import time

from conftest import engage

from repro.experiments.runner import ExperimentConfig, run_comparison
from repro.obs.metrics import Metrics
from repro.obs.observer import Observer, use_observer

#: The CLI's --quick comparison (see repro.experiments.cli._run_config).
QUICK = ExperimentConfig(
    benchmark="comd", n_ranks=4, run_iterations=12, lp_iterations=2,
    steady_window=6,
)
CAP_W = 50.0
N_REPS = 5


def _cell():
    return run_comparison(QUICK, CAP_W)


def test_quick_comparison_metrics_off_speed(benchmark):
    """The default path: no registry active, one contextvar read per site."""
    _cell()  # warm the per-benchmark shared state (trace, frontiers, IR)
    benchmark(_cell)


def test_metrics_on_overhead_is_bounded(benchmark):
    """Registry active: counting everything stays cheap.

    Interleaved min-of-N on both sides, so a scheduler hiccup cannot
    fake or mask the ratio.  The bound is deliberately loose (2x) to be
    hiccup-proof; the recorded ratio is typically well under the CI
    guard's 3%, and the metrics-*off* overhead this transitively bounds
    is far smaller still.
    """
    _cell()  # warm shared state
    t_off: list[float] = []
    t_on: list[float] = []
    for _ in range(N_REPS):
        t0 = time.perf_counter()
        _cell()
        t_off.append(time.perf_counter() - t0)

        metrics = Metrics()
        t0 = time.perf_counter()
        with use_observer(Observer(metrics=metrics)):
            _cell()
        t_on.append(time.perf_counter() - t0)
        assert metrics.counter("solve.total") > 0  # really counted

    assert min(t_on) <= 2.0 * min(t_off) + 1e-3, (
        f"metrics-on {min(t_on):.4f}s vs off {min(t_off):.4f}s"
    )
    engage(benchmark)
