"""Observability overhead: tracing disabled must be effectively free.

The ``repro.obs`` instrumentation gates every emission site behind one
contextvar read (see ``repro.obs.observer``), so a run without an active
:class:`TraceRecorder` should time indistinguishably from the
pre-instrumentation code — the committed ``benchmarks/baseline.json``
predates the instrumentation, so CI's regression gate doubles as the
cross-version overhead guard.  This file adds the in-process guard:

* a timed quick comparison with tracing *off* (the default path every
  figure and benchmark takes), and
* an interleaved off-vs-on measurement asserting that even with a
  recorder active — every task, wait, collective, solve, and counter
  event buffered — the comparison stays within a small factor, which
  bounds the disabled-path cost far below the 2% budget.
"""

from __future__ import annotations

import time

from conftest import engage

from repro.experiments.runner import ExperimentConfig, run_comparison
from repro.obs.observer import Observer, use_observer
from repro.obs.recorder import TraceRecorder

#: The CLI's --quick comparison (see repro.experiments.cli._run_config).
QUICK = ExperimentConfig(
    benchmark="comd", n_ranks=4, run_iterations=12, lp_iterations=2,
    steady_window=6,
)
CAP_W = 50.0
N_REPS = 5


def _cell():
    return run_comparison(QUICK, CAP_W)


def test_quick_comparison_tracing_off_speed(benchmark):
    """The default, uninstrumented-feeling path (no recorder active)."""
    _cell()  # warm the per-benchmark shared state (trace, frontiers, IR)
    benchmark(_cell)


def test_tracing_on_overhead_is_bounded(benchmark):
    """Recorder active: full event capture stays cheap.

    Interleaved min-of-N on both sides, so a scheduler hiccup cannot
    fake or mask the ratio.  The bound is deliberately loose (2x) to be
    hiccup-proof; the recorded ratio is typically a few percent, and the
    tracing-*off* overhead this transitively bounds is far smaller still
    (one contextvar read per site, no event construction).
    """
    _cell()  # warm shared state
    t_off: list[float] = []
    t_on: list[float] = []
    for _ in range(N_REPS):
        t0 = time.perf_counter()
        _cell()
        t_off.append(time.perf_counter() - t0)

        recorder = TraceRecorder()
        t0 = time.perf_counter()
        with use_observer(Observer(recorder=recorder)):
            _cell()
        t_on.append(time.perf_counter() - t0)
        assert len(recorder) > 0  # the traced side really recorded

    assert min(t_on) <= 2.0 * min(t_off) + 1e-3, (
        f"tracing-on {min(t_on):.4f}s vs off {min(t_off):.4f}s"
    )
    engage(benchmark)
