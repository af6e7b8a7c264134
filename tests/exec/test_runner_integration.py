"""End-to-end execution subsystem: parallel == serial, warm cache skips solves."""

from __future__ import annotations

import json

from repro.exec.cache import SolverCache
from repro.exec.options import (
    ExecutionOptions,
    execution_options,
    get_execution_options,
    set_execution_options,
)
from repro.experiments.cli import main
from repro.experiments.runner import (
    ExperimentConfig,
    run_comparison,
    sweep_caps,
)
from repro.obs.metrics import Metrics
from repro.obs.observer import TIMINGS_SCHEMA_VERSION, Observer, use_observer

_CFG = ExperimentConfig(
    benchmark="comd",
    n_ranks=4,
    run_iterations=8,
    lp_iterations=2,
    discard_iterations=2,
    steady_window=4,
)
_CAPS = (45.0, 60.0)


def test_parallel_sweep_identical_to_serial():
    serial = sweep_caps(_CFG, _CAPS, workers=1)
    parallel = sweep_caps(_CFG, _CAPS, workers=2)
    assert parallel == serial  # dataclass equality: every float bit-identical


def test_warm_cache_returns_identical_results(tmp_path):
    cache = SolverCache(tmp_path)
    cold = sweep_caps(_CFG, _CAPS, workers=1, cache=cache)
    assert cache.stores > 0
    warm = sweep_caps(_CFG, _CAPS, workers=1, cache=cache)
    assert warm == cold
    assert cache.hits >= len(_CAPS)


def test_warm_cache_skips_all_solves(tmp_path):
    cache = SolverCache(tmp_path)
    sweep_caps(_CFG, _CAPS, workers=1, cache=cache)
    obs = Observer(metrics=Metrics())
    with use_observer(obs):
        sweep_caps(_CFG, _CAPS, workers=1, cache=SolverCache(tmp_path))
    assert obs.metrics.counter("cache.hit") == len(_CAPS)
    assert "solve" not in obs.phases()
    assert "replay" not in obs.phases()
    assert "trace" not in obs.phases()


def test_parallel_warm_cache_counts_hits_across_processes(tmp_path):
    cache = SolverCache(tmp_path)
    cold = sweep_caps(_CFG, _CAPS, workers=1, cache=cache)
    obs = Observer(metrics=Metrics())
    with use_observer(obs):
        warm = sweep_caps(_CFG, _CAPS, workers=2, cache=SolverCache(tmp_path))
    assert warm == cold
    assert obs.metrics.counter("cache.hit") == len(_CAPS)
    assert "solve" not in obs.phases()


def test_uncached_comparison_matches_cached(tmp_path):
    plain = run_comparison(_CFG, 60.0)
    cached = run_comparison(_CFG, 60.0, cache=SolverCache(tmp_path))
    assert cached == plain


def test_ambient_options_feed_the_sweep(tmp_path):
    assert get_execution_options().workers == 1
    with execution_options(cache_dir=str(tmp_path), workers=1):
        sweep_caps(_CFG, _CAPS)
    cache = SolverCache(tmp_path)
    assert len(cache) > 0
    with execution_options(cache_dir=str(tmp_path), use_cache=False):
        assert get_execution_options().make_cache() is None
    assert get_execution_options().make_cache() is None  # default: no cache


def test_cli_flags_wire_through(tmp_path, capsys):
    timings = tmp_path / "timings.json"
    argv = [
        "fig1",
        "--quick",
        "--workers",
        "1",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--timings",
        "--timings-json",
        str(timings),
    ]
    try:
        rc = main(argv)
    finally:
        set_execution_options(ExecutionOptions())  # the CLI mutates the context
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig1 regenerated" in out
    doc = json.loads(timings.read_text())
    assert set(doc) == {"version", "phases", "counters", "solve_audit"}
    assert doc["version"] == TIMINGS_SCHEMA_VERSION
    # One solve-timing site: every solve is one `solve` span call.
    solve_calls = doc["phases"].get("solve", {}).get("calls", 0)
    assert solve_calls == doc["counters"].get("solve.total", 0)
