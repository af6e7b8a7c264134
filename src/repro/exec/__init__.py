"""Execution subsystem: parallel fan-out, solver caching, checkpointing.

Every paper figure is a sweep of independent, fully seeded cells; this
package makes those sweeps parallel and incremental without changing what
they compute:

``repro.exec.keys``
    Canonical serialization + SHA-256 content addressing of model inputs.
``repro.exec.cache``
    On-disk memoization of LP solutions and comparison cells, with
    versioned invalidation and exact (bit-identical) round trips.
``repro.exec.parallel``
    Ordered process-pool map with per-task deadlines, seeded retry
    backoff, broken-pool recovery, structured per-cell outcomes, and a
    serial fallback.
``repro.exec.checkpoint``
    JSONL sweep journal: checkpoint completed cells, resume interrupted
    sweeps byte-identically.
``repro.exec.faults``
    Deterministic seeded fault injection (raise / delay / corrupt) — the
    test substrate of the resilience layer and the CI chaos smoke.
``repro.exec.options``
    Ambient workers/cache configuration consumed by the sweep layer.

Instrumentation (phase spans, counters, worker snapshots) lives in
:mod:`repro.obs.observer`.  Submodules are imported lazily, on first
attribute access.
"""

from __future__ import annotations

__all__ = [
    "SolverCache",
    "cached_solve_fixed_order_lp",
    "solver_key",
    "experiment_key",
    "trace_fingerprint",
    "machine_fingerprint",
    "ParallelRunner",
    "ParallelExecutionError",
    "PoolBrokenError",
    "CellOutcome",
    "retry_delay_s",
    "resolve_workers",
    "SweepJournal",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "ExecutionOptions",
    "get_execution_options",
    "set_execution_options",
    "execution_options",
]

_EXPORTS = {
    "SolverCache": "cache",
    "cached_solve_fixed_order_lp": "cache",
    "solver_key": "keys",
    "experiment_key": "keys",
    "trace_fingerprint": "keys",
    "machine_fingerprint": "keys",
    "ParallelRunner": "parallel",
    "ParallelExecutionError": "parallel",
    "PoolBrokenError": "parallel",
    "CellOutcome": "parallel",
    "retry_delay_s": "parallel",
    "resolve_workers": "parallel",
    "SweepJournal": "checkpoint",
    "FaultSpec": "faults",
    "FaultInjector": "faults",
    "InjectedFault": "faults",
    "ExecutionOptions": "options",
    "get_execution_options": "options",
    "set_execution_options": "options",
    "execution_options": "options",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
