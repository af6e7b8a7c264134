"""Which program entry points the benchmark wraps, and the per-layer metrics.

Layer names follow the repository's modules (``workloads``, ``machine``,
``simulator``, ``runtime``, ``core``, ``exec``, ``scenarios``) and the
ROADMAP's ledger vocabulary (trace, frontier, policy, replay, assemble,
solve, cache, journal, dispatch, other).  Every span is opened here, from
the benchmark's files; nothing inside ``src/`` is instrumented for it.

The root span is ``run_scenarios`` itself: its self time, the part of the
sweep no wrapped layer covers, is ``other``.
"""

from __future__ import annotations

from ledger import Ledger

#: Spans reported as ``<span>.calls`` and ``<span>.self_s``.
SPANS = (
    "workloads.generate",
    "machine.frontier",
    "machine.rapl",
    "simulator.trace",
    "simulator.replay",
    "runtime.policy",
    "core.assemble",
    "core.solve",
    "exec.journal",
    "scenarios.cell",
)

#: Counts that repeat exactly across runs of one seed, so a later change
#: may name one as a count claim.
EXACT_COUNTS = (
    "machine.frontier.measured",
    "core.solve.simplex_iters",
    "exec.cache.hits",
)


def install_setup_clock(ledger: Ledger) -> None:
    """Time the sweep's set-up calls, all under one ``setup`` span.

    These are the calls ``setup_s`` counts besides the import: the
    workload generator, ``make_power_models``, ``trace_application`` and
    ``build_problem_instance``, at the names ``run_scenarios`` uses.
    """
    from repro.scenarios import run as run_mod
    from repro.scenarios.spec import SCENARIO_BENCHMARKS

    for name in SCENARIO_BENCHMARKS:
        ledger.wrap(SCENARIO_BENCHMARKS, name, "setup")
    for attr in ("make_power_models", "trace_application", "build_problem_instance"):
        ledger.wrap(run_mod, attr, "setup")


def install_layers(ledger: Ledger) -> None:
    """Wrap the public entry point of every layer the ledger reports."""
    from repro.core import model, sweep
    from repro.core.sweep import ParametricCapSolver
    from repro.exec.cache import SolverCache
    from repro.exec.checkpoint import SweepJournal
    from repro.exec.parallel import ParallelRunner
    from repro.machine import frontiers
    from repro.machine.frontiers import FrontierStore
    from repro.machine.rapl import RaplController
    from repro.runtime.conductor import ConductorPolicy
    from repro.runtime.static import StaticPolicy
    from repro.scenarios import registry
    from repro.scenarios import run as run_mod
    from repro.scenarios.spec import SCENARIO_BENCHMARKS
    from repro.simulator import trace
    from repro.simulator.engine import Engine

    counts = ledger.counts
    last_objective = ledger.scratch

    def note_solve(args, kwargs, result) -> None:
        solver, objective = id(args[0]), result.solution.objective
        if solver in last_objective:
            counts["core.solve.resolves"] += 1
            if objective == last_objective[solver]:
                counts["core.solve.unchanged"] += 1
        last_objective[solver] = objective

    def note_get(args, kwargs, result) -> None:
        counts["exec.cache.misses" if result is None else "exec.cache.hits"] += 1

    def note_dispatch(args, kwargs, result) -> None:
        counts["exec.dispatch.tasks"] += len(result)

    ledger.wrap(run_mod, "run_scenarios", "other")
    ledger.wrap(run_mod, "run_scenario_cell", "scenarios.cell")
    for name in SCENARIO_BENCHMARKS:
        ledger.wrap(SCENARIO_BENCHMARKS, name, "workloads.generate")
    ledger.wrap(run_mod, "trace_application", "simulator.trace")
    ledger.wrap(trace, "trace_application", "simulator.trace")
    ledger.wrap(FrontierStore, "profile", "machine.frontier")
    ledger.count_calls(frontiers, "measure_task_space", "machine.frontier.measured")
    ledger.wrap(RaplController, "decide", "machine.rapl")
    ledger.wrap(Engine, "run", "simulator.replay")
    ledger.wrap(ConductorPolicy, "configure", "runtime.policy")
    ledger.wrap(StaticPolicy, "plan_run", "runtime.policy")
    for module in (run_mod, registry, sweep, model):
        ledger.wrap(module, "build_problem_instance", "core.assemble")
    ledger.wrap(ParametricCapSolver, "__init__", "core.assemble")
    ledger.wrap(ParametricCapSolver, "solve", "core.solve", after=note_solve)
    ledger.wrap(SolverCache, "get", "exec.cache.get", after=note_get)
    ledger.wrap(SolverCache, "put", "exec.cache.put")
    ledger.wrap(SweepJournal, "record_ok", "exec.journal")
    ledger.wrap(ParallelRunner, "map_outcomes", "exec.dispatch", after=note_dispatch)


def closure_error_s(snapshot: dict) -> float:
    """How far one process's self times miss its root-span total."""
    return abs(sum(snapshot["self_s"].values()) - snapshot["root_s"])


def layer_metrics(parent: dict, workers: list[dict], simplex_iters: int) -> dict:
    """Per-layer metrics of one traced sweep.

    Calls, self times and counters add up over the parent and its
    workers.  The parent's self times close on the sweep's wall time;
    each worker's close on its busy time, reported as
    ``exec.dispatch.worker_busy_s``.  Ratios with an empty base read 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for snap in (parent, *workers):
        for key, n in snap["calls"].items():
            calls[key] = calls.get(key, 0) + n
        for key, s in snap["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + s
        for key, n in snap["counts"].items():
            counts[key] = counts.get(key, 0) + n

    metrics: dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
    profiles = calls.get("machine.frontier", 0)
    measured = counts.get("machine.frontier.measured", 0)
    metrics["machine.frontier.measured"] = measured
    metrics["machine.frontier.reuse_ratio"] = (
        1.0 - measured / profiles if profiles else 0.0
    )
    resolves = counts.get("core.solve.resolves", 0)
    metrics["core.solve.simplex_iters"] = simplex_iters
    metrics["core.solve.unchanged_ratio"] = (
        counts.get("core.solve.unchanged", 0) / resolves if resolves else 0.0
    )
    metrics["exec.cache.get_s"] = self_s.get("exec.cache.get", 0.0)
    metrics["exec.cache.put_s"] = self_s.get("exec.cache.put", 0.0)
    metrics["exec.cache.hits"] = counts.get("exec.cache.hits", 0)
    metrics["exec.cache.misses"] = counts.get("exec.cache.misses", 0)
    metrics["exec.dispatch.tasks"] = counts.get("exec.dispatch.tasks", 0)
    metrics["exec.dispatch.wait_s"] = parent["self_s"].get("exec.dispatch", 0.0)
    metrics["exec.dispatch.worker_busy_s"] = sum(w["root_s"] for w in workers)
    metrics["other.self_s"] = parent["self_s"].get("other", 0.0)
    metrics["scenarios.sweep.wall_s"] = parent["root_s"]
    return metrics
