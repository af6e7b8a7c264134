"""The N-way scenario executor: one spec in, one result table out.

:func:`run_scenarios` evaluates every policy of a
:class:`~repro.scenarios.spec.ScenarioSpec` at every cap of its grid.
Each (spec, cap) cell is an independent, fully seeded computation:

* shared per-benchmark state (applications, power models, the traced DAG
  and its compiled :class:`~repro.core.model.ProblemInstance`) is built
  once per process and reused across the cap grid;
* with ``workers > 1`` the cells fan out over a process pool in cap
  order — bit-identical to the serial sweep, worker observability folded
  back in submission order (see :mod:`repro.exec.parallel`);
* each cell is memoized in the ambient
  :class:`~repro.exec.cache.SolverCache` under a key derived from the
  spec's :meth:`~repro.scenarios.spec.ScenarioSpec.cell_hash` and the
  ``SCENARIO_LAYER_VERSION`` — never from a hardwired field list — and a
  payload whose policy-name set does not exactly match the spec is
  recomputed, not mis-mapped;
* every policy run lands in its own trace scope
  (``"<name> <benchmark> cap=<cap>W"``), so Perfetto shows one process
  group per policy instance.

The legacy three-way ``run_comparison``/``sweep_caps`` entry points are
thin wrappers over a ``{static, conductor, lp}`` spec (see
:mod:`repro.experiments.runner`) and reproduce their historical numbers
exactly.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..exec.checkpoint import SweepJournal
from ..core.model import ProblemInstance, build_problem_instance
from ..exec.cache import SolverCache
from ..exec.faults import FaultInjector
from ..exec.keys import scenario_cell_key
from ..exec.options import get_execution_options
from ..exec.parallel import CellOutcome, ParallelExecutionError, resolve_workers
from ..machine.device import LEGACY_NODE, NodeSpec, get_node, rank_nodes
from ..machine.frontiers import FrontierStore, NodeFrontierStore
from ..machine.power import SocketPowerModel
from ..machine.variability import make_power_models
from ..obs.events import CellFailureEvent, CounterEvent
from ..obs.metrics import COUNT_BUCKETS
from ..obs.observer import current_observer, emit, inc, profiled, set_gauge
from ..obs.progress import ProgressReporter
from ..obs.recorder import TraceRecorder
from ..simulator.engine import Engine, SimulationResult
from ..simulator.telemetry import job_power_timeline
from ..simulator.trace import Trace, trace_application
from ..workloads import WorkloadSpec
from .registry import PolicyContext, PolicyRegistry, default_registry
from .spec import SCENARIO_BENCHMARKS, SCENARIO_LAYER_VERSION, ScenarioSpec

__all__ = [
    "CellFailure",
    "PolicyOutcome",
    "ScenarioCell",
    "ScenarioResult",
    "cell_payload",
    "journal_cell_outcome",
    "reset_cap_solvers",
    "run_scenario_cell",
    "run_scenarios",
    "scenario_cell_task",
    "policy_iteration_time",
]


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's measured (or bounded) per-iteration time at one cap.

    ``energy_j`` is the per-iteration task energy over the same
    measurement window as ``time_s`` (runtimes) or of the formulation's
    schedule (bounds); None when the policy yields no energy figure
    (infeasible bounds, unschedulable caps, schedule-free bounds)."""

    name: str  # instance label from the spec
    policy: str  # registry name
    kind: str  # "runtime" | "bound"
    time_s: float | None  # None: unschedulable cap or infeasible bound
    extra: dict = field(default_factory=dict)
    energy_j: float | None = None

    def to_payload(self) -> dict:
        """JSON-safe cache payload for this outcome."""
        return {
            "policy": self.policy,
            "kind": self.kind,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_payload(cls, name: str, doc: dict) -> "PolicyOutcome":
        """Rehydrate an outcome from :meth:`to_payload` output."""
        return cls(
            name=name,
            policy=str(doc["policy"]),
            kind=str(doc["kind"]),
            time_s=doc["time_s"],
            extra=dict(doc.get("extra") or {}),
            energy_j=doc.get("energy_j"),
        )


@dataclass(frozen=True)
class CellFailure:
    """How one sweep cell failed, as stable data.

    Everything here is deterministic for deterministic failures —
    exception type, message, and attempt count, never wall-clock — so
    failures may be journaled, stamped into manifests, and compared
    byte-for-byte across an interrupted run and its resumed twin.
    """

    error_type: str
    error_message: str
    attempts: int

    def to_doc(self) -> dict:
        return {
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CellFailure":
        return cls(
            error_type=str(doc["error_type"]),
            error_message=str(doc["error_message"]),
            attempts=int(doc["attempts"]),
        )

    @classmethod
    def from_outcome(cls, outcome: CellOutcome) -> "CellFailure":
        return cls.from_doc(outcome.failure_doc())


@dataclass
class ScenarioCell:
    """All policy outcomes of one scenario at one per-socket cap.

    A cell that could not be computed at all (its task exhausted every
    attempt under ``keep_going``) carries a :class:`CellFailure` and
    ``None`` times for every policy — exhibits render it as a gap, never
    as a number.
    """

    benchmark: str
    cap_per_socket_w: float
    n_ranks: int
    schedulable: bool
    outcomes: dict[str, PolicyOutcome]  # insertion order = spec order
    failure: CellFailure | None = None

    @property
    def job_cap_w(self) -> float:
        """Total job power: per-socket cap times rank count."""
        return self.cap_per_socket_w * self.n_ranks

    @property
    def failed(self) -> bool:
        """Whether this cell's computation failed outright."""
        return self.failure is not None

    def time_s(self, name: str) -> float | None:
        """Per-iteration time of one policy instance (by label)."""
        return self.outcomes[name].time_s


@dataclass
class ScenarioResult:
    """The N-way table: one :class:`ScenarioCell` per cap, in cap order."""

    spec: ScenarioSpec
    cells: list[ScenarioCell]

    def policy_names(self) -> list[str]:
        """Instance labels in spec (evaluation) order."""
        return self.spec.policy_labels()

    def series(self, name: str) -> list[float | None]:
        """One policy's per-iteration times across the cap grid."""
        return [cell.time_s(name) for cell in self.cells]

    def cell_at(self, cap_per_socket_w: float) -> ScenarioCell:
        """The cell for one cap of the grid."""
        for cell in self.cells:
            if cell.cap_per_socket_w == cap_per_socket_w:
                return cell
        raise KeyError(f"no cell at {cap_per_socket_w} W/socket")

    def failed_cells(self) -> list[ScenarioCell]:
        """Cells whose computation failed, in cap order."""
        return [cell for cell in self.cells if cell.failed]

    def failure_docs(self) -> list[dict]:
        """Deterministic per-failure documents (manifest ``failures``)."""
        return [
            {"cap_per_socket_w": cell.cap_per_socket_w, **cell.failure.to_doc()}
            for cell in self.cells
            if cell.failure is not None
        ]


# ----------------------------------------------------------------------
@dataclass
class _Shared:
    """Per-benchmark reusables across a cap grid."""

    app_run: object
    app_lp: object
    power_models: list[SocketPowerModel]
    engine: Engine
    trace: Trace
    frontiers: FrontierStore | NodeFrontierStore
    instance: ProblemInstance
    # Per-rank typed-device nodes; None on the legacy homogeneous machine
    # (that path stays byte-for-byte identical to the pre-node layer).
    nodes: list[NodeSpec] | None = None
    # power_tiebreak -> ParametricCapSolver: the fixed-order LP frozen
    # once per benchmark and re-solved across the whole cap grid (and
    # every cell of it) through one persistent HiGHS handle.  Lazily
    # populated by the lp bound entry (registry._solve_lp).
    cap_solvers: dict = field(default_factory=dict)


_shared_cache: dict[tuple, _Shared] = {}


def _shared_key(spec: ScenarioSpec) -> tuple:
    return (
        spec.benchmark, spec.n_ranks, spec.run_iterations, spec.lp_iterations,
        spec.seed, spec.efficiency_seed, spec.efficiency_sigma, spec.node,
    )


def reset_cap_solvers(spec: ScenarioSpec) -> None:
    """Drop any warm parametric solvers for this spec's benchmark.

    The solver pool is shared across the *cells of one sweep*, not
    across top-level invocations: a fresh ``run_scenarios`` (or a
    single-cell ``run_comparison``) must behave identically whether or
    not an earlier run in this process warmed the pool (otherwise solve
    audits — cold vs re-solve — would depend on test or call order).
    """
    shared = _shared_cache.get(_shared_key(spec))
    if shared is not None:
        shared.cap_solvers.clear()


def _shared_for(spec: ScenarioSpec) -> _Shared:
    key = _shared_key(spec)
    if key not in _shared_cache:
        gen = SCENARIO_BENCHMARKS[spec.benchmark]
        app_run = gen(WorkloadSpec(n_ranks=spec.n_ranks,
                                   iterations=spec.run_iterations, seed=spec.seed))
        app_lp = gen(WorkloadSpec(n_ranks=spec.n_ranks,
                                  iterations=spec.lp_iterations, seed=spec.seed))
        pm = make_power_models(
            spec.n_ranks, spec.efficiency_seed, sigma=spec.efficiency_sigma
        )
        # One frontier store per machine: the tracer fills it, every
        # runtime policy in the scenario reads it back.  Heterogeneous
        # nodes swap in the typed-device store (and device-aware engine);
        # the legacy node keeps the original code path untouched.
        nodes: list[NodeSpec] | None = None
        if spec.node != LEGACY_NODE:
            nodes = rank_nodes(get_node(spec.node), pm)
            store: FrontierStore | NodeFrontierStore = NodeFrontierStore(nodes)
        else:
            store = FrontierStore(pm)
        trace = trace_application(app_lp, pm, frontier_store=store)
        _shared_cache[key] = _Shared(
            app_run=app_run,
            app_lp=app_lp,
            power_models=pm,
            engine=Engine(pm, nodes=nodes),
            trace=trace,
            frontiers=store,
            instance=build_problem_instance(trace),
            nodes=nodes,
        )
    return _shared_cache[key]


def _steady_per_iteration(
    result: SimulationResult, first_iteration: int, n_iterations: int
) -> float:
    start = min(r.start_s for r in result.records if r.iteration >= first_iteration)
    return (result.makespan_s - start) / n_iterations


def _measured_time(result: SimulationResult, spec: ScenarioSpec, measure: str) -> float:
    """Per-iteration time over the entry's measurement window."""
    if measure == "steady":
        first = spec.run_iterations - spec.steady_window
        return _steady_per_iteration(result, first, spec.steady_window)
    first = spec.discard_iterations
    return _steady_per_iteration(
        result, first, spec.run_iterations - spec.discard_iterations
    )


def _measured_energy(
    result: SimulationResult, spec: ScenarioSpec, measure: str
) -> float:
    """Per-iteration task energy over the same window as the time."""
    if measure == "steady":
        first = spec.run_iterations - spec.steady_window
        n = spec.steady_window
    else:
        first = spec.discard_iterations
        n = spec.run_iterations - spec.discard_iterations
    return (
        sum(r.energy_j for r in result.records if r.iteration >= first) / n
    )


def _scope(rec: TraceRecorder | None, label: str):
    """The recorder's run scope, or a no-op when tracing is disabled."""
    return rec.run_scope(label) if rec is not None else nullcontext()


def _emit_power_counters(
    rec: TraceRecorder,
    result: SimulationResult,
    power_models: list[SocketPowerModel],
    job_cap_w: float,
) -> None:
    """Counter samples for the job power timeline and the cap it ran under.

    Every breakpoint of the piecewise-constant timeline becomes a sample,
    so the Perfetto counter track reproduces the timeline exactly; the cap
    is sampled at both ends to draw as a flat line over the same span.
    """
    timeline = job_power_timeline(result, power_models)
    for t, p in zip(timeline.times[:-1], timeline.power):
        rec.emit(
            CounterEvent(
                name="job_power_w", ts_s=float(t), values={"watts": float(p)}
            )
        )
    end_s = float(timeline.times[-1])
    final_w = float(timeline.power[-1]) if len(timeline.power) else 0.0
    rec.emit(CounterEvent(name="job_power_w", ts_s=end_s, values={"watts": final_w}))
    for t in (0.0, end_s):
        rec.emit(CounterEvent(name="cap_w", ts_s=t, values={"watts": job_cap_w}))


# ----------------------------------------------------------------------
def cell_payload(spec: ScenarioSpec, cell: ScenarioCell) -> dict:
    """The cache/journal payload of one cell: schema-guarded, spec-derived."""
    return {
        "scenario_layer": SCENARIO_LAYER_VERSION,
        "cell_hash": spec.cell_hash(),
        "schedulable": cell.schedulable,
        "outcomes": {
            name: outcome.to_payload() for name, outcome in cell.outcomes.items()
        },
    }


def _cell_from_payload(
    spec: ScenarioSpec, cap_per_socket_w: float, payload: dict
) -> ScenarioCell | None:
    """Rehydrate a cached cell; None when the payload is stale or foreign.

    The guard is structural, not positional: the payload must carry the
    current ``SCENARIO_LAYER_VERSION``, the spec's own cell hash, and an
    outcome per policy instance name of the spec — a payload written by a
    different spec (or by the pre-scenario three-way field list) misses
    instead of silently mis-mapping fields.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("scenario_layer") != SCENARIO_LAYER_VERSION:
        return None
    if payload.get("cell_hash") != spec.cell_hash():
        return None
    outcomes_doc = payload.get("outcomes")
    if not isinstance(outcomes_doc, dict):
        return None
    labels = spec.policy_labels()
    if sorted(outcomes_doc) != sorted(labels):
        return None
    try:
        outcomes = {
            name: PolicyOutcome.from_payload(name, outcomes_doc[name])
            for name in labels
        }
    except (KeyError, TypeError, ValueError):
        return None
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=bool(payload.get("schedulable", True)),
        outcomes=outcomes,
    )


def run_scenario_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    cache: SolverCache | None = None,
    registry: PolicyRegistry | None = None,
) -> ScenarioCell:
    """Evaluate every policy of ``spec`` at one per-socket cap.

    ``cache`` memoizes the whole cell (all simulator replays and solver
    calls) by content address; None falls back to the ambient
    :class:`~repro.exec.options.ExecutionOptions` (default: no caching).
    A warm cell skips tracing, every engine run, and every solve.
    """
    registry = registry if registry is not None else default_registry()
    if cache is None:
        cache = get_execution_options().make_cache()
    key = None
    if cache is not None:
        key = scenario_cell_key(
            spec.cell_hash(), cap_per_socket_w, SCENARIO_LAYER_VERSION
        )
        payload = cache.get(key)
        if payload is not None:
            cell = _cell_from_payload(spec, cap_per_socket_w, payload)
            if cell is not None:
                inc("cells.cached")
                return cell
            # Stale or foreign payload under our key: recompute (and
            # overwrite) rather than mis-map fields.
    metrics = current_observer().metrics
    t0 = time.perf_counter() if metrics is not None else 0.0
    c0 = time.process_time() if metrics is not None else 0.0
    with profiled():
        cell = _run_scenario_cell(spec, cap_per_socket_w, cache, registry)
    if metrics is not None:
        metrics.inc("cells.computed")
        for outcome in cell.outcomes.values():
            if outcome.energy_j is not None:
                # Rounded to whole joules so the histogram stays in the
                # deterministic (integer-exact, merge-stable) family.
                metrics.observe(
                    "cell.energy_j",
                    int(round(outcome.energy_j)),
                    buckets=COUNT_BUCKETS,
                )
        metrics.observe(
            "cell.wall_s", time.perf_counter() - t0, operational=True
        )
        metrics.observe(
            "cell.cpu_s", time.process_time() - c0, operational=True
        )
    if cache is not None:
        cache.put(key, cell_payload(spec, cell))
    return cell


def _gap_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    registry: PolicyRegistry,
    schedulable: bool,
    failure: CellFailure | None = None,
) -> ScenarioCell:
    """A cell with no times: an unschedulable cap or a failed computation."""
    outcomes = {
        p.label: PolicyOutcome(
            name=p.label, policy=p.policy,
            kind=registry.get(p.policy).kind, time_s=None,
        )
        for p in spec.policies
    }
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=schedulable,
        outcomes=outcomes,
        failure=failure,
    )


def _run_scenario_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    cache: SolverCache | None,
    registry: PolicyRegistry,
) -> ScenarioCell:
    shared = _shared_for(spec)
    job_cap = cap_per_socket_w * spec.n_ranks
    rec = current_observer().recorder
    tag = f"{spec.benchmark} cap={cap_per_socket_w:g}W"

    min_cap = shared.app_run.metadata.get("min_cap_per_socket_w")
    if min_cap is not None and cap_per_socket_w < min_cap:
        return _gap_cell(spec, cap_per_socket_w, registry, schedulable=False)

    ctx = PolicyContext(
        power_models=shared.power_models,
        job_cap_w=job_cap,
        app=shared.app_run,
        frontier_store=shared.frontiers,
        trace=shared.trace,
        instance=shared.instance,
        cache=cache,
        lp_iterations=spec.lp_iterations,
        cap_solvers=shared.cap_solvers,
        nodes=shared.nodes,
    )
    outcomes: dict[str, PolicyOutcome] = {}
    for pspec in spec.policies:
        entry = registry.get(pspec.policy)
        cfg = entry.resolve_config(pspec.config)
        label = pspec.label
        scope = partial(_scope, rec, f"{label} {tag}")
        if entry.kind == "runtime":
            policy = entry.build(ctx, cfg)
            with scope():
                result = shared.engine.run(shared.app_run, policy)
                if rec is not None:
                    _emit_power_counters(rec, result, shared.power_models, job_cap)
            extra: dict = {}
            reallocs = getattr(policy, "realloc_count", None)
            if reallocs is not None:
                extra["reallocs"] = reallocs
            outcomes[label] = PolicyOutcome(
                name=label, policy=pspec.policy, kind="runtime",
                time_s=_measured_time(result, spec, entry.measure), extra=extra,
                energy_j=_measured_energy(result, spec, entry.measure),
            )
        else:
            bound = entry.solve(ctx, cfg, scope)
            outcomes[label] = PolicyOutcome(
                name=label, policy=pspec.policy, kind="bound",
                time_s=bound.time_s, extra=dict(bound.extra),
                energy_j=bound.energy_j,
            )
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=True,
        outcomes=outcomes,
    )


# ----------------------------------------------------------------------
def scenario_cell_task(cell: tuple[str, float, str | None]) -> ScenarioCell:
    """One ``(spec JSON, cap, cache root)`` cell on a worker.

    Module-level so pool and fleet workers can unpickle it; the parallel
    sweep and the service dispatcher both dispatch it.
    """
    spec_json, cap, cache_root = cell
    spec = ScenarioSpec.from_json(spec_json)
    cache = SolverCache(cache_root) if cache_root is not None else None
    return run_scenario_cell(spec, cap, cache=cache)


def _cell_fault_key(item) -> str:
    """The stable fault-selection identity of one sweep item.

    Works for both task shapes — the pool's ``(spec_json, cap, root)``
    tuples and the serial path's bare caps — and deliberately excludes
    run-scoped paths (cache/temp directories), so two runs of the same
    scenario fault exactly the same cells regardless of where their
    caches live.  Module-level so it pickles to workers.
    """
    cap = item[1] if isinstance(item, tuple) else item
    return f"cap={float(cap):g}"




def journal_cell_outcome(
    journal: SweepJournal | None,
    key: str,
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    outcome: CellOutcome,
) -> None:
    """Journal one settled cell: its payload when ok, its failure doc if not.

    The one journal writer for sweep cells: ``run_scenarios`` and the
    service dispatcher both settle through it, so a cell computed by
    either resumes byte-identically in the other.  ``wall_s`` is a
    diagnostic extra (the slowest-cell table of ``repro-exp report``):
    the cell's own run time where it ran, never its wait in the queue.
    Journal *payloads* stay byte-deterministic and resume ignores it.
    """
    if journal is None:
        return
    if outcome.ok:
        journal.record_ok(
            key, cap_per_socket_w, cell_payload(spec, outcome.value),
            spec_hash=spec.spec_hash(),
            wall_s=round(outcome.elapsed_s, 6),
        )
    else:
        journal.record_failed(
            key, cap_per_socket_w, outcome.failure_doc(),
            spec_hash=spec.spec_hash(),
        )


def run_scenarios(
    spec: ScenarioSpec,
    workers: int | None = None,
    cache: SolverCache | None = None,
    registry: PolicyRegistry | None = None,
    *,
    keep_going: bool = False,
    journal: SweepJournal | str | Path | None = None,
    faults: FaultInjector | None = None,
    progress: ProgressReporter | None = None,
) -> ScenarioResult:
    """Run the full scenario: every policy at every cap of the grid.

    Every cap is an independent, fully seeded cell; with ``workers > 1``
    the cells fan out over a process pool with results in cap order —
    bit-identical to the serial sweep.  ``workers``/``cache`` default to
    the ambient :class:`~repro.exec.options.ExecutionOptions` (serial,
    uncached).  A non-default ``registry`` runs serially: worker
    processes rebuild policies from the default registry only.  Serial
    or parallel, the cells go through one
    :meth:`~repro.exec.parallel.ParallelRunner.map_outcomes` call, so
    retries and failures behave the same whatever the worker count.

    Spec errors — an unknown policy or config key — raise raw
    (``KeyError``/``ValueError``) before any cell is dispatched.

    Resilience (see ``docs/execution.md``):

    * a cell that exhausts its attempts becomes a failed
      :class:`ScenarioCell` (a ``cell_failure`` trace event, a journal
      record); once every cell has settled, the first failure raises
      :class:`~repro.exec.parallel.ParallelExecutionError` chained from
      the cell's exception, unless ``keep_going``, which returns the
      failed cells as rendered gaps and manifest entries instead;
    * ``journal`` — a :class:`~repro.exec.checkpoint.SweepJournal`
      (or its path) checkpointing every settled cell as it completes;
      on entry, journaled-ok cells are rehydrated without recomputation,
      so an interrupted sweep resumes where it stopped and produces
      byte-identical output.  Failed cells are retried on resume;
    * ``faults`` — a :class:`~repro.exec.faults.FaultInjector` wrapped
      around the cell task (chaos testing; cells are selected by their
      stable ``cap=<cap>`` identity, never by run-scoped paths).

    ``progress`` — an optional
    :class:`~repro.obs.progress.ProgressReporter` receiving one
    ``update(ok)`` per settled cell, in cap order (journal-resumed cells
    settle immediately).  The heartbeat stream is out-of-band: it never
    alters results, journals, or any byte-deterministic artifact.
    """
    opts = get_execution_options()
    if workers is None:
        workers = opts.workers
    workers = resolve_workers(workers)  # 0 -> all cores, negative -> error
    if cache is None:
        cache = opts.make_cache()
    if isinstance(journal, (str, Path)):
        journal = SweepJournal(journal)
    reg = registry if registry is not None else default_registry()
    # A spec error is the caller's, not a cell's: raise it before any
    # cell is dispatched, instead of retrying it in every cell.
    for pspec in spec.policies:
        reg.get(pspec.policy).resolve_config(pspec.config)
    reset_cap_solvers(spec)
    caps = [float(cap) for cap in spec.caps_per_socket_w]
    keys = {
        cap: scenario_cell_key(spec.cell_hash(), cap, SCENARIO_LAYER_VERSION)
        for cap in caps
    }

    cells: dict[float, ScenarioCell] = {}
    if journal is not None:
        records = journal.load()
        for cap in caps:
            doc = records.get(keys[cap])
            if doc is not None and doc.get("status") == "ok":
                cell = _cell_from_payload(spec, cap, doc.get("payload"))
                if cell is not None:
                    # Same structural guard as the cache path: a stale
                    # or foreign payload is recomputed, not mis-mapped.
                    cells[cap] = cell
                    # Resumption depends on what a prior (possibly
                    # interrupted) run got through: operational.
                    inc("journal.resumed", operational=True)
                    if progress is not None:
                        progress.update(ok=True, resumed=True)
    pending = [cap for cap in caps if cap not in cells]
    # Within-run dedup: a grid listing the same cap twice computes that
    # cell once; `cells` is keyed by cap, so result assembly fans the
    # single outcome out to every occurrence.  The multiplicity map
    # keeps progress honest — `done` must still reach len(caps).
    multiplicity = {cap: pending.count(cap) for cap in dict.fromkeys(pending)}
    deduped = len(pending) - len(multiplicity)
    if deduped:
        # Derived from the spec's cap grid alone, so deterministic.
        inc("cells.deduped", deduped)
    pending = list(multiplicity)

    if workers > 1 and len(pending) > 1 and registry is None:
        cache_root = str(cache.root) if cache is not None else None
        spec_json = spec.to_json()
        items: list = [(spec_json, cap, cache_root) for cap in pending]
        fn = scenario_cell_task
    else:
        workers = 1
        items = list(pending)
        fn = partial(run_scenario_cell, spec, cache=cache, registry=registry)
    if faults is not None:
        # Re-anchor the injector on the stable cell identity and the
        # actual cache root, whatever shape the items take.
        faults = FaultInjector(
            faults.spec,
            key_fn=faults.key_fn if faults.key_fn is not None else _cell_fault_key,
            cache_root=(
                faults.cache_root if faults.cache_root is not None
                else (str(cache.root) if cache is not None else None)
            ),
        )
        fn = faults.wrap(fn)

    def on_outcome(outcome: CellOutcome) -> None:
        # Fires in submission (cap) order as each cell settles, so an
        # interrupted sweep has journaled its whole settled prefix.
        # Worker cache hit/miss accounting arrives via the observer
        # snapshots ParallelRunner merges.
        cap = pending[outcome.index]
        if progress is not None:
            for _ in range(multiplicity[cap]):
                progress.update(ok=outcome.ok)
        if not outcome.ok:
            inc("cell.failed")
            emit(CellFailureEvent(
                benchmark=spec.benchmark,
                cap_per_socket_w=cap,
                error_type=outcome.error_type,
                error_message=outcome.error_message,
                attempts=outcome.attempts,
            ))
        journal_cell_outcome(journal, keys[cap], spec, cap, outcome)

    with opts.runner(workers, backoff_seed=spec.seed) as runner:
        outcomes = runner.map_outcomes(fn, items, on_outcome=on_outcome)
    for cap, outcome in zip(pending, outcomes):
        cells[cap] = outcome.value if outcome.ok else _gap_cell(
            spec, cap, reg, schedulable=True,
            failure=CellFailure.from_outcome(outcome),
        )
    failed = next((o for o in outcomes if not o.ok), None)
    if failed is not None and not keep_going:
        raise ParallelExecutionError(
            f"cell cap={pending[failed.index]:g} {failed.error_type} on all "
            f"{failed.attempts} attempt(s): {failed.error_message}"
        ) from failed.error

    set_gauge("sweep.cells_total", len(caps))
    return ScenarioResult(spec=spec, cells=[cells[cap] for cap in caps])


# ----------------------------------------------------------------------
def policy_iteration_time(
    policy: str,
    app,
    power_models: list[SocketPowerModel],
    job_cap_w: float,
    iterations: int,
    config: dict | None = None,
    trace: Trace | None = None,
    cache: SolverCache | None = None,
    registry: PolicyRegistry | None = None,
    label: str | None = None,
) -> float | None:
    """Raw per-iteration time of one registered policy on one app + cap.

    The building block for callers that model performance as a function
    of power (the cluster co-scheduler's anchor evaluations): a runtime
    policy is engine-run over the whole application (makespan divided by
    ``iterations``); a bound is solved on ``trace`` (traced on demand
    when omitted).  Returns None when the bound is infeasible at the cap.
    ``label``, when given, wraps the evaluation in a trace scope so
    cluster anchors are attributable in exported traces.
    """
    registry = registry if registry is not None else default_registry()
    entry = registry.get(policy)
    cfg = entry.resolve_config(config)
    rec = current_observer().recorder
    scope = partial(_scope, rec, label) if label is not None else nullcontext
    if entry.kind == "bound":
        if trace is None:
            trace = trace_application(app, power_models)
        ctx = PolicyContext(
            power_models=power_models, job_cap_w=job_cap_w, app=app,
            trace=trace, cache=cache, lp_iterations=iterations,
        )
        bound = entry.solve(ctx, cfg, scope)
        return bound.time_s
    ctx = PolicyContext(
        power_models=power_models, job_cap_w=job_cap_w, app=app,
        lp_iterations=iterations,
    )
    policy_obj = entry.build(ctx, cfg)
    with scope():
        result = Engine(power_models).run(app, policy_obj)
    return result.makespan_s / iterations
