"""The flow-based ILP formulation (paper Appendix, eqs. 14-29).

Power is modeled as a *flow* through time: an artificial source task (id 0,
duration 0, power PC) at time zero, an artificial sink (id N+1) after
MPI_Finalize, and binary sequencing variables ``x[i,j]`` (task i finishes
before task j starts) that gate power-flow variables ``f[i,j]``.  Flow
conservation (eqs. 28-29) forces every task's power to be routed from
tasks that finished earlier, so any set of tasks overlapping in time can
draw at most PC in total — without fixing the event order, which is what
makes this formulation integer (and practically limited to <30-edge DAGs,
exactly as the paper reports).

Differences from the fixed-order LP, faithful to the paper:

* the solver chooses the event order (via x) instead of inheriting it;
* slack is *not* charged at task power — a task draws power only while
  executing (the paper assigns slack an observed constant; our machine
  model's observed slack draw is the idle floor, which we exclude from
  both formulations' power accounting for a like-for-like Figure 8).

Configuration fractions stay continuous over each task's convex frontier —
mid-task switching realizes any hull mixture, so integrality is needed
only in the sequencing variables.

The common equations (Fig. 4: vertex times, configuration simplices,
precedence) come from :func:`~.model.base_model`; only the sequencing and
flow machinery is built here, on top of the shared IR.

Implementation notes: eqs. 19-20 and 22 of the appendix place *slack*
edges, which this reproduction folds into its successor vertex; eq. 21
(tasks sharing a source vertex are never sequenced) is kept.  Big-M values
come from a serialized-workload horizon bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..dag.graph import TaskGraph
from ..obs.observer import span
from ..simulator.trace import Trace
from .model import (
    CompiledModel,
    ProblemInstance,
    base_model,
    build_problem_instance,
    extract_schedule,
)
from .schedule import PowerSchedule
from .solver import LpSolution, LpStatus

__all__ = ["FlowIlpResult", "solve_flow_ilp", "compile_flow_ilp",
           "MAX_FLOW_ILP_EDGES"]

#: Practical size guard mirroring the paper's observation that flow-ILP
#: instances beyond ~30 DAG edges are intractable.
MAX_FLOW_ILP_EDGES = 40


@dataclass
class FlowIlpResult:
    """Flow ILP outcome (schedule None when infeasible/limited out)."""

    schedule: PowerSchedule | None
    solution: LpSolution

    @property
    def feasible(self) -> bool:
        return self.schedule is not None

    @property
    def makespan_s(self) -> float:
        if self.schedule is None:
            raise RuntimeError("flow ILP was infeasible; no makespan")
        return self.schedule.objective_s


def _task_precedence_closure(graph: TaskGraph, tasks: list[int]) -> set[tuple[int, int]]:
    """Transitive closure TE over compute tasks: (i, j) if i must precede j.

    Task i precedes task j when a directed path runs from dst(i) to src(j)
    (possibly through message edges and other tasks).
    """
    n_v = graph.n_vertices
    reach = [set() for _ in range(n_v)]
    order = graph.topological_order()
    for vid in reversed(order):
        r = reach[vid]
        r.add(vid)
        for e in graph.out_edges(vid):
            r |= reach[e.dst]
    closure: set[tuple[int, int]] = set()
    for i in tasks:
        for j in tasks:
            if i == j:
                continue
            ei, ej = graph.edges[i], graph.edges[j]
            if ej.src in reach[ei.dst]:
                closure.add((i, j))
    return closure


def compile_flow_ilp(
    instance: ProblemInstance,
    cap_w: float,
    power_tiebreak: float = 1e-9,
) -> CompiledModel:
    """Compile the appendix's flow ILP from the shared IR."""
    if cap_w <= 0:
        raise ValueError(f"cap must be positive, got {cap_w}")
    graph = instance.graph
    frontiers = instance.convex
    fin_id = instance.fin_id

    tasks = [e.id for e in graph.compute_edges()]
    source, sink = -1, -2  # synthetic ids (paper's 0 and N+1)
    a0 = [source] + tasks          # A0   = A ∪ {0}
    an1 = tasks + [sink]           # AN+1 = A ∪ {N+1}
    aprime = [source] + tasks + [sink]

    # Common equations (Fig. 4): vertex times, config simplices, precedence.
    lp, v_idx, c_idx = base_model(
        instance,
        name=f"flow-ilp-{instance.trace.app.name}",
        edge_order=tasks,
    )

    # Horizon bound for big-M: everything serialized at slowest configs.
    horizon = sum(
        float(frontiers[t].durations.max()) for t in tasks
    ) + sum(e.duration_s for e in graph.message_edges())
    big_m = 2.0 * horizon + 1.0

    te = _task_precedence_closure(graph, tasks)

    # Sequencing binaries x[i,j] (eq. 14), with the fixed entries of
    # eqs. 15, 18, 21 and the source/sink orientation folded into bounds.
    x_idx: dict[tuple[int, int], int] = {}

    def fixed_x(i: int, j: int) -> float | None:
        if i == j:
            return 0.0                              # eq. 18
        if i == source:
            return 0.0 if j == source else 1.0      # source precedes all
        if j == source:
            return 0.0
        if j == sink:
            return 1.0                              # all precede the sink
        if i == sink:
            return 0.0
        if (i, j) in te:
            return 1.0                              # eq. 15
        if (j, i) in te:
            return 0.0
        ei, ej = graph.edges[i], graph.edges[j]
        if ei.src == ej.src:
            return 0.0                              # eq. 21 (common source)
        return None

    for i in aprime:
        for j in aprime:
            fixed = fixed_x(i, j)
            if fixed is None:
                x_idx[(i, j)] = lp.add_var(f"x{i}_{j}", 0.0, 1.0, integer=True)
            else:
                x_idx[(i, j)] = lp.add_var(f"x{i}_{j}", fixed, fixed, integer=True)

    # eq. 16: antisymmetry (only needed where both directions are free).
    for i, j in itertools.combinations(tasks, 2):
        lp.add_le(
            {x_idx[(i, j)]: 1.0, x_idx[(j, i)]: 1.0}, 1.0, label=f"anti{i}-{j}"
        )

    # eq. 17: transitivity x_ik >= x_ij + x_jk - 1 over task triples.
    for i, j, k in itertools.permutations(tasks, 3):
        lp.add_le(
            {
                x_idx[(i, j)]: 1.0,
                x_idx[(j, k)]: 1.0,
                x_idx[(i, k)]: -1.0,
            },
            1.0,
            label=f"trans{i}-{j}-{k}",
        )

    # eq. 23: big-M sequencing vs start times.  Task starts are the source
    # vertex times (eq. 4); source/sink pseudo-task starts get variables.
    s_source = lp.add_var("s_source", 0.0, 0.0)
    s_sink = lp.add_var("s_sink", 0.0, np.inf)
    lp.add_ge({s_sink: 1.0, v_idx[fin_id]: -1.0}, 0.0, label="sink-after-fin")

    def start_terms(i: int) -> dict[int, float]:
        if i == source:
            return {s_source: 1.0}
        if i == sink:
            return {s_sink: 1.0}
        return {v_idx[graph.edges[i].src]: 1.0}

    def duration_terms(i: int) -> dict[int, float]:
        if i in (source, sink):
            return {}                               # eq. 24: d = 0
        return {
            col: float(d)
            for col, d in zip(c_idx[i], frontiers[i].durations)
        }

    for i in aprime:
        for j in aprime:
            if i == j:
                continue
            xij = x_idx[(i, j)]
            # Skip rows whose x is fixed to 0 — they are vacuous.
            if lp.var_bounds(xij)[1] == 0.0:
                continue
            terms: dict[int, float] = {}
            for col, coeff in start_terms(j).items():
                terms[col] = terms.get(col, 0.0) + coeff
            for col, coeff in start_terms(i).items():
                terms[col] = terms.get(col, 0.0) - coeff
            for col, coeff in duration_terms(i).items():
                terms[col] = terms.get(col, 0.0) - coeff
            terms[xij] = terms.get(xij, 0.0) - big_m
            lp.add_ge(terms, -big_m, label=f"seq{i}-{j}")

    # Power flows (eqs. 25-29).  p_i is the linear expression
    # sum_j p_ij c_ij for tasks, PC for source and sink.  Note the cap
    # enters the *matrix* here (flow capacities), not just the RHS — the
    # flow ILP is not parametric in the cap the way the fixed-order LP is.
    pmax = {t: float(frontiers[t].powers.max()) for t in tasks}
    pmax[source] = cap_w
    pmax[sink] = cap_w

    f_idx: dict[tuple[int, int], int] = {}
    for i in aprime:
        for j in aprime:
            if i == j or j == source or i == sink:
                continue
            xij = x_idx[(i, j)]
            if lp.var_bounds(xij)[1] == 0.0:  # only admissible sequences
                continue
            f_idx[(i, j)] = lp.add_var(f"f{i}_{j}", 0.0, np.inf)
            # eq. 27 linearized with the constant capacity bound.
            lp.add_le(
                {f_idx[(i, j)]: 1.0, xij: -min(pmax[i], pmax[j])}, 0.0,
                label=f"cap{i}-{j}",
            )

    def power_terms(i: int, sign: float) -> dict[int, float]:
        if i in (source, sink):
            return {}
        return {
            col: sign * float(p)
            for col, p in zip(c_idx[i], frontiers[i].powers)
        }

    for i in a0:  # eq. 28: outgoing flow equals task power
        terms = {f: 1.0 for (a, b), f in f_idx.items() if a == i}
        rhs = cap_w if i == source else 0.0
        for col, coeff in power_terms(i, -1.0).items():
            terms[col] = terms.get(col, 0.0) + coeff
        lp.add_eq(terms, rhs, label=f"flow-out{i}")

    for j in an1:  # eq. 29: incoming flow equals task power
        terms = {f: 1.0 for (a, b), f in f_idx.items() if b == j}
        rhs = cap_w if j == sink else 0.0
        for col, coeff in power_terms(j, -1.0).items():
            terms[col] = terms.get(col, 0.0) + coeff
        lp.add_eq(terms, rhs, label=f"flow-in{j}")

    # Objective: minimize finalize time (+ tiny power tiebreak).
    objective: dict[int, float] = {v_idx[fin_id]: 1.0}
    if power_tiebreak > 0:
        for t in tasks:
            for col, p in zip(c_idx[t], frontiers[t].powers):
                objective[col] = objective.get(col, 0.0) + (
                    power_tiebreak * float(p)
                )
    lp.set_objective(objective)

    return CompiledModel(
        instance=instance,
        lp=lp,
        v_idx=v_idx,
        c_idx=c_idx,
        frontiers=frontiers,
        formulation="flow-ilp",
        cap_w=float(cap_w),
        solver_info={"formulation": "flow-ilp"},
    )


def solve_flow_ilp(
    trace: Trace,
    cap_w: float,
    power_tiebreak: float = 1e-9,
    time_limit_s: float | None = 120.0,
    max_edges: int = MAX_FLOW_ILP_EDGES,
    instance: ProblemInstance | None = None,
) -> FlowIlpResult:
    """Solve the appendix's flow ILP for a (small) traced application."""
    if cap_w <= 0:
        raise ValueError(f"cap must be positive, got {cap_w}")
    graph = trace.graph
    if graph.n_edges > max_edges:
        raise ValueError(
            f"flow ILP limited to {max_edges} DAG edges "
            f"(got {graph.n_edges}); use the fixed-order LP"
        )
    with span("assemble"):
        if instance is None:
            instance = build_problem_instance(trace)
        compiled = compile_flow_ilp(
            instance, cap_w, power_tiebreak=power_tiebreak
        )
        frozen = compiled.freeze()

    solution = frozen.solve(time_limit_s=time_limit_s)
    if solution.status is not LpStatus.OPTIMAL:
        return FlowIlpResult(schedule=None, solution=solution)

    schedule = extract_schedule(compiled, solution)
    return FlowIlpResult(schedule=schedule, solution=solution)
