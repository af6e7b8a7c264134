"""The fixed-vertex-order LP (paper Figures 4-6) — the central contribution.

Minimizes application makespan under a job-level power constraint by
choosing, per task, a convex mixture of configurations from the task's
convex Pareto frontier.  Power is constrained at *events* (DAG vertices)
whose order is fixed to a power-unconstrained initial schedule, which
keeps the formulation purely linear — and solvable for realistic traces
(thousands of processes / hundreds of edges per process, per the paper).

Variable layout (compiled from the shared :mod:`.model` IR):

* ``v[k]``   — time of vertex k (eq. 2 pins Init at 0; objective eq. 1
  minimizes the Finalize vertex's time);
* ``c[e,j]`` — fraction of task e run in frontier configuration j
  (eqs. 6-9; durations and powers substitute in via eqs. 7-8).

Constraints:

* precedence (eqs. 3-4): ``v_dst - v_src >= sum_j d_ej c_ej`` per compute
  edge, ``v_dst - v_src >= duration`` per message edge;
* event power (eqs. 10-11): ``sum_{e in R_k} sum_j p_ej c_ej <= PC`` per
  event — these rows carry :data:`~.model.CAP_ROW_TAG`, so a compiled
  model re-solves at any other cap by updating only the RHS;
* event order (eqs. 12-13): vertex times follow the initial order, with
  coincident-in-initial-schedule vertices tied equal.

One rule fixes the continuous LP's answer at a cap ``PC``.  The power
ceiling is the peak event power with every task at its most
power-hungry configuration; no schedule draws more, so at ``PC`` at or
above the ceiling the cap rows cannot bind and the model equals the one
with the cap rows freed.  There the answer is that relaxed model's
optimum ``x_free``, one solve shared by every such cap; below the
ceiling it is the cold solve at ``PC``.  The rule depends only on the
inputs, so every path — one-shot, parametric, cached, in any order —
returns the same bits, and no path runs more solves than one per cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.observer import inc, span
from ..simulator.trace import Trace
from .events import EventStructure
from .schedule import PowerSchedule
from .model import (
    CAP_ROW_TAG,
    CompiledModel,
    ProblemInstance,
    base_model,
    build_problem_instance,
    extract_schedule,
)
from .solver import FrozenProgram, InfeasibleError, LpSolution, LpStatus

__all__ = [
    "FixedOrderLpResult",
    "solve_fixed_order_lp",
    "compile_fixed_order",
    "power_ceiling_w",
    "solve_at_cap",
]


@dataclass
class FixedOrderLpResult:
    """LP outcome: a continuous schedule (None when infeasible) + solver data."""

    schedule: PowerSchedule | None
    solution: LpSolution
    events: EventStructure

    @property
    def feasible(self) -> bool:
        return self.schedule is not None

    @property
    def makespan_s(self) -> float:
        if self.schedule is None:
            raise InfeasibleError("LP was infeasible; no makespan")
        return self.schedule.objective_s


def power_ceiling_w(compiled: CompiledModel, frozen: FrozenProgram) -> float:
    """Peak event power with every task at its most power-hungry
    configuration: no cap at or above it can bind.

    Each task's configuration fractions sum to one, so an event-power
    row never exceeds the sum of its tasks' largest powers.
    """
    x = np.zeros(frozen.n_vars)
    for edge_id, cols in compiled.c_idx.items():
        x[cols[int(np.argmax(compiled.frontiers[edge_id].powers))]] = 1.0
    return float(frozen.row_activity(CAP_ROW_TAG, x).max(initial=0.0))


def solve_at_cap(
    frozen: FrozenProgram,
    cap_w: float,
    ceiling_w: float,
    time_limit_s: float | None = None,
    relaxed: LpSolution | None = None,
) -> tuple[LpSolution, LpSolution | None]:
    """The continuous fixed-order LP's answer at ``cap_w`` by the module's
    rule, and the relaxed optimum to pass back in as ``relaxed``.

    Below ``ceiling_w`` (:func:`power_ceiling_w`) the answer is the solve
    at ``cap_w``.  From it up the answer is the relaxed optimum:
    ``relaxed`` when given, else one solve with the cap rows freed.  A
    relaxed solve that fails (e.g. on a time limit) is the answer but is
    not handed back, so the next caller solves it again.
    """
    if cap_w < ceiling_w:
        solution = frozen.solve(
            time_limit_s=time_limit_s, rhs={CAP_ROW_TAG: float(cap_w)}
        )
        return solution, relaxed
    if relaxed is None:
        relaxed = frozen.solve(
            time_limit_s=time_limit_s, rhs={CAP_ROW_TAG: np.inf}
        )
        if not relaxed.ok:
            return relaxed, None
    inc("solve.saturated")
    return relaxed, relaxed


#: Discrete (binary-configuration) instances beyond this many tasks are
#: rejected — "a significantly less efficient solution method, which
#: prohibits us from solving realistic problems" (paper §3.2).
MAX_DISCRETE_TASKS = 64


def compile_fixed_order(
    instance: ProblemInstance,
    cap_w: float,
    power_tiebreak: float = 1e-9,
    discrete: bool = False,
    assembly: str = "bulk",
) -> CompiledModel:
    """Compile the fixed-order LP (eqs. 1-13) from the shared IR.

    The cap appears only in the RHS of the event-power rows, which are
    tagged :data:`~.model.CAP_ROW_TAG`: freeze the compiled model once and
    re-solve it at any cap via ``frozen.solve(rhs={CAP_ROW_TAG: cap})``.

    ``assembly`` selects bulk (default) vs row-by-row reference matrix
    assembly; both compile the identical model (see :func:`base_model`).
    """
    if cap_w <= 0:
        raise ValueError(f"cap must be positive, got {cap_w}")
    frontiers = instance.frontier_family(discrete)
    lp, v_idx, c_idx = base_model(
        instance,
        name=f"fixed-order-{instance.trace.app.name}",
        frontiers=frontiers,
        integer=discrete,
        assembly=assembly,
    )
    events = instance.events

    # Event power (eqs. 8, 10-11): one constraint per event group (tied
    # vertices share identical activity sets by construction, so one row
    # per group representative suffices).  Consecutive groups with the
    # same activity set yield *identical* rows — e.g. the many per-rank
    # wait events inside a halo exchange — so only the first is emitted;
    # this cuts LULESH-scale models by an order of magnitude with no
    # change to the feasible region.
    seen_sets: set[frozenset[int]] = set()
    emit: list[frozenset[int]] = []
    for group in events.groups:
        act = frozenset(events.active[group[0]])
        if not act or act in seen_sets:
            continue
        seen_sets.add(act)
        emit.append(act)
    if assembly == "bulk":
        c_arr = {
            e: np.asarray(cols, dtype=np.int64) for e, cols in c_idx.items()
        }
        if emit:
            col_parts = []
            val_parts = []
            widths = []
            for act in emit:
                width = 0
                for edge_id in act:
                    col_parts.append(c_arr[edge_id])
                    val_parts.append(frontiers[edge_id].powers)
                    width += len(frontiers[edge_id])
                widths.append(width)
            lp.add_block(
                indptr=np.concatenate(
                    [[0], np.cumsum(np.asarray(widths, dtype=np.int64))]
                ),
                cols=np.concatenate(col_parts),
                vals=np.concatenate(val_parts),
                lo=-np.inf,
                hi=cap_w,
                label="power",
                tag=CAP_ROW_TAG,
            )
    else:
        for act in emit:
            terms: dict[int, float] = {}
            for edge_id in act:
                for col, power in zip(
                    c_idx[edge_id], frontiers[edge_id].powers
                ):
                    terms[col] = terms.get(col, 0.0) + power
            lp.add_le(terms, cap_w, label="power", tag=CAP_ROW_TAG)

    # Event order (eqs. 12-13).
    if assembly == "bulk":
        tie_cols = []
        order_cols = []
        for group in events.groups:
            rep = group[0]
            for other in group[1:]:
                tie_cols.append((v_idx[other], v_idx[rep]))
        for prev, nxt in zip(events.groups, events.groups[1:]):
            order_cols.append((v_idx[nxt[0]], v_idx[prev[0]]))
        for pairs, lo_b, hi_b, lbl in (
            (tie_cols, 0.0, 0.0, "tie"),
            (order_cols, 0.0, np.inf, "order"),
        ):
            if not pairs:
                continue
            flat = np.asarray(pairs, dtype=np.int64).ravel()
            lp.add_block(
                indptr=np.arange(0, 2 * len(pairs) + 1, 2, dtype=np.int64),
                cols=flat,
                vals=np.tile(np.array([1.0, -1.0]), len(pairs)),
                lo=lo_b,
                hi=hi_b,
                label=lbl,
            )
    else:
        for group in events.groups:
            rep = group[0]
            for other in group[1:]:
                lp.add_eq(
                    {v_idx[other]: 1.0, v_idx[rep]: -1.0},
                    0.0,
                    label=f"tie{other}",
                )
        for prev, nxt in zip(events.groups, events.groups[1:]):
            lp.add_ge(
                {v_idx[nxt[0]]: 1.0, v_idx[prev[0]]: -1.0}, 0.0,
                label=f"order{prev[0]}-{nxt[0]}",
            )

    # Objective (eq. 1) plus the minimal-power tiebreak.
    if assembly == "bulk":
        obj = np.zeros(lp.n_vars)
        obj[v_idx[instance.fin_id]] = 1.0
        if power_tiebreak > 0:
            for edge_id, cols in c_arr.items():
                obj[cols] += power_tiebreak * frontiers[edge_id].powers
        lp.set_objective_dense(obj)
    else:
        objective: dict[int, float] = {v_idx[instance.fin_id]: 1.0}
        if power_tiebreak > 0:
            for edge_id, cols in c_idx.items():
                for col, power in zip(cols, frontiers[edge_id].powers):
                    objective[col] = (
                        objective.get(col, 0.0) + power_tiebreak * power
                    )
        lp.set_objective(objective)

    return CompiledModel(
        instance=instance,
        lp=lp,
        v_idx=v_idx,
        c_idx=c_idx,
        frontiers=frontiers,
        formulation="fixed-order",
        kind="discrete" if discrete else "continuous",
        cap_w=float(cap_w),
    )


def solve_fixed_order_lp(
    trace: Trace,
    cap_w: float,
    events: EventStructure | None = None,
    power_tiebreak: float = 1e-9,
    time_limit_s: float | None = None,
    discrete: bool = False,
    instance: ProblemInstance | None = None,
    assembly: str = "bulk",
) -> FixedOrderLpResult:
    """Solve the fixed-vertex-order LP for a traced application.

    Parameters
    ----------
    trace:
        Traced application (graph + per-task convex frontiers).
    cap_w:
        Job-level power constraint PC (total watts across all sockets).
    events:
        Precomputed event structure; recomputed from the trace when None.
        Passing one in lets a power sweep share the (fixed) event order.
    power_tiebreak:
        Tiny objective weight on total task power that selects the
        minimum-power optimum among equal-makespan solutions; keeps slack
        tasks on the Pareto frontier instead of arbitrary vertices.
        Must stay small enough not to trade makespan for power.
    discrete:
        Solve the paper's *discrete* variant (equation 5: each task runs a
        single configuration for its whole duration) as a mixed-integer
        program over the full Pareto set.  Exact but only tractable for
        small traces — the continuous LP plus rounding is the production
        path (paper §3.2).
    instance:
        A prebuilt :class:`ProblemInstance` for this trace.  Callers
        solving the same trace repeatedly (sweeps, experiment grids)
        should build it once and pass it here; ``events`` is ignored
        in that case.

    The continuous answer follows the module's rule (see
    :func:`solve_at_cap`), so it equals
    :class:`~.sweep.ParametricCapSolver`'s bit for bit; either way it
    costs one HiGHS run.
    """
    if cap_w <= 0:
        raise ValueError(f"cap must be positive, got {cap_w}")
    if discrete and len(trace.task_edges) > MAX_DISCRETE_TASKS:
        raise ValueError(
            f"discrete formulation limited to {MAX_DISCRETE_TASKS} tasks "
            f"(got {len(trace.task_edges)}); solve continuously and round"
        )
    with span("assemble"):
        if instance is None:
            instance = build_problem_instance(trace, events=events)
        compiled = compile_fixed_order(
            instance,
            cap_w,
            power_tiebreak=power_tiebreak,
            discrete=discrete,
            assembly=assembly,
        )
        frozen = compiled.freeze()

    if discrete:
        solution = frozen.solve(time_limit_s=time_limit_s)
    else:
        ceiling_w = power_ceiling_w(compiled, frozen)
        solution, _ = solve_at_cap(frozen, cap_w, ceiling_w, time_limit_s)
    if solution.status is not LpStatus.OPTIMAL:
        return FixedOrderLpResult(
            schedule=None, solution=solution, events=instance.events
        )

    schedule = extract_schedule(
        compiled, solution, reference=(assembly == "reference")
    )
    return FixedOrderLpResult(
        schedule=schedule, solution=solution, events=instance.events
    )
