"""The shared problem-instance IR all LP/ILP formulations compile from.

The paper's three optimization problems — the fixed-vertex-order LP, the
flow ILP, and the energy-bounding LP — pose different objectives over the
*same* trace-derived structure: vertex-time variables, per-task
configuration simplices over convex frontiers, and precedence rows.
Before this module each formulation re-derived that structure privately
(and ``energy_lp`` reached into ``fixed_order_lp`` for schedule
extraction).  Now a :class:`ProblemInstance` is built **once per trace**
and every formulation compiles its :class:`~.solver.LinearProgram` from
it:

* :func:`build_problem_instance` — trace → IR (event structure, per-task
  frontiers as dense ``(duration, power)`` arrays, vertex anchors);
* :func:`base_model` — the ~80% of rows/columns every formulation shares
  (vertex times, configuration simplex, precedence);
* :func:`extract_schedule` — the public primal-vector → PowerSchedule
  decoder, replacing the former cross-module private import.

``MODEL_LAYER_VERSION`` is part of every solver cache key: bump it when
compilation changes in any way that could alter solutions, and all stale
cached solutions are invalidated automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dag.analysis import frontier_unconstrained_schedule
from ..dag.graph import VertexKind
from ..machine.configuration import ConfigPoint
from ..machine.cpu import XEON_E5_2670
from ..machine.performance import TaskTimeModel
from ..simulator.program import TaskRef
from ..simulator.trace import Trace
from .events import EventStructure, build_event_structure
from .schedule import PowerSchedule, TaskAssignment
from .solver import LinearProgram, LpSolution

__all__ = [
    "MODEL_LAYER_VERSION",
    "CAP_ROW_TAG",
    "TaskFrontier",
    "ProblemInstance",
    "CompiledModel",
    "build_problem_instance",
    "base_model",
    "extract_schedule",
]

#: Version of the model-compilation layer.  Participates in solver cache
#: keys (see :func:`repro.exec.keys.solver_key`): any change to how
#: formulations compile from the IR must bump this so previously cached
#: solutions can never be served against the new model.
#: v3: device-qualified operating points (heterogeneous nodes) — frontier
#: documents gained a device column and the initial schedule of a
#: device-qualified trace is frontier-driven.
#: v4: the energy LP gained optional event-power cap rows (min-energy
#: subject to deadline *and* cap), so energy-lp cache entries keyed
#: against the capless compilation must never satisfy capped solves.
#: v5: the continuous fixed-order LP answers every cap at or above the
#: power ceiling with the relaxed optimum (same makespan, but energy,
#: rounding and primal vector may differ from the earlier cold solve).
MODEL_LAYER_VERSION = 5

#: Row tag on constraints whose RHS is the job power cap.  Rows carrying
#: this tag are the only part of the fixed-order model that changes
#: between caps, which is what makes parametric cap sweeps possible.
CAP_ROW_TAG = "cap"


@dataclass(frozen=True)
class TaskFrontier:
    """One task's frontier as parallel point/array views.

    ``points`` preserves the full :class:`ConfigPoint` objects (schedule
    extraction needs the configurations); ``durations``/``powers`` are the
    dense coefficient arrays compilation loops consume.
    """

    edge_id: int
    points: tuple[ConfigPoint, ...]
    durations: np.ndarray
    powers: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the formulations need, derived once from a trace.

    Attributes
    ----------
    trace:
        The traced application (kept for TaskRef correspondence and
        fingerprinting; formulations should consume the fields below).
    events:
        Fixed event order + activity sets (also carries the
        power-unconstrained initial schedule in ``events.initial``).
    convex:
        Per-compute-edge convex frontiers — the continuous formulations'
        configuration sets.
    pareto:
        Per-compute-edge full Pareto sets — the discrete MILP's sets.
    init_id / fin_id:
        Vertex ids of MPI_Init and MPI_Finalize (objective anchors).
    """

    trace: Trace
    events: EventStructure
    convex: dict[int, TaskFrontier]
    pareto: dict[int, TaskFrontier]
    init_id: int
    fin_id: int
    version: int = MODEL_LAYER_VERSION

    @property
    def graph(self):
        return self.trace.graph

    def frontier_family(self, discrete: bool = False) -> dict[int, TaskFrontier]:
        """The frontier set a formulation compiles against (paper §3.2:
        the discrete variant selects one configuration outright, so the
        larger full Pareto set is strictly better there)."""
        return self.pareto if discrete else self.convex

    def unconstrained_makespan_s(self) -> float:
        """Makespan of the power-unconstrained initial schedule."""
        return float(self.events.initial.makespan)


def _as_frontiers(raw: dict[int, list[ConfigPoint]]) -> dict[int, TaskFrontier]:
    out: dict[int, TaskFrontier] = {}
    for edge_id, points in raw.items():
        if not points:
            raise ValueError(f"task edge {edge_id} has an empty frontier")
        out[edge_id] = TaskFrontier(
            edge_id=edge_id,
            points=tuple(points),
            durations=np.array([p.duration_s for p in points]),
            powers=np.array([p.power_w for p in points]),
        )
    return out


def build_problem_instance(
    trace: Trace,
    events: EventStructure | None = None,
    time_model: TaskTimeModel | None = None,
) -> ProblemInstance:
    """Build the shared IR for a traced application.

    ``events`` lets callers that already derived the (trace-only) event
    structure share it; otherwise it is computed from the paper's default
    power-unconstrained initial schedule.  Device-qualified traces (from
    heterogeneous nodes) derive that schedule from the traced frontiers —
    their fastest operating point is a per-task device choice that no
    single CPU time model can express; homogeneous traces keep the
    legacy time-model path bit for bit.
    """
    graph = trace.graph
    if events is None:
        if time_model is None and trace.uses_devices:
            events = build_event_structure(
                graph, initial=frontier_unconstrained_schedule(graph, trace.frontiers)
            )
        else:
            tm = time_model if time_model is not None else TaskTimeModel(XEON_E5_2670)
            events = build_event_structure(graph, tm)
    return ProblemInstance(
        trace=trace,
        events=events,
        convex=_as_frontiers(trace.frontiers),
        pareto=_as_frontiers(trace.pareto),
        init_id=graph.find_vertex(VertexKind.INIT).id,
        fin_id=graph.find_vertex(VertexKind.FINALIZE).id,
    )


@dataclass(frozen=True)
class _ColumnArrays:
    """Variable layout of a compiled model as ready-to-index arrays."""

    vertices: np.ndarray
    tasks: dict[int, np.ndarray]


@dataclass(frozen=True)
class _ExtractLayout:
    """Flattened per-task decode layout (cached; extraction hot path).

    Task ``t`` (in ``items`` order) owns the slice
    ``indptr[t]:indptr[t+1]`` of the concatenated arrays: its solution
    columns, and the frontier duration/power coefficients aligned with
    them.  Lets :func:`extract_schedule` decode every task with a handful
    of whole-solution gathers instead of per-task indexing.
    """

    items: tuple
    all_cols: np.ndarray
    indptr: np.ndarray
    durations: np.ndarray
    powers: np.ndarray


@dataclass
class CompiledModel:
    """A formulation compiled from the IR, ready to solve and decode.

    Ties the :class:`~.solver.LinearProgram` to the variable layout the
    compilation chose, so :func:`extract_schedule` can decode any solution
    of this model (including parametric re-solves at other caps).
    """

    instance: ProblemInstance
    lp: LinearProgram
    v_idx: list[int]
    c_idx: dict[int, list[int]]
    frontiers: dict[int, TaskFrontier]
    formulation: str
    kind: str = "continuous"
    cap_w: float | None = None
    solver_info: dict = field(default_factory=dict)
    _columns: "_ColumnArrays | None" = field(
        default=None, repr=False, compare=False
    )
    _layout: "_ExtractLayout | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def fin_id(self) -> int:
        return self.instance.fin_id

    def column_arrays(self) -> "_ColumnArrays":
        """The variable layout as index arrays (cached; decode hot path)."""
        if self._columns is None:
            self._columns = _ColumnArrays(
                vertices=np.asarray(self.v_idx),
                tasks={e: np.asarray(c) for e, c in self.c_idx.items()},
            )
        return self._columns

    def extract_layout(self) -> "_ExtractLayout":
        """Flattened task decode layout (cached; see :class:`_ExtractLayout`)."""
        if self._layout is None:
            cols = self.column_arrays()
            items = tuple(self.instance.trace.task_edges.items())
            per_task = [cols.tasks[edge_id] for _, edge_id in items]
            widths = np.array([len(a) for a in per_task], dtype=np.int64)
            self._layout = _ExtractLayout(
                items=items,
                all_cols=(
                    np.concatenate(per_task)
                    if per_task
                    else np.empty(0, dtype=np.int64)
                ),
                indptr=np.concatenate([[0], np.cumsum(widths)]),
                durations=(
                    np.concatenate(
                        [self.frontiers[e].durations for _, e in items]
                    )
                    if items
                    else np.empty(0)
                ),
                powers=(
                    np.concatenate([self.frontiers[e].powers for _, e in items])
                    if items
                    else np.empty(0)
                ),
            )
        return self._layout

    def freeze(self):
        """Assemble once for parametric re-solve (see FrozenProgram)."""
        return self.lp.freeze()


def base_model(
    instance: ProblemInstance,
    name: str,
    frontiers: dict[int, TaskFrontier] | None = None,
    edge_order: list[int] | None = None,
    integer: bool = False,
    assembly: str = "bulk",
) -> tuple[LinearProgram, list[int], dict[int, list[int]]]:
    """Compile the rows/columns every formulation shares.

    * vertex time variables ``v_k`` with Init pinned at 0 (eq. 2);
    * per-task configuration fractions ``c_{ij}`` with the simplex row
      (eqs. 6, 9 — binary under ``integer`` for the discrete variant);
    * precedence rows (eqs. 3-4, 7) for compute and message edges.

    Returns ``(lp, v_idx, c_idx)``; the caller adds its objective and its
    formulation-specific rows on top.

    ``assembly`` selects the matrix build: ``"bulk"`` (default) appends
    whole constraint blocks as CSR batches; ``"reference"`` keeps the
    original row-by-row build as an oracle.  Both produce the same model
    — same variables, same row order, same assembled matrix — so
    solutions are identical; the tests assert this.
    """
    if assembly not in ("bulk", "reference"):
        raise ValueError(f"assembly must be 'bulk' or 'reference', got {assembly!r}")
    graph = instance.graph
    if frontiers is None:
        frontiers = instance.convex
    order = list(frontiers) if edge_order is None else edge_order
    if assembly == "reference":
        return _base_model_reference(instance, name, frontiers, order, integer)

    lp = LinearProgram(name=name)
    vert_ub = np.full(len(graph.vertices), np.inf)
    for i, vertex in enumerate(graph.vertices):
        if vertex.id == instance.init_id:
            vert_ub[i] = 0.0
    v_idx = lp.add_vars(
        [f"v{v.id}" for v in graph.vertices], lb=0.0, ub=vert_ub
    )

    # Configuration-fraction columns for every task edge, then the one-hot
    # simplex rows as a single block — row order matches the reference
    # build (one row per edge, in ``order``).
    c_idx: dict[int, list[int]] = {}
    for edge_id in order:
        frontier = frontiers[edge_id]
        c_idx[edge_id] = lp.add_vars(
            [f"c{edge_id}_{j}" for j in range(len(frontier))],
            lb=0.0,
            ub=1.0,
            integer=integer,
        )
    c_arr = {e: np.asarray(cols, dtype=np.int64) for e, cols in c_idx.items()}
    if order:
        widths = np.array([len(frontiers[e]) for e in order], dtype=np.int64)
        onehot_cols = np.concatenate([c_arr[e] for e in order])
        lp.add_block(
            indptr=np.concatenate([[0], np.cumsum(widths)]),
            cols=onehot_cols,
            vals=np.ones(len(onehot_cols)),
            lo=1.0,
            hi=1.0,
            label="onehot",
        )

    # Precedence rows in graph.edges order (compute and message edges
    # interleaved, exactly as the reference build emits them).
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    widths: list[int] = []
    rhs: list[float] = []
    for e in graph.edges:
        if e.is_compute:
            frontier = frontiers[e.id]
            col_parts.append(
                np.array([v_idx[e.dst], v_idx[e.src]], dtype=np.int64)
            )
            col_parts.append(c_arr[e.id])
            val_parts.append(np.array([1.0, -1.0]))
            val_parts.append(-frontier.durations)
            widths.append(2 + len(frontier))
            rhs.append(0.0)
        else:
            col_parts.append(
                np.array([v_idx[e.dst], v_idx[e.src]], dtype=np.int64)
            )
            val_parts.append(np.array([1.0, -1.0]))
            widths.append(2)
            rhs.append(e.duration_s)
    if widths:
        lp.add_block(
            indptr=np.concatenate(
                [[0], np.cumsum(np.asarray(widths, dtype=np.int64))]
            ),
            cols=np.concatenate(col_parts),
            vals=np.concatenate(val_parts),
            lo=np.asarray(rhs),
            hi=np.inf,
            label="prec",
        )
    return lp, v_idx, c_idx


def _base_model_reference(
    instance: ProblemInstance,
    name: str,
    frontiers: dict[int, TaskFrontier],
    order: list[int],
    integer: bool,
) -> tuple[LinearProgram, list[int], dict[int, list[int]]]:
    """Row-by-row reference build (the pre-vectorization oracle)."""
    graph = instance.graph
    lp = LinearProgram(name=name)

    v_idx: list[int] = []
    for vertex in graph.vertices:
        ub = 0.0 if vertex.id == instance.init_id else np.inf
        v_idx.append(lp.add_var(f"v{vertex.id}", lb=0.0, ub=ub))

    c_idx: dict[int, list[int]] = {}
    for edge_id in order:
        frontier = frontiers[edge_id]
        cols = [
            lp.add_var(f"c{edge_id}_{j}", lb=0.0, ub=1.0, integer=integer)
            for j in range(len(frontier))
        ]
        c_idx[edge_id] = cols
        lp.add_eq({col: 1.0 for col in cols}, 1.0, label=f"onehot{edge_id}")

    for e in graph.edges:
        if e.is_compute:
            terms = {v_idx[e.dst]: 1.0, v_idx[e.src]: -1.0}
            for col, duration in zip(c_idx[e.id], frontiers[e.id].durations):
                terms[col] = terms.get(col, 0.0) - duration
            lp.add_ge(terms, 0.0, label=f"prec-task{e.id}")
        else:
            lp.add_ge(
                {v_idx[e.dst]: 1.0, v_idx[e.src]: -1.0},
                e.duration_s,
                label=f"prec-msg{e.id}",
            )
    return lp, v_idx, c_idx


def extract_schedule(
    compiled: CompiledModel,
    solution: LpSolution,
    cap_w: float | None = None,
    kind: str | None = None,
    frac_tol: float = 1e-7,
    reference: bool = False,
) -> PowerSchedule:
    """Decode a primal vector into a :class:`PowerSchedule`.

    The public replacement for the formulations' former private
    extraction helpers.  ``cap_w`` defaults to the cap the model was
    compiled at; parametric re-solves pass the cap actually solved.

    ``reference=True`` decodes with the original per-task loop; the
    default vectorized decode produces bit-identical schedules (the
    tests assert this) via whole-solution gathers.
    """
    if cap_w is None:
        cap_w = compiled.cap_w
    if cap_w is None:
        raise ValueError("extract_schedule needs a cap (model compiled without)")
    x = solution.x
    cols = compiled.column_arrays()
    vertex_times = x[cols.vertices]
    if reference:
        assignments = _extract_assignments_reference(compiled, x, frac_tol)
    else:
        assignments = _extract_assignments(compiled, x, frac_tol)
    return PowerSchedule(
        kind=kind if kind is not None else compiled.kind,
        cap_w=float(cap_w),
        objective_s=float(x[compiled.v_idx[compiled.fin_id]]),
        assignments=assignments,
        vertex_times=vertex_times,
        solver_info={
            "n_vars": compiled.lp.n_vars,
            "n_constraints": compiled.lp.n_constraints,
            "objective_raw": solution.objective,
            **compiled.solver_info,
        },
    )


def _extract_assignments(
    compiled: CompiledModel, x: np.ndarray, frac_tol: float
) -> dict[TaskRef, TaskAssignment]:
    """Vectorized decode: gather/clip/normalize all tasks at once.

    The per-task weighted duration/power sums stay as sequential
    accumulation over the (tiny) kept mixtures so the floats match the
    reference decode bit for bit; the normalizing denominators use
    ``np.add.reduceat``, which performs the same reduction the
    reference's per-task ``.sum()`` does.
    """
    lay = compiled.extract_layout()
    assignments: dict[TaskRef, TaskAssignment] = {}
    if not lay.items:
        return assignments
    fracs = x[lay.all_cols].clip(0.0, 1.0)
    keep = fracs > frac_tol
    starts = lay.indptr[:-1]
    counts = np.add.reduceat(keep.astype(np.int64), starts)
    for t in np.flatnonzero(counts == 0):
        lo, hi = int(lay.indptr[t]), int(lay.indptr[t + 1])
        keep[lo + int(np.argmax(fracs[lo:hi]))] = True
        counts[t] = 1
    kept_idx = np.flatnonzero(keep)
    kept_ptr = np.concatenate([[0], np.cumsum(counts)])
    kept_fracs = fracs[kept_idx]
    sums = np.add.reduceat(kept_fracs, kept_ptr[:-1])
    norm = kept_fracs / np.repeat(sums, counts)
    d_terms = (lay.durations[kept_idx] * norm).tolist()
    p_terms = (lay.powers[kept_idx] * norm).tolist()
    local = (kept_idx - np.repeat(starts, counts)).tolist()
    norm_l = norm.tolist()
    kp = kept_ptr.tolist()
    for t, (ref, edge_id) in enumerate(lay.items):
        lo, hi = kp[t], kp[t + 1]
        duration = 0.0
        power = 0.0
        for k in range(lo, hi):
            duration += d_terms[k]
            power += p_terms[k]
        points = compiled.frontiers[edge_id].points
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=edge_id,
            mixture=tuple(
                (points[local[k]], norm_l[k]) for k in range(lo, hi)
            ),
            duration_s=duration,
            power_w=power,
        )
    return assignments


def _extract_assignments_reference(
    compiled: CompiledModel, x: np.ndarray, frac_tol: float
) -> dict[TaskRef, TaskAssignment]:
    """Per-task reference decode (the pre-vectorization oracle)."""
    cols = compiled.column_arrays()
    assignments: dict[TaskRef, TaskAssignment] = {}
    for ref, edge_id in compiled.instance.trace.task_edges.items():
        frontier = compiled.frontiers[edge_id]
        fracs = x[cols.tasks[edge_id]].clip(0.0, 1.0)
        keep = fracs > frac_tol
        if not keep.any():
            keep[int(np.argmax(fracs))] = True
        kept = np.flatnonzero(keep)
        kept_fracs = fracs[kept]
        kept_fracs = kept_fracs / kept_fracs.sum()
        duration = power = 0.0
        for j, f in zip(kept, kept_fracs):
            duration += frontier.durations[j] * f
            power += frontier.powers[j] * f
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=edge_id,
            mixture=tuple(
                (frontier.points[j], float(f))
                for j, f in zip(kept, kept_fracs)
            ),
            duration_s=float(duration),
            power_w=float(power),
        )
    return assignments
