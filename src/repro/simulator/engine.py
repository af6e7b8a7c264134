"""Discrete-event execution engine for multi-rank MPI programs.

The engine advances one logical clock per rank through its op list,
matching messages (FIFO per (src, dst, tag) channel, eager protocol) and
synchronizing collectives (a collective completes at the latest entrant's
clock plus the network model's collective cost).  Computation durations and
powers come from the machine models, with the configuration of every task
chosen by a pluggable :class:`ConfigPolicy` — this is where Static,
Conductor, and LP-schedule replay differ.

Timing fidelity knobs mirror the paper's §6.2 overhead measurements:
per-MPI-call profiling overhead (34 µs when tracing), per-task DVFS switch
overhead (145 µs, charged when a policy changes a rank's configuration),
and the policy's own synchronous work at MPI_Pcontrol boundaries (566 µs
per Conductor reallocation), charged to every rank at the barrier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..machine.configuration import Configuration, config_arrays
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.device import NodeSpec
from ..machine.performance import (
    KernelArrays,
    TaskKernel,
    TaskTimeModel,
    batch_task_durations,
)
from ..machine.power import SocketPowerModel, batch_task_powers
from ..obs.events import CollectiveEvent, MpiWaitEvent, TaskEvent
from ..obs.observer import current_observer, inc, span
from .network import IB_QDR, NetworkModel
from .program import (
    Application,
    CollectiveOp,
    ComputeOp,
    IrecvOp,
    IsendOp,
    PcontrolOp,
    RecvOp,
    SendOp,
    TaskRef,
    WaitOp,
)

__all__ = [
    "ConfigPolicy",
    "TaskRecord",
    "SimulationResult",
    "Engine",
    "MaxPerformancePolicy",
    "RankPlan",
    "RunPlan",
    "SweepRankPlan",
    "SweepRunPlan",
    "rank_kernel_arrays",
]


@dataclass(frozen=True)
class TaskRecord:
    """Everything the runtimes and figures need to know about one task run."""

    ref: TaskRef
    iteration: int
    label: str
    config: Configuration
    start_s: float
    duration_s: float
    power_w: float
    kernel: TaskKernel

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def energy_j(self) -> float:
        return self.duration_s * self.power_w


class ConfigPolicy(Protocol):
    """Chooses a configuration for every task; may react at Pcontrol."""

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Configuration for the upcoming task.

        ``current`` is the rank's present configuration (None before the
        first task); returning a different one incurs the engine's DVFS
        switch overhead, so policies implement the paper's 1 ms-threshold
        rule by returning ``current`` for short tasks.
        """
        ...

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        """Hook at each Pcontrol barrier; returns overhead seconds (>= 0)."""
        ...

    def switch_cost_s(self) -> float:
        """Per-configuration-change overhead this policy pays (0 for RAPL)."""
        ...


@dataclass(frozen=True)
class RankPlan:
    """One rank's precomputed task decisions, in task-sequence order.

    ``configs[i]``/``durations[i]``/``powers[i]`` are exactly what the
    scalar event loop would obtain for the rank's i-th compute task from
    ``policy.configure`` + the machine models; the engine consumes them
    in place of those calls on the vectorized path.
    """

    configs: list
    durations: list
    powers: list


@dataclass(frozen=True)
class RunPlan:
    """A whole-run decision table: one :class:`RankPlan` per rank."""

    ranks: list


@dataclass(frozen=True)
class SweepRankPlan:
    """One rank's decisions for every sweep point, in task-sequence order.

    Column ``c`` of each array is exactly the :class:`RankPlan` the c-th
    sweep point would produce: ``configs[i][c]`` / ``durations[i, c]`` /
    ``powers[i, c]`` are the i-th compute task's outcome at that point,
    and ``switch_add[i, c]`` is the DVFS switch cost the event loop would
    charge before the task (0.0 when the configuration carries over —
    adding 0.0 leaves the clock bits untouched, so one fused add per task
    replays the scalar loop's conditional add exactly).
    """

    configs: list  # [n_tasks][n_points] Configuration
    durations: np.ndarray  # [n_tasks, n_points]
    powers: np.ndarray  # [n_tasks, n_points]
    switch_add: np.ndarray  # [n_tasks, n_points]
    n_switches: np.ndarray  # [n_points] int


@dataclass(frozen=True)
class SweepRunPlan:
    """A whole sweep's decision table: one :class:`SweepRankPlan` per rank.

    Consumed by :meth:`Engine.run_sweep`, which replays the application's
    event DAG *once* with vector clocks over the sweep axis instead of
    once per sweep point.
    """

    ranks: list
    n_points: int


def rank_kernel_arrays(app: Application) -> list[KernelArrays]:
    """Per-rank kernel-parameter arrays, cached on the application.

    Plan-building policies call this once per run; the gather over kernel
    attributes is paid once per application object (sweeps replay the same
    app at many caps, so the cache amortizes it to zero).
    """
    cached = getattr(app, "_plan_kernel_arrays", None)
    if cached is not None:
        return cached
    arrays = [
        KernelArrays.from_kernels(
            [op.kernel for op in program if isinstance(op, ComputeOp)]
        )
        for program in app.programs
    ]
    app._plan_kernel_arrays = arrays
    return arrays


def plan_from_configs(app: Application, engine: "Engine", per_rank_configs: list) -> RunPlan:
    """Assemble a :class:`RunPlan` from per-rank configuration lists,
    batch-evaluating durations and powers with the engine's machine
    models (the shared tail of every planning policy)."""
    arrays = rank_kernel_arrays(app)
    plans = []
    for rank, configs in enumerate(per_rank_configs):
        ka = arrays[rank]
        if configs and engine.nodes is not None and any(c.device for c in configs):
            # Device-qualified configurations: the batch evaluators only
            # know CPU math, so evaluate per task through the node's
            # devices (untagged entries keep the legacy socket models).
            node = engine.nodes[rank]
            durations = []
            powers = []
            for cfg, kernel in zip(configs, ka.kernels):
                if cfg.device:
                    dev = node.device(cfg.device)
                    durations.append(dev.duration(kernel, cfg))
                    powers.append(dev.power(kernel, cfg))
                else:
                    durations.append(
                        engine.time_models[rank].duration(
                            kernel, cfg.freq_ghz, cfg.threads, cfg.duty
                        )
                    )
                    powers.append(
                        engine.power_models[rank].power(
                            cfg.freq_ghz,
                            cfg.threads,
                            activity=kernel.activity,
                            mem_intensity=kernel.mem_intensity,
                            duty=cfg.duty,
                        )
                    )
        elif configs:
            f, n, d = config_arrays(configs)
            durations = batch_task_durations(
                engine.time_models[rank], ka, f, n, d
            ).tolist()
            powers = batch_task_powers(
                engine.power_models[rank], ka, f, n, d
            ).tolist()
        else:
            durations = []
            powers = []
        plans.append(
            RankPlan(configs=configs, durations=durations, powers=powers)
        )
    return RunPlan(ranks=plans)


class MaxPerformancePolicy:
    """Power-oblivious baseline: fastest configuration for every task."""

    def __init__(self, spec: CpuSpec = XEON_E5_2670) -> None:
        self._tm = TaskTimeModel(spec)
        self._spec = spec

    def configure(self, ref, kernel, iteration, current):
        return Configuration(self._spec.fmax_ghz, self._tm.best_threads(kernel))

    def plan_run(self, app: Application, engine: "Engine") -> RunPlan:
        """Whole-run plan: best threads per distinct kernel, memoized."""
        best: dict[TaskKernel, Configuration] = {}
        per_rank = []
        for ka in rank_kernel_arrays(app):
            configs = []
            for kernel in ka.kernels:
                cfg = best.get(kernel)
                if cfg is None:
                    cfg = Configuration(
                        self._spec.fmax_ghz, self._tm.best_threads(kernel)
                    )
                    best[kernel] = cfg
                configs.append(cfg)
            per_rank.append(configs)
        return plan_from_configs(app, engine, per_rank)

    def on_pcontrol(self, iteration, records):
        return 0.0

    def switch_cost_s(self) -> float:
        return 0.0


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    app_name: str
    makespan_s: float
    records: list[TaskRecord]
    n_ranks: int
    mpi_call_count: int
    collective_count: int
    pcontrol_overhead_s: float = 0.0
    dvfs_switch_count: int = 0

    def records_by_rank(self) -> list[list[TaskRecord]]:
        """Task records grouped by rank, in execution order."""
        by_rank: list[list[TaskRecord]] = [[] for _ in range(self.n_ranks)]
        for r in self.records:
            by_rank[r.ref.rank].append(r)
        return by_rank

    def records_for_iteration(self, iteration: int) -> list[TaskRecord]:
        return [r for r in self.records if r.iteration == iteration]

    def iterations(self) -> list[int]:
        return sorted({r.iteration for r in self.records})

    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.records)

    def makespan_after_warmup(self, discard_iterations: int) -> float:
        """Span of tasks after discarding warmup iterations (paper §5.3).

        The paper drops the first three iterations (Conductor's exploration
        phase); comparisons measure the steady-state region only.
        """
        kept = [r for r in self.records if r.iteration >= discard_iterations]
        if not kept:
            raise ValueError(
                f"no records beyond iteration {discard_iterations - 1}"
            )
        start = min(r.start_s for r in kept)
        return self.makespan_s - start


class _SweepPointResult(SimulationResult):
    """A :class:`SimulationResult` whose record list materializes lazily.

    A sweep holds every record field as one array column; building
    ``n_tasks`` :class:`TaskRecord` objects per point dominates the
    vectorized sweep's cost when most consumers only read the makespan
    and the (array-computed) timelines.  The ``records`` property builds
    the list on first access — bit-identical to the eager list, in the
    scalar scheduler's emission order.
    """

    def __init__(self, loader, **kwargs) -> None:
        self._loader = loader
        super().__init__(records=None, **kwargs)

    @property
    def records(self) -> list[TaskRecord]:
        if self._records is None:
            self._records = self._loader()
        return self._records

    @records.setter
    def records(self, value) -> None:
        self._records = value


@dataclass
class SweepRunOutcome:
    """Everything :meth:`Engine.run_sweep` learned, column per sweep point.

    ``makespans[c]`` and ``starts[rank][seq, c]`` hold the c-th point's
    scalar outcomes; MPI call/wait/collective counts are shared (the walk
    order is identical at every point).  :meth:`results` views the sweep
    as per-point :class:`SimulationResult` objects with lazily
    materialized records.
    """

    app_name: str
    n_ranks: int
    n_points: int
    makespans: np.ndarray
    starts: list  # per rank: [n_tasks, n_points]
    plan: SweepRunPlan
    emissions: list  # (rank, seq, op) in scheduler emission order
    mpi_call_count: int
    collective_count: int
    pcontrol_overhead_s: float

    def _materialize_records(self, c: int) -> list[TaskRecord]:
        plan = self.plan
        starts = self.starts
        return [
            TaskRecord(
                ref=TaskRef(rank, seq),
                iteration=op.iteration,
                label=op.label,
                config=plan.ranks[rank].configs[seq][c],
                start_s=float(starts[rank][seq, c]),
                duration_s=float(plan.ranks[rank].durations[seq, c]),
                power_w=float(plan.ranks[rank].powers[seq, c]),
                kernel=op.kernel,
            )
            for rank, seq, op in self.emissions
        ]

    def result(self, c: int) -> SimulationResult:
        """The c-th sweep point as a :class:`SimulationResult`."""
        if not (0 <= c < self.n_points):
            raise IndexError(f"sweep point {c} out of range [0, {self.n_points})")
        return _SweepPointResult(
            loader=lambda: self._materialize_records(c),
            app_name=self.app_name,
            makespan_s=float(self.makespans[c]),
            n_ranks=self.n_ranks,
            mpi_call_count=self.mpi_call_count,
            collective_count=self.collective_count,
            pcontrol_overhead_s=self.pcontrol_overhead_s,
            dvfs_switch_count=int(
                sum(rp.n_switches[c] for rp in self.plan.ranks)
            ),
        )

    def results(self) -> list[SimulationResult]:
        """All sweep points (records stay lazy until accessed)."""
        return [self.result(c) for c in range(self.n_points)]


@dataclass
class _RankState:
    clock: float = 0.0
    ptr: int = 0
    config: Configuration | None = None
    collective_idx: int = 0
    waiting_collective: bool = False
    collective_enter_s: float = 0.0
    requests: dict[int, tuple] = field(default_factory=dict)


class Engine:
    """Executes an :class:`Application` under a :class:`ConfigPolicy`.

    Parameters
    ----------
    power_models:
        One per rank (socket) — their efficiency spread is the variability
        the runtimes react to.
    network:
        Interconnect cost model.
    mpi_call_overhead_s:
        CPU cost charged per MPI call (library overhead); the tracer adds
        its measurement cost on top via ``tracing_overhead_s``.
    tracing_overhead_s:
        Extra per-call cost when the profiler is attached (34 µs median in
        the paper).
    vectorized:
        When True (default), policies exposing ``plan_run`` have their
        per-task decisions batch-evaluated up front (numpy over each
        rank's task list) and the event loop replays the plan; results
        are bit-identical to the scalar path (the tests assert this).
        False forces the scalar per-task ``configure`` path — the
        reference oracle.  Policies without ``plan_run`` (the reactive
        runtimes) always take the scalar path.
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        network: NetworkModel = IB_QDR,
        spec: CpuSpec = XEON_E5_2670,
        mpi_call_overhead_s: float = 2e-6,
        tracing_overhead_s: float = 0.0,
        vectorized: bool = True,
        nodes: list[NodeSpec] | None = None,
    ) -> None:
        if not power_models:
            raise ValueError("need at least one power model")
        if nodes is not None and len(nodes) != len(power_models):
            raise ValueError(
                f"got {len(nodes)} nodes for {len(power_models)} power models"
            )
        self.power_models = power_models
        self.network = network
        self.spec = spec
        # Heterogeneous machines: each rank's timing follows its own
        # socket's CpuSpec (identical to `spec` on homogeneous clusters).
        self.time_models = [TaskTimeModel(pm.spec) for pm in power_models]
        self.time_model = TaskTimeModel(spec)  # engine-level fallback
        # Typed-device nodes: configurations carrying a device id are
        # dispatched to that device's models; untagged configurations keep
        # the per-rank socket path above, so legacy runs are bit-identical
        # whether or not nodes are attached.
        self.nodes = list(nodes) if nodes is not None else None
        self.call_cost = mpi_call_overhead_s + tracing_overhead_s
        self.vectorized = vectorized

    # ------------------------------------------------------------------
    def run(
        self,
        app: Application,
        policy: ConfigPolicy,
        vectorized: bool | None = None,
    ) -> SimulationResult:
        """Execute the application to completion under the policy.

        ``vectorized`` overrides the engine default for this run only.
        """
        with span("replay"):
            use_vec = self.vectorized if vectorized is None else vectorized
            plan = None
            if use_vec:
                plan_fn = getattr(policy, "plan_run", None)
                if plan_fn is not None:
                    plan = plan_fn(app, self)
            return self._run(app, policy, plan)

    # ------------------------------------------------------------------
    def run_sweep(
        self,
        app: Application,
        policy: ConfigPolicy,
        plan: SweepRunPlan,
    ) -> SweepRunOutcome:
        """Execute the application once per sweep point, in one DAG walk.

        The event loop's control flow never inspects a clock value:
        blocking (an empty channel, a collective barrier) depends only on
        which ops have executed, message matching is FIFO per channel in
        program order, and the one value-dependent branch — the DVFS
        switch charge — only adds to the clock.  The walk order is
        therefore identical at every sweep point, so this method runs the
        scheduler *once* with each rank's clock held as a vector over the
        sweep axis; every scalar add/max on a clock becomes the same
        elementwise operation, making each point's materialized
        :class:`SimulationResult` bit-identical — records, order, and
        makespan — to a scalar :meth:`run` at that point's plan (the
        tests assert this).

        Requires no active trace recorder (per-event emission would need
        scalar timestamps); callers with a recorder attached should fall
        back to per-point :meth:`run` calls.  ``policy.on_pcontrol`` is
        consulted with an empty record list, so only record-oblivious
        policies (replay and other plan-based policies) are supported.
        """
        if current_observer().recorder is not None:
            raise RuntimeError(
                "run_sweep cannot emit per-event traces; run each sweep "
                "point through Engine.run when a recorder is active"
            )
        if app.n_ranks != len(self.power_models):
            raise ValueError(
                f"application has {app.n_ranks} ranks but engine has "
                f"{len(self.power_models)} power models"
            )
        with span("replay.sweep"):
            return self._run_sweep(app, policy, plan)

    def _run_sweep(
        self,
        app: Application,
        policy: ConfigPolicy,
        plan: SweepRunPlan,
    ) -> SweepRunOutcome:
        app.validate()
        n = app.n_ranks
        n_points = plan.n_points
        states = [_RankState() for _ in range(n)]
        clocks = [np.zeros(n_points) for _ in range(n)]
        enter = [None] * n  # collective-entry clock vectors
        channels: dict[tuple[int, int, int], deque[np.ndarray]] = {}
        #: compute emissions in scheduler order: (rank, seq, op)
        emissions: list[tuple[int, int, ComputeOp]] = []
        starts = [
            np.zeros((len(rp.durations), n_points)) for rp in plan.ranks
        ]
        task_seq = [0] * n
        mpi_calls = 0
        mpi_waits = 0
        collectives = 0
        pcontrol_overhead = 0.0
        call_cost = self.call_cost
        switch_cost = policy.switch_cost_s()

        def try_advance(rank: int) -> bool:
            nonlocal mpi_calls, mpi_waits
            st = states[rank]
            clock = clocks[rank]
            if st.waiting_collective or st.ptr >= len(app.programs[rank]):
                return False
            op = app.programs[rank][st.ptr]

            if isinstance(op, ComputeOp):
                seq = task_seq[rank]
                rank_plan = plan.ranks[rank]
                clock += rank_plan.switch_add[seq]
                starts[rank][seq] = clock
                emissions.append((rank, seq, op))
                clock += rank_plan.durations[seq]
                task_seq[rank] += 1
                st.ptr += 1
                return True

            if isinstance(op, SendOp):
                clock += call_cost
                mpi_calls += 1
                channels.setdefault((rank, op.dst, op.tag), deque()).append(
                    clock + self.network.message_time(op.size_bytes)
                )
                st.ptr += 1
                return True

            if isinstance(op, IsendOp):
                clock += call_cost
                mpi_calls += 1
                channels.setdefault((rank, op.dst, op.tag), deque()).append(
                    clock + self.network.message_time(op.size_bytes)
                )
                st.requests[op.request] = ("send",)
                st.ptr += 1
                return True

            if isinstance(op, IrecvOp):
                clock += call_cost
                mpi_calls += 1
                st.requests[op.request] = ("recv", op.src, op.tag)
                st.ptr += 1
                return True

            if isinstance(op, RecvOp):
                q = channels.get((op.src, rank, op.tag))
                if not q:
                    return False  # blocked: matching send not yet executed
                t_arrive = q.popleft()
                np.maximum(clock, t_arrive, out=clock)
                clock += call_cost
                mpi_calls += 1
                mpi_waits += 1
                st.ptr += 1
                return True

            if isinstance(op, WaitOp):
                req = st.requests.get(op.request)
                if req is None:
                    raise RuntimeError(
                        f"rank {rank}: wait on unposted request {op.request}"
                    )
                if req[0] == "send":
                    clock += call_cost  # eager send: wait is immediate
                else:
                    _, src, tag = req
                    q = channels.get((src, rank, tag))
                    if not q:
                        return False
                    t_arrive = q.popleft()
                    np.maximum(clock, t_arrive, out=clock)
                    clock += call_cost
                mpi_calls += 1
                mpi_waits += 1
                del st.requests[op.request]
                st.ptr += 1
                return True

            if isinstance(op, (CollectiveOp, PcontrolOp)):
                if isinstance(op, CollectiveOp) and op.participants is not None:
                    if tuple(sorted(op.participants)) != tuple(range(n)):
                        raise NotImplementedError(
                            "engine supports all-rank collectives only"
                        )
                clock += call_cost
                mpi_calls += 1
                st.waiting_collective = True
                enter[rank] = clock
                return False  # resolved collectively below

            raise TypeError(f"unknown op {op!r}")

        def resolve_collective() -> bool:
            nonlocal collectives, pcontrol_overhead
            if not all(st.waiting_collective for st in states):
                return False
            ops = [app.programs[r][states[r].ptr] for r in range(n)]
            first = ops[0]
            if not all(type(op) is type(first) for op in ops):
                raise RuntimeError(
                    f"collective mismatch across ranks: "
                    f"{[type(o).__name__ for o in ops]}"
                )
            done = enter[0]
            for r in range(1, n):
                done = np.maximum(done, enter[r])
            if isinstance(first, PcontrolOp):
                overhead = policy.on_pcontrol(first.iteration, [])
                if overhead < 0:
                    raise ValueError("pcontrol overhead must be >= 0")
                done = done + overhead
                pcontrol_overhead += overhead
            else:
                size = max(
                    op.size_bytes for op in ops if isinstance(op, CollectiveOp)
                )
                done = done + self.network.collective_time(
                    first.kind, n, size
                )
            collectives += 1
            for r, st in enumerate(states):
                clocks[r] = done.copy()
                st.waiting_collective = False
                st.ptr += 1
            return True

        # Main scheduler loop — the same fixpoint as the scalar engine;
        # only the clock arithmetic is vectorized.
        progress = True
        while progress:
            progress = False
            for rank in range(n):
                while try_advance(rank):
                    progress = True
            if resolve_collective():
                progress = True

        unfinished = [
            r for r in range(n) if states[r].ptr < len(app.programs[r])
        ]
        if unfinished:
            details = {
                r: repr(app.programs[r][states[r].ptr]) for r in unfinished
            }
            raise RuntimeError(f"deadlock: ranks blocked at {details}")

        makespans = clocks[0]
        for r in range(1, n):
            makespans = np.maximum(makespans, clocks[r])

        inc("sim.tasks", len(emissions) * n_points)
        inc("sim.mpi_waits", mpi_waits * n_points)
        inc("sim.collectives", collectives * n_points)

        return SweepRunOutcome(
            app_name=app.name,
            n_ranks=n,
            n_points=n_points,
            makespans=makespans,
            starts=starts,
            plan=plan,
            emissions=emissions,
            mpi_call_count=mpi_calls,
            collective_count=collectives,
            pcontrol_overhead_s=pcontrol_overhead,
        )

    def _run(
        self,
        app: Application,
        policy: ConfigPolicy,
        plan: RunPlan | None = None,
    ) -> SimulationResult:
        if app.n_ranks != len(self.power_models):
            raise ValueError(
                f"application has {app.n_ranks} ranks but engine has "
                f"{len(self.power_models)} power models"
            )
        app.validate()
        n = app.n_ranks
        states = [_RankState() for _ in range(n)]
        channels: dict[tuple[int, int, int], deque[float]] = {}
        records: list[TaskRecord] = []
        task_seq = [0] * n
        iteration_records: list[TaskRecord] = []
        mpi_calls = 0
        mpi_waits = 0
        collectives = 0
        pcontrol_overhead = 0.0
        dvfs_switches = 0
        # Tracing: one contextvar read per run; with tracing off the only
        # per-event cost is a local `is not None` branch.
        rec = current_observer().recorder

        def arrival(src: int, dst: int, tag: int, send_time: float, size: int) -> None:
            channels.setdefault((src, dst, tag), deque()).append(
                send_time + self.network.message_time(size)
            )

        def try_advance(rank: int) -> bool:
            nonlocal mpi_calls, mpi_waits, dvfs_switches
            st = states[rank]
            if st.waiting_collective or st.ptr >= len(app.programs[rank]):
                return False
            op = app.programs[rank][st.ptr]

            if isinstance(op, ComputeOp):
                seq = task_seq[rank]
                ref = TaskRef(rank, seq)
                if plan is not None:
                    # Vectorized path: the policy's whole-run plan holds
                    # the exact configure/duration/power outcomes.
                    rank_plan = plan.ranks[rank]
                    cfg = rank_plan.configs[seq]
                    duration = rank_plan.durations[seq]
                    power = rank_plan.powers[seq]
                else:
                    cfg = policy.configure(
                        ref, op.kernel, op.iteration, st.config
                    )
                    if cfg.device and self.nodes is not None:
                        dev = self.nodes[rank].device(cfg.device)
                        duration = dev.duration(op.kernel, cfg)
                        power = dev.power(op.kernel, cfg)
                    else:
                        duration = self.time_models[rank].duration(
                            op.kernel, cfg.freq_ghz, cfg.threads, cfg.duty
                        )
                        power = self.power_models[rank].power(
                            cfg.freq_ghz,
                            cfg.threads,
                            activity=op.kernel.activity,
                            mem_intensity=op.kernel.mem_intensity,
                            duty=cfg.duty,
                        )
                if st.config is not None and cfg != st.config:
                    st.clock += policy.switch_cost_s()
                    dvfs_switches += 1
                st.config = cfg
                rec_task = TaskRecord(
                    ref=ref, iteration=op.iteration, label=op.label, config=cfg,
                    start_s=st.clock, duration_s=duration, power_w=power,
                    kernel=op.kernel,
                )
                records.append(rec_task)
                iteration_records.append(rec_task)
                if rec is not None:
                    rec.emit(TaskEvent(
                        label=op.label, rank=rank, iteration=op.iteration,
                        ts_s=st.clock, dur_s=duration,
                        freq_ghz=cfg.freq_ghz, threads=cfg.threads,
                        duty=cfg.duty, power_w=power,
                    ))
                st.clock += duration
                task_seq[rank] += 1
                st.ptr += 1
                return True

            if isinstance(op, SendOp):
                st.clock += self.call_cost
                mpi_calls += 1
                arrival(rank, op.dst, op.tag, st.clock, op.size_bytes)
                st.ptr += 1
                return True

            if isinstance(op, IsendOp):
                st.clock += self.call_cost
                mpi_calls += 1
                arrival(rank, op.dst, op.tag, st.clock, op.size_bytes)
                st.requests[op.request] = ("send",)
                st.ptr += 1
                return True

            if isinstance(op, IrecvOp):
                st.clock += self.call_cost
                mpi_calls += 1
                st.requests[op.request] = ("recv", op.src, op.tag)
                st.ptr += 1
                return True

            if isinstance(op, RecvOp):
                q = channels.get((op.src, rank, op.tag))
                if not q:
                    return False  # blocked: matching send not yet executed
                t_arrive = q.popleft()
                if rec is not None and t_arrive > st.clock:
                    rec.emit(MpiWaitEvent(
                        name="recv", rank=rank, ts_s=st.clock,
                        dur_s=t_arrive - st.clock,
                    ))
                st.clock = max(st.clock, t_arrive) + self.call_cost
                mpi_calls += 1
                mpi_waits += 1
                st.ptr += 1
                return True

            if isinstance(op, WaitOp):
                req = st.requests.get(op.request)
                if req is None:
                    raise RuntimeError(
                        f"rank {rank}: wait on unposted request {op.request}"
                    )
                if req[0] == "send":
                    st.clock += self.call_cost  # eager send: wait is immediate
                else:
                    _, src, tag = req
                    q = channels.get((src, rank, tag))
                    if not q:
                        return False
                    t_arrive = q.popleft()
                    if rec is not None and t_arrive > st.clock:
                        rec.emit(MpiWaitEvent(
                            name="wait", rank=rank, ts_s=st.clock,
                            dur_s=t_arrive - st.clock,
                        ))
                    st.clock = max(st.clock, t_arrive) + self.call_cost
                mpi_calls += 1
                mpi_waits += 1
                del st.requests[op.request]
                st.ptr += 1
                return True

            if isinstance(op, (CollectiveOp, PcontrolOp)):
                if isinstance(op, CollectiveOp) and op.participants is not None:
                    if tuple(sorted(op.participants)) != tuple(range(n)):
                        raise NotImplementedError(
                            "engine supports all-rank collectives only"
                        )
                st.clock += self.call_cost
                mpi_calls += 1
                st.waiting_collective = True
                st.collective_enter_s = st.clock
                return False  # resolved collectively below

            raise TypeError(f"unknown op {op!r}")

        def resolve_collective() -> bool:
            nonlocal collectives, pcontrol_overhead, iteration_records
            if not all(st.waiting_collective for st in states):
                return False
            ops = [app.programs[r][states[r].ptr] for r in range(n)]
            first = ops[0]
            if not all(type(op) is type(first) for op in ops):
                raise RuntimeError(
                    f"collective mismatch across ranks: {[type(o).__name__ for o in ops]}"
                )
            done = max(st.collective_enter_s for st in states)
            if isinstance(first, PcontrolOp):
                name = "pcontrol"
                overhead = policy.on_pcontrol(first.iteration, list(iteration_records))
                if overhead < 0:
                    raise ValueError("pcontrol overhead must be >= 0")
                done += overhead
                pcontrol_overhead += overhead
                iteration_records = []
            else:
                name = first.kind
                size = max(
                    op.size_bytes for op in ops if isinstance(op, CollectiveOp)
                )
                done += self.network.collective_time(name, n, size)
            collectives += 1
            if rec is not None:
                for r, st in enumerate(states):
                    rec.emit(CollectiveEvent(
                        name=name, rank=r, ts_s=st.collective_enter_s,
                        dur_s=done - st.collective_enter_s,
                    ))
            for st in states:
                st.clock = done
                st.waiting_collective = False
                st.ptr += 1
            return True

        # Main scheduler loop: keep scanning until no rank can progress.
        progress = True
        while progress:
            progress = False
            for rank in range(n):
                while try_advance(rank):
                    progress = True
            if resolve_collective():
                progress = True

        unfinished = [
            r for r in range(n) if states[r].ptr < len(app.programs[r])
        ]
        if unfinished:
            details = {
                r: repr(app.programs[r][states[r].ptr]) for r in unfinished
            }
            raise RuntimeError(f"deadlock: ranks blocked at {details}")

        inc("sim.tasks", len(records))
        inc("sim.mpi_waits", mpi_waits)
        inc("sim.collectives", collectives)
        return SimulationResult(
            app_name=app.name,
            makespan_s=max(st.clock for st in states),
            records=records,
            n_ranks=n,
            mpi_call_count=mpi_calls,
            collective_count=collectives,
            pcontrol_overhead_s=pcontrol_overhead,
            dvfs_switch_count=dvfs_switches,
        )
