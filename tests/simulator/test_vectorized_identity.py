"""Vectorized replay paths against the scalar reference oracle.

The engine's ``vectorized=True`` default, the sweep-batched DAG walk
(:meth:`Engine.run_sweep` / :func:`replay_schedule_sweep`), and the
array-built power timelines all promise *bit* identity with the scalar
per-event path, not approximate equality.  This file holds the promise
to exact float comparison on real workloads; the hypothesis suite
(``tests/properties/test_property_vectorized.py``) does the same over
random DAGs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParametricCapSolver, round_schedule
from repro.experiments.runner import make_power_models
from repro.obs.observer import Observer, use_observer
from repro.obs.recorder import TraceRecorder
from repro.simulator import (
    Engine,
    ReplayPolicy,
    job_power_timeline,
    replay_schedule,
    replay_schedule_sweep,
    trace_application,
)
from repro.simulator.replay import build_replay_sweep_plan
from repro.workloads import WorkloadSpec, make_bt, make_comd, make_lulesh

N_CAPS = 6


def sweep_fixture(make, n_ranks, run_iters=3):
    """LP-derived assignments at a small cap grid, plus the replay app."""
    app_lp = make(WorkloadSpec(n_ranks=n_ranks, iterations=2, seed=1))
    app_run = make(WorkloadSpec(n_ranks=n_ranks, iterations=run_iters, seed=1))
    pms = make_power_models(n_ranks)
    trace = trace_application(app_lp, pms)
    solver = ParametricCapSolver(trace)
    asgs, caps = [], []
    for cap in np.linspace(25.0, 70.0, N_CAPS) * n_ranks:
        lp = solver.solve(float(cap))
        if not lp.feasible:
            continue
        disc = round_schedule(trace, lp.schedule)
        asgs.append({
            ref: a.mixture[0][0].config for ref, a in disc.assignments.items()
        })
        caps.append(float(cap))
    assert len(caps) >= 2  # the grid must exercise several sweep points
    return app_run, pms, asgs, caps


def assert_results_identical(ref, vec):
    """Exact equality of everything a SimulationResult exposes."""
    assert ref.makespan_s == vec.makespan_s
    assert ref.mpi_call_count == vec.mpi_call_count
    assert ref.collective_count == vec.collective_count
    assert ref.dvfs_switch_count == vec.dvfs_switch_count
    assert ref.pcontrol_overhead_s == vec.pcontrol_overhead_s
    assert len(ref.records) == len(vec.records)
    for a, b in zip(ref.records, vec.records):
        assert a.ref == b.ref
        assert a.iteration == b.iteration
        assert a.label == b.label
        assert a.config == b.config
        assert a.start_s == b.start_s
        assert a.duration_s == b.duration_s
        assert a.power_w == b.power_w


class TestEngineVectorizedDefault:
    def test_vectorized_run_matches_scalar_bitwise(self):
        app_run, pms, asgs, _ = sweep_fixture(make_bt, 4)
        policy = ReplayPolicy(asgs[0])
        vec = Engine(pms).run(app_run, policy)  # vectorized default
        ref = Engine(pms, vectorized=False).run(app_run, policy)
        assert_results_identical(ref, vec)

    def test_per_run_override_beats_engine_default(self):
        app_run, pms, asgs, _ = sweep_fixture(make_bt, 4)
        policy = ReplayPolicy(asgs[0])
        engine = Engine(pms, vectorized=True)
        ref = engine.run(app_run, policy, vectorized=False)
        vec = engine.run(app_run, policy)
        assert_results_identical(ref, vec)


class TestSweepReplayIdentity:
    @pytest.mark.parametrize(
        "make,n_ranks",
        [(make_bt, 4), (make_lulesh, 4), (make_comd, 4)],
        ids=["bt", "lulesh", "comd"],
    )
    def test_sweep_matches_per_cap_replay_bitwise(self, make, n_ranks):
        app_run, pms, asgs, caps = sweep_fixture(make, n_ranks)
        ref = [
            replay_schedule(app_run, a, pms, c) for a, c in zip(asgs, caps)
        ]
        vec = replay_schedule_sweep(app_run, asgs, pms, caps)
        assert len(ref) == len(vec)
        for a, b in zip(ref, vec):
            assert a.cap_w == b.cap_w
            assert a.peak_power_w == b.peak_power_w
            assert a.cap_respected == b.cap_respected
            assert_results_identical(a.result, b.result)

    def test_sweep_timelines_match_reference_accounting(self):
        """Timelines built from the sweep arrays == the per-event scalar
        reference accumulation, breakpoint for breakpoint."""
        app_run, pms, asgs, caps = sweep_fixture(make_bt, 4)
        ref = [
            replay_schedule(app_run, a, pms, c) for a, c in zip(asgs, caps)
        ]
        vec = replay_schedule_sweep(app_run, asgs, pms, caps)
        for a, b in zip(ref, vec):
            ta = job_power_timeline(a.result, pms, reference=True)
            tb = job_power_timeline(b.result, pms)
            assert np.array_equal(ta.times, tb.times)
            assert np.array_equal(ta.power, tb.power)

    def test_sweep_records_materialize_lazily(self):
        app_run, pms, asgs, caps = sweep_fixture(make_bt, 4)
        outcome = replay_schedule_sweep(app_run, asgs, pms, caps)[0]
        result = outcome.result
        assert result._records is None  # nothing built yet
        first = result.records
        assert first is result.records  # materialized once, then cached
        assert len(first) == app_run.n_tasks()

    def test_length_mismatch_raises(self):
        app_run, pms, asgs, caps = sweep_fixture(make_bt, 4)
        with pytest.raises(ValueError, match="assignments but"):
            replay_schedule_sweep(app_run, asgs, pms, caps[:-1])


class TestRecorderInteraction:
    def test_run_sweep_rejects_active_recorder(self):
        app_run, pms, asgs, _ = sweep_fixture(make_bt, 4)
        engine = Engine(pms)
        plan = build_replay_sweep_plan(app_run, engine, asgs)
        with use_observer(Observer(recorder=TraceRecorder())):
            with pytest.raises(RuntimeError, match="per-event traces"):
                engine.run_sweep(app_run, ReplayPolicy({}), plan)

    def test_replay_sweep_falls_back_and_still_traces(self):
        """Under a recorder the sweep quietly takes the per-cap scalar
        path — same outcomes, and the trace actually has events."""
        app_run, pms, asgs, caps = sweep_fixture(make_bt, 4)
        plain = replay_schedule_sweep(app_run, asgs, pms, caps)
        rec = TraceRecorder()
        with use_observer(Observer(recorder=rec)):
            traced = replay_schedule_sweep(app_run, asgs, pms, caps)
        assert rec.snapshot()  # the scalar path emitted per-event spans
        for a, b in zip(plain, traced):
            assert a.peak_power_w == b.peak_power_w
            assert a.cap_respected == b.cap_respected
            assert_results_identical(a.result, b.result)
