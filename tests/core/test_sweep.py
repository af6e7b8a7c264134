"""Tests for cap sweeps and the minimum-feasible-cap bisection."""

import pytest

from repro.core import (
    minimum_feasible_cap,
    solve_cap_sweep,
    solve_fixed_order_lp,
)
from repro.core import sweep as sweep_mod
from repro.experiments import make_power_models
from repro.obs import Metrics, Observer, use_observer
from repro.simulator import trace_application
from repro.workloads import imbalanced_collective_app


@pytest.fixture(scope="module")
def trace():
    app = imbalanced_collective_app(n_ranks=4, iterations=2, spread=1.4)
    return trace_application(app, make_power_models(4, 11))


class TestCapSweep:
    def test_matches_individual_solves(self, trace):
        caps = (90.0, 130.0, 240.0)
        sweep = solve_cap_sweep(trace, caps)
        for cap in caps:
            single = solve_fixed_order_lp(trace, cap)
            assert sweep.results[cap].makespan_s == pytest.approx(
                single.makespan_s, rel=1e-9
            )

    def test_every_solve_is_one_solve_span(self, trace, monkeypatch):
        # Parametric re-solves are timed inside FrozenProgram.solve, so
        # they show up in --timings like any other solve.
        built = []

        class Recording(sweep_mod.ParametricCapSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(sweep_mod, "ParametricCapSolver", Recording)
        observer = Observer(metrics=Metrics())
        with use_observer(observer):
            solve_cap_sweep(trace, (90.0, 130.0, 240.0))
        (solver,) = built
        phases = observer.phases()
        counter = observer.metrics.counter
        # 90 W and 130 W run one solve each; 240 W is at or above the
        # power ceiling and is answered by the relaxed solve.
        assert 130.0 < solver.power_ceiling_w <= 240.0
        assert phases["solve"]["calls"] == counter("solve.total") == 2
        assert phases["solve.relaxed"]["calls"] == counter("solve.relaxed") == 1
        assert counter("solve.saturated") == 1
        assert solver.n_solves == 3  # two at a cap plus the relaxed one
        assert phases["assemble"]["calls"] == 1  # one model, three caps

    def test_makespans_mapping(self, trace):
        sweep = solve_cap_sweep(trace, (20.0, 130.0))
        spans = sweep.makespans()
        assert spans[20.0] is None  # infeasible floor
        assert spans[130.0] is not None

    def test_feasible_caps_sorted(self, trace):
        sweep = solve_cap_sweep(trace, (240.0, 20.0, 130.0))
        assert sweep.feasible_caps() == [130.0, 240.0]

    def test_saturation_cap(self, trace):
        sweep = solve_cap_sweep(trace, (100.0, 150.0, 250.0, 400.0, 800.0))
        sat = sweep.saturation_cap()
        assert sat is not None
        # At and beyond saturation the makespan is flat.
        best = sweep.results[800.0].makespan_s
        assert sweep.results[sat].makespan_s == pytest.approx(best, rel=1e-6)
        assert sat < 800.0

    def test_empty_caps_rejected(self, trace):
        with pytest.raises(ValueError):
            solve_cap_sweep(trace, ())


class TestMinimumFeasibleCap:
    def test_bisection_brackets_floor(self, trace):
        # The analytic floor: the busiest event's sum of active-task
        # minimum powers (tasks from different iterations never overlap,
        # so summing over *all* tasks would overestimate).
        from repro.core import build_event_structure

        ev = build_event_structure(trace.graph)
        floor = max(
            sum(min(p.power_w for p in trace.frontiers[e]) for e in act)
            for act in ev.active.values()
            if act
        )
        found = minimum_feasible_cap(trace, 10.0, 400.0, tol_w=0.2)
        assert found is not None
        assert found == pytest.approx(floor, abs=0.5)
        assert solve_fixed_order_lp(trace, found).feasible

    def test_none_when_hi_infeasible(self, trace):
        assert minimum_feasible_cap(trace, 1.0, 5.0) is None

    def test_lo_already_feasible(self, trace):
        found = minimum_feasible_cap(trace, 300.0, 400.0)
        assert found == 300.0

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            minimum_feasible_cap(trace, 0.0, 100.0)
        with pytest.raises(ValueError):
            minimum_feasible_cap(trace, 100.0, 50.0)

    def test_cache_threaded_through_bisection(self, trace, tmp_path):
        from repro.core import ParametricCapSolver
        from repro.exec import SolverCache

        cache = SolverCache(tmp_path)
        first = minimum_feasible_cap(trace, 10.0, 400.0, cache=cache)
        # Replaying the identical bisection hits the cache at every probe:
        # the second solver never calls HiGHS at all.
        solver = ParametricCapSolver(trace)
        second = minimum_feasible_cap(
            trace, 10.0, 400.0, cache=cache, solver=solver
        )
        assert second == first
        assert solver.n_solves == 0

    def test_sweep_warms_bisection_endpoints(self, trace, tmp_path):
        from repro.core import ParametricCapSolver
        from repro.exec import SolverCache

        cache = SolverCache(tmp_path)
        solve_cap_sweep(trace, (10.0, 400.0), cache=cache)
        solver = ParametricCapSolver(trace)
        minimum_feasible_cap(trace, 10.0, 400.0, cache=cache, solver=solver)
        # Both endpoints came from the sweep's cache; only interior
        # bisection probes hit the solver.
        assert solver.n_solves <= 11  # log2(390 / 0.25) ~ 10.6

    def test_shared_solver_reused(self, trace):
        from repro.core import ParametricCapSolver

        solver = ParametricCapSolver(trace)
        found = minimum_feasible_cap(trace, 10.0, 400.0, solver=solver)
        assert found is not None
        assert solver.n_solves >= 3  # endpoints + at least one bisection probe
