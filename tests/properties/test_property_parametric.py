"""Property: parametric re-solve is indistinguishable from rebuilding.

The parametric cap sweep freezes one matrix and swaps the cap into the
tagged rows' RHS; the rebuild path assembles a fresh model per cap.  For
any random application and any cap grid the two must agree — same
feasibility verdicts, same makespans, same primal vectors (HiGHS is
deterministic on identical inputs, and the inputs are identical by
construction).
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.core.solver as solver_mod
from repro.core import ParametricCapSolver, solve_cap_sweep, solve_fixed_order_lp
from repro.core.fixed_order_lp import compile_fixed_order
from repro.core.model import CAP_ROW_TAG
from repro.machine import SocketPowerModel
from repro.simulator import trace_application
from repro.workloads import random_application

apps = st.builds(
    random_application,
    n_ranks=st.integers(2, 3),
    iterations=st.integers(1, 2),
    seed=st.integers(0, 5_000),
    p_p2p=st.floats(0.0, 1.0),
)

cap_grids = st.lists(st.floats(15.0, 120.0), min_size=1, max_size=4,
                     unique=True)


def trace_for(app):
    models = [
        SocketPowerModel(efficiency=1.0 + 0.03 * r) for r in range(app.n_ranks)
    ]
    return trace_application(app, models)


class TestParametricEquivalence:
    @given(app=apps, caps_per_rank=cap_grids)
    @settings(max_examples=20, deadline=None)
    def test_solver_matches_independent_solves(self, app, caps_per_rank):
        trace = trace_for(app)
        solver = ParametricCapSolver(trace)
        for cap_per_rank in caps_per_rank:
            cap = cap_per_rank * app.n_ranks
            para = solver.solve(cap)
            fresh = solve_fixed_order_lp(trace, cap)
            assert para.feasible == fresh.feasible
            if not para.feasible:
                continue
            assert para.makespan_s == fresh.makespan_s  # exact, not approx
            assert np.array_equal(para.solution.x, fresh.solution.x)

    @given(app=apps, caps_per_rank=cap_grids)
    @settings(max_examples=10, deadline=None)
    def test_sweep_paths_identical(self, app, caps_per_rank):
        trace = trace_for(app)
        caps = [c * app.n_ranks for c in caps_per_rank]
        fast = solve_cap_sweep(trace, caps, parametric=True)
        slow = solve_cap_sweep(trace, caps, parametric=False)
        assert fast.makespans() == slow.makespans()

    @given(app=apps, cap_per_rank=st.floats(25.0, 90.0))
    @settings(max_examples=10, deadline=None)
    def test_repeat_solve_is_stable(self, app, cap_per_rank):
        trace = trace_for(app)
        solver = ParametricCapSolver(trace)
        cap = cap_per_rank * app.n_ranks
        first = solver.solve(cap)
        second = solver.solve(cap)
        assert first.feasible == second.feasible
        if first.feasible:
            assert first.makespan_s == second.makespan_s
        # One HiGHS run per call below the power ceiling; above it one
        # relaxed solve answers both.
        below = cap < solver.power_ceiling_w
        assert solver.n_solves == (2 if below else 1)


#: Cap grids as multiples of the power ceiling: some below it, some above,
#: and the ceiling itself is always in the grid.
straddling = st.lists(
    st.floats(0.5, 1.6), min_size=1, max_size=3, unique=True
).map(lambda fracs: [1.0, *fracs])


def fingerprint(result):
    if not result.feasible:
        return None
    return (
        result.solution.x.tobytes(),
        result.makespan_s,
        result.schedule.total_energy_j(),
    )


def event_powers(x, compiled):
    """Per-event power of a primal vector, summed from the frontiers."""
    return [
        sum(
            float(np.dot(compiled.frontiers[e].powers, x[compiled.c_idx[e]]))
            for e in active
        )
        for active in compiled.instance.events.active.values()
    ]


class TestCeilingRule:
    """One answer per cap: the relaxed optimum from the power ceiling up,
    the cold solve below it — identical on every path and in any order,
    and never more than one HiGHS run per cap."""

    @pytest.mark.parametrize("direct", [True, False], ids=["direct", "linprog"])
    @given(app=apps, fracs=straddling)
    @settings(max_examples=12, deadline=None)
    def test_every_path_gives_the_same_answer(self, direct, app, fracs):
        if direct and not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_HIGHS_DIRECT", direct)
            self.check(trace_for(app), fracs)

    def check(self, trace, fracs):
        probe = ParametricCapSolver(trace)
        ceiling_w = probe.power_ceiling_w
        compiled = compile_fixed_order(probe.instance, 1.0)
        fin = compiled.v_idx[compiled.fin_id]
        free = probe.solve(ceiling_w).solution
        assert free.ok and probe.n_solves == 1
        assert free.x[fin] == probe.instance.unconstrained_makespan_s()
        # The relaxed optimum's own peak (where the cap stops moving the
        # answer's makespan) is in the grid too, below the ceiling.
        saturation_w = max(event_powers(free.x, compiled))
        assert saturation_w <= ceiling_w * (1 + 1e-12)
        caps = [saturation_w] + [f * ceiling_w for f in fracs]

        one_shot = {cap: solve_fixed_order_lp(trace, cap) for cap in caps}
        forward, backward = ParametricCapSolver(trace), ParametricCapSolver(trace)
        paths = {
            "forward": {cap: forward.solve(cap) for cap in caps},
            "reversed": {cap: backward.solve(cap) for cap in reversed(caps)},
            "fresh": {cap: ParametricCapSolver(trace).solve(cap) for cap in caps},
        }
        for cap in caps:
            want = fingerprint(one_shot[cap])
            for name, results in paths.items():
                assert fingerprint(results[cap]) == want, (name, cap)
        # One run per cap below the ceiling, one relaxed run for the rest.
        below = len({cap for cap in caps if cap < ceiling_w})
        assert forward.n_solves == backward.n_solves == below + 1

        # Answers against the cold solve at each cap, which ignores the
        # rule; no answer draws more than the ceiling.
        cold = compiled.freeze()
        for cap in caps:
            answer = one_shot[cap]
            if answer.feasible:
                for power in event_powers(answer.solution.x, compiled):
                    assert power <= ceiling_w * (1 + 1e-12)
            if cap < ceiling_w:
                continue
            assert np.array_equal(answer.solution.x, free.x)
            for power in event_powers(free.x, compiled):
                assert power <= cap * (1 + 1e-12)
            reference = cold.solve(rhs={CAP_ROW_TAG: cap})
            assert reference.ok
            assert answer.makespan_s == pytest.approx(
                reference.x[fin], rel=1e-9
            )
