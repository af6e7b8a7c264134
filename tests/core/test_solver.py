"""Unit tests for the LP/MILP assembly layer."""

import types

import numpy as np
import pytest

from repro.core import FrozenProgram, LinearProgram, LpStatus


class TestVariables:
    def test_duplicate_name_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(ValueError):
            lp.add_var("x")

    def test_bad_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_var("x", lb=2.0, ub=1.0)

    def test_lookup(self):
        lp = LinearProgram()
        i = lp.add_var("x")
        assert lp.var("x") == i


class TestConstraints:
    def test_empty_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_constraint({})

    def test_inverted_bounds_rejected(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        with pytest.raises(ValueError):
            lp.add_constraint({x: 1.0}, lb=2.0, ub=1.0)

    def test_duplicate_indices_accumulate(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        lp.add_le({x: 1.0}, 4.0)
        lp.set_objective({x: -1.0})
        sol = lp.solve()
        assert sol.x[x] == pytest.approx(4.0)


class TestLpSolve:
    def test_simple_lp(self):
        # min -x - y  s.t. x + y <= 3, x <= 2, y <= 2
        lp = LinearProgram()
        x = lp.add_var("x", ub=2.0)
        y = lp.add_var("y", ub=2.0)
        lp.add_le({x: 1.0, y: 1.0}, 3.0)
        lp.set_objective({x: -1.0, y: -1.0})
        sol = lp.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-3.0)

    def test_two_sided_constraint(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint({x: 1.0}, lb=2.0, ub=5.0)
        lp.set_objective({x: 1.0})
        sol = lp.solve()
        assert sol.x[x] == pytest.approx(2.0)

    def test_equality(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        y = lp.add_var("y")
        lp.add_eq({x: 1.0, y: 1.0}, 4.0)
        lp.set_objective({x: 1.0, y: 2.0})
        sol = lp.solve()
        assert sol.x[x] == pytest.approx(4.0)
        assert sol.x[y] == pytest.approx(0.0)

    def test_infeasible(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=1.0)
        lp.add_ge({x: 1.0}, 5.0)
        lp.set_objective({x: 1.0})
        assert lp.solve().status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        x = lp.add_var("x", lb=-np.inf)
        lp.set_objective({x: 1.0})
        assert lp.solve().status in (LpStatus.UNBOUNDED, LpStatus.ERROR)


class TestMilpSolve:
    def test_integrality_enforced(self):
        # max x + y s.t. 2x + 3y <= 8, integers -> (4,0) fractional (1,2) int
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0, integer=True)
        y = lp.add_var("y", ub=10.0, integer=True)
        lp.add_le({x: 2.0, y: 3.0}, 8.9)
        lp.set_objective({x: -1.0, y: -1.0})
        sol = lp.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[x] == pytest.approx(round(sol.x[x]))
        assert sol.x[y] == pytest.approx(round(sol.x[y]))

    def test_is_mip_flag(self):
        lp = LinearProgram()
        lp.add_var("x")
        assert not lp.is_mip
        lp.add_var("b", ub=1.0, integer=True)
        assert lp.is_mip

    def test_binary_knapsack(self):
        values = [6, 5, 4]
        weights = [4, 3, 2]
        lp = LinearProgram()
        xs = [lp.add_var(f"x{i}", ub=1.0, integer=True) for i in range(3)]
        lp.add_le({x: w for x, w in zip(xs, weights)}, 5.0)
        lp.set_objective({x: -v for x, v in zip(xs, values)})
        sol = lp.solve()
        assert sol.objective == pytest.approx(-9.0)  # items 1+2 (5+4)


class TestCounts:
    def test_sizes_tracked(self):
        lp = LinearProgram()
        lp.add_var("a")
        lp.add_var("b")
        lp.add_le({0: 1.0}, 1.0)
        assert lp.n_vars == 2
        assert lp.n_constraints == 1


def _limit_hit_result(*args, **kwargs):
    """What HiGHS hands back when it stops on an iteration/time limit:
    status 1, no incumbent."""
    return types.SimpleNamespace(
        status=1, x=None, fun=None, message="time limit reached"
    )


class TestStatusMapping:
    """Termination states that only show up under resource limits."""

    @pytest.fixture(autouse=True)
    def _force_fallback(self, monkeypatch):
        # These tests stub sopt.linprog/milp; route LP solves through the
        # scipy fallback instead of the persistent-HiGHS fast path.
        import repro.core.solver as solver_mod

        monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", False)

    def _lp(self, integer=False):
        lp = LinearProgram()
        x = lp.add_var("x", ub=2.0, integer=integer)
        lp.add_le({x: 1.0}, 1.5)
        lp.set_objective({x: -1.0})
        return lp

    def test_limit_maps_to_error_lp(self, monkeypatch):
        import repro.core.solver as solver_mod

        monkeypatch.setattr(solver_mod.sopt, "linprog", _limit_hit_result)
        sol = self._lp().solve(time_limit_s=1e-9)
        assert sol.status is LpStatus.ERROR
        assert not sol.ok
        assert sol.x.size == 0  # x=None becomes an empty vector
        assert np.isnan(sol.objective)  # fun=None becomes nan
        assert "time limit" in sol.message

    def test_limit_maps_to_error_milp(self, monkeypatch):
        import repro.core.solver as solver_mod

        monkeypatch.setattr(solver_mod.sopt, "milp", _limit_hit_result)
        sol = self._lp(integer=True).solve(time_limit_s=1e-9)
        assert sol.status is LpStatus.ERROR
        assert sol.x.size == 0
        assert np.isnan(sol.objective)

    def test_numerical_trouble_maps_to_error(self, monkeypatch):
        import repro.core.solver as solver_mod

        def trouble(*args, **kwargs):
            return types.SimpleNamespace(
                status=4, x=None, fun=None, message="numerical difficulties"
            )

        monkeypatch.setattr(solver_mod.sopt, "linprog", trouble)
        assert self._lp().solve().status is LpStatus.ERROR

    def test_time_limit_forwarded_to_linprog(self, monkeypatch):
        import repro.core.solver as solver_mod

        captured = {}

        def spy(*args, **kwargs):
            captured.update(kwargs.get("options", {}))
            return types.SimpleNamespace(
                status=0, x=np.array([1.5]), fun=-1.5, message="ok"
            )

        monkeypatch.setattr(solver_mod.sopt, "linprog", spy)
        sol = self._lp().solve(time_limit_s=7.5)
        assert sol.status is LpStatus.OPTIMAL
        assert captured["time_limit"] == 7.5

    def test_time_limit_forwarded_to_milp(self, monkeypatch):
        import repro.core.solver as solver_mod

        captured = {}

        def spy(*args, **kwargs):
            captured.update(kwargs.get("options", {}))
            return types.SimpleNamespace(
                status=0, x=np.array([1.0]), fun=-1.0, message="ok"
            )

        monkeypatch.setattr(solver_mod.sopt, "milp", spy)
        sol = self._lp(integer=True).solve(time_limit_s=3.0)
        assert sol.status is LpStatus.OPTIMAL
        assert captured["time_limit"] == 3.0

    def test_no_limit_means_no_option(self, monkeypatch):
        import repro.core.solver as solver_mod

        captured = {}

        def spy(*args, **kwargs):
            captured.update(kwargs.get("options", {}))
            return types.SimpleNamespace(
                status=0, x=np.array([1.5]), fun=-1.5, message="ok"
            )

        monkeypatch.setattr(solver_mod.sopt, "linprog", spy)
        self._lp().solve()
        assert "time_limit" not in captured


class TestDirectHighsPath:
    """The persistent-HiGHS fast path must be a pure speedup: same
    solutions as the scipy-linprog fallback, bit for bit."""

    def _capped(self, cap):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        y = lp.add_var("y", ub=10.0)
        lp.add_le({x: 1.0, y: 2.0}, cap, tag="cap")
        lp.add_ge({x: 1.0, y: 1.0}, 1.0)
        lp.set_objective({x: -1.0, y: -1.0})
        return lp

    def test_direct_matches_fallback_exactly(self, monkeypatch):
        import repro.core.solver as solver_mod

        if not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        for cap in (3.0, 8.0, 14.0):
            direct = self._capped(1.0).freeze().solve(rhs={"cap": cap})
            monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", False)
            fallback = self._capped(1.0).freeze().solve(rhs={"cap": cap})
            monkeypatch.undo()
            assert direct.status is fallback.status
            assert direct.objective == fallback.objective
            assert np.array_equal(direct.x, fallback.x)

    def test_handle_built_lazily_and_reused(self):
        import repro.core.solver as solver_mod

        if not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        frozen = self._capped(5.0).freeze()
        assert frozen._direct is None
        frozen.solve()
        handle = frozen._direct
        assert handle is not None
        frozen.solve(rhs={"cap": 7.0})
        assert frozen._direct is handle

    def test_time_limit_does_not_leak_between_solves(self):
        import repro.core.solver as solver_mod

        if not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        frozen = self._capped(5.0).freeze()
        limited = frozen.solve(time_limit_s=30.0)
        unlimited = frozen.solve()
        assert limited.status is LpStatus.OPTIMAL
        assert unlimited.status is LpStatus.OPTIMAL
        assert limited.objective == unlimited.objective

    def test_infeasible_on_direct_path(self):
        import repro.core.solver as solver_mod

        if not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        lp = LinearProgram()
        x = lp.add_var("x", ub=1.0)
        lp.add_ge({x: 1.0}, 5.0)
        lp.set_objective({x: 1.0})
        sol = lp.freeze().solve()
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.x.size == 0
        assert np.isnan(sol.objective)

    def test_fallback_flag_routes_to_linprog(self, monkeypatch):
        import repro.core.solver as solver_mod

        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return types.SimpleNamespace(
                status=0, x=np.array([1.0, 0.0]), fun=-1.0, message="ok"
            )

        monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", False)
        monkeypatch.setattr(solver_mod.sopt, "linprog", spy)
        self._capped(5.0).freeze().solve()
        assert len(calls) == 1


class TestFrozenProgram:
    def _capped(self, cap):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        lp.add_le({x: 1.0}, cap, tag="cap")
        lp.set_objective({x: -1.0})
        return lp

    def test_parametric_matches_rebuild(self):
        frozen = self._capped(1.0).freeze()
        for cap in (2.0, 5.0, 3.5):
            para = frozen.solve(rhs={"cap": cap})
            fresh = self._capped(cap).solve()
            assert para.objective == fresh.objective
            assert np.array_equal(para.x, fresh.x)
        assert frozen.n_solves == 3

    def test_base_bounds_untouched_by_override(self):
        frozen = self._capped(4.0).freeze()
        assert frozen.solve(rhs={"cap": 1.0}).objective == pytest.approx(-1.0)
        # The override is per solve: the next solve sees the build-time cap.
        assert frozen.solve().objective == pytest.approx(-4.0)

    def test_unknown_tag_rejected(self):
        frozen = self._capped(4.0).freeze()
        with pytest.raises(KeyError, match="no constraint rows tagged"):
            frozen.solve(rhs={"budget": 1.0})

    def test_nonfinite_rhs_rejected(self):
        # +inf frees <= rows (see test_inf_rhs_frees_le_rows); every other
        # non-finite override is an error.
        frozen = self._capped(4.0).freeze()
        for value in (-np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                frozen.solve(rhs={"cap": value})
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        lp.add_ge({x: 1.0}, 2.0, tag="floor")
        lp.set_objective({x: 1.0})
        with pytest.raises(ValueError, match="finite"):
            lp.freeze().solve(rhs={"floor": np.inf})

    @pytest.mark.parametrize("direct", [True, False])
    def test_inf_rhs_frees_le_rows(self, direct, monkeypatch):
        import repro.core.solver as solver_mod

        if direct and not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", direct)
        lp = self._capped(4.0)
        y = lp.add_var("y", ub=3.0)
        lp.add_le({y: 1.0}, 2.0)  # untagged: stays in force
        lp.set_objective({0: -1.0, y: -1.0})
        frozen = lp.freeze()
        # Freed, re-capped, freed again: each solve matches a rebuild
        # without (or with) the tagged row.
        for cap in (np.inf, 1.0, np.inf):
            sol = frozen.solve(rhs={"cap": cap})
            assert sol.ok
            assert sol.x[0] == pytest.approx(10.0 if cap == np.inf else cap)
            assert sol.x[1] == pytest.approx(2.0)
        assert frozen.n_solves == 3

    def test_equality_row_override_moves_both_bounds(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        lp.add_eq({x: 1.0}, 2.0, tag="pin")
        lp.set_objective({x: 1.0})
        frozen = lp.freeze()
        assert frozen.solve(rhs={"pin": 7.0}).x[0] == pytest.approx(7.0)

    def test_ge_row_override(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=10.0)
        lp.add_ge({x: 1.0}, 2.0, tag="floor")
        lp.set_objective({x: 1.0})
        frozen = lp.freeze()
        assert frozen.solve(rhs={"floor": 6.0}).x[0] == pytest.approx(6.0)

    def test_tags_and_rows(self):
        frozen = self._capped(4.0).freeze()
        assert isinstance(frozen, FrozenProgram)
        assert frozen.tags == ("cap",)
        assert list(frozen.rows_for("cap")) == [0]
        assert frozen.rows_for("nope").size == 0

    def test_counts_match_builder(self):
        lp = self._capped(4.0)
        frozen = lp.freeze()
        assert frozen.n_vars == lp.n_vars
        assert frozen.n_constraints == lp.n_constraints
        assert not frozen.is_mip

    def test_unconstrained_program_freezes(self):
        # No finite row bounds at all: the one-sided split is empty and
        # linprog gets A_ub=None.
        lp = LinearProgram()
        x = lp.add_var("x", ub=3.0)
        lp.set_objective({x: -1.0})
        sol = lp.freeze().solve()
        assert sol.x[x] == pytest.approx(3.0)
