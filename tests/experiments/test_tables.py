"""Tests for Table 3 and the overheads summary at reduced scale."""

import pytest

from repro.experiments import (
    minimum_cap_table,
    overheads_summary,
    table3_lulesh_task_characteristics,
)


class TestTable3:
    @pytest.fixture(scope="class")
    def table(self):
        return table3_lulesh_task_characteristics(
            cap_per_socket_w=50.0, n_ranks=8, iteration=18
        )

    def test_three_methods(self, table):
        assert [r.method for r in table.rows] == ["Static", "Conductor", "LP"]

    def test_static_pinned_at_eight_threads(self, table):
        assert table.row("Static").threads == "8"

    def test_adaptive_methods_drop_threads(self, table):
        """The paper's key Table-3 observation: Conductor and the LP pick
        4-5 threads under the 50 W cap where Static is stuck at 8."""
        for method in ("Conductor", "LP"):
            lo = int(table.row(method).threads.split("-")[0])
            assert lo <= 6

    def test_adaptive_methods_faster(self, table):
        t_static = table.row("Static").median_time_s
        assert table.row("LP").median_time_s < t_static
        assert table.row("Conductor").median_time_s < t_static

    def test_power_spread_jumps_for_nonuniform(self, table):
        """Static's task powers are nearly uniform; LP/Conductor spread
        power across ranks (std-dev columns 0.009 vs 0.118/0.125)."""
        assert table.row("Static").power_stddev_rel < 0.06
        assert table.row("LP").power_stddev_rel > table.row(
            "Static"
        ).power_stddev_rel

    def test_frequencies_normalized(self, table):
        for row in table.rows:
            assert 0.0 < row.median_freq_rel <= 1.0

    def test_render(self, table):
        text = table.render()
        assert "Table 3" in text and "Static" in text


class TestOverheads:
    @pytest.fixture(scope="class")
    def result(self):
        return overheads_summary(n_ranks=4, iterations=8)

    def test_paper_constants(self, result):
        assert result.tracing_per_call_s == pytest.approx(34e-6)
        assert result.dvfs_switch_s == pytest.approx(145e-6)
        assert result.realloc_per_invocation_s == pytest.approx(566e-6)

    def test_tracing_fraction_below_paper_bound(self, result):
        assert 0.0 <= result.measured_tracing_fraction < 0.0005  # < 0.05%

    def test_activity_observed(self, result):
        assert result.measured_reallocs > 0

    def test_render(self, result):
        assert "34 us" in result.render()


class TestMinimumCap:
    @pytest.fixture(scope="class")
    def result(self):
        return minimum_cap_table(n_ranks=4, iterations=2)

    def test_covers_all_benchmarks(self, result):
        assert [r[0] for r in result.rows] == ["comd", "lulesh", "bt", "sp"]

    def test_caps_physical(self, result):
        # Per-socket minima must sit inside the machine's power range.
        for _, min_w, _, _ in result.rows:
            assert 5.0 < min_w < 120.0

    def test_min_cap_actually_feasible(self, result):
        from repro.core import solve_fixed_order_lp
        from repro.experiments import make_power_models
        from repro.simulator import trace_application
        from repro.workloads import BENCHMARKS, WorkloadSpec

        name, min_w, _, _ = result.row("comd")
        app = BENCHMARKS[name](WorkloadSpec(n_ranks=4, iterations=2, seed=2015))
        trace = trace_application(app, make_power_models(4))
        assert solve_fixed_order_lp(trace, min_w * 4).feasible

    def test_solve_counts_reported(self, result):
        for _, _, _, n_solves in result.rows:
            # At least the two bracket probes: the high bracket (every
            # rank at its largest power) is at or above the power ceiling
            # and answered by the relaxed solve, the low one is solved.
            assert n_solves >= 2

    def test_render(self, result):
        text = result.render()
        assert "Minimum feasible power caps" in text
        assert "lulesh" in text

    def test_unknown_benchmark_raises(self, result):
        with pytest.raises(KeyError):
            result.row("hpl")


class TestFrontier:
    @pytest.fixture(scope="class")
    def frontier(self):
        from repro.experiments import frontier_table

        return frontier_table(
            n_ranks=4, caps=(40.0, 60.0), benchmark="synthetic", quick=True
        )

    def test_every_defined_row_has_power_and_perf_per_watt(self, frontier):
        rows = frontier.rows()
        assert len(rows) == 2 * 5  # caps x policies
        for cap, name, kind, t, e, power, ppw, _mark in rows:
            if t is None:
                assert e is None and power is None and ppw is None
            else:
                assert power == pytest.approx(e / t)
                assert ppw == pytest.approx(1000.0 / e)

    def test_energy_lp_is_never_dominated(self, frontier):
        """The headline invariant: at every cap the capped min-energy
        bound sits on the Pareto frontier."""
        for cap in (40.0, 60.0):
            assert "energy-lp" in frontier.pareto_optimal(cap)

    def test_energy_lp_lower_bounds_the_lp_bound(self, frontier):
        lp = frontier.energy_series("lp")
        elp = frontier.energy_series("energy-lp")
        assert all(
            e <= l * (1 + 1e-9) for e, l in zip(elp, lp)
        )

    def test_energy_series_spans_the_cap_grid(self, frontier):
        series = frontier.energy_series("dvfs-energy")
        assert len(series) == 2
        assert all(e is not None and e > 0 for e in series)

    def test_render(self, frontier):
        text = frontier.render()
        assert "Energy-runtime frontier: synthetic, 4 ranks" in text
        assert "perf/W (iter/kJ)" in text
        assert "energy-lp" in text
        assert "*" in text
