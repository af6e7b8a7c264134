"""Tests for figure regeneration at reduced scale (fast versions)."""

import pytest

from repro.experiments import figure1_pareto_frontier, figure8_flow_vs_fixed
from repro.experiments.figures import (
    Figure8Result,
    SweepFigure,
    figure12_comd_task_scatter,
)
from repro.experiments.runner import ComparisonResult


class TestFigure1:
    def test_structure(self):
        fig = figure1_pareto_frontier()
        assert len(fig.points) == 120
        assert len(fig.convex) <= len(fig.pareto) <= len(fig.points)

    def test_table1_rows(self):
        fig = figure1_pareto_frontier()
        rows = fig.table1_rows(head=2, tail=3)
        assert rows[0][0] == "C_i,1"
        assert rows[2][0] == "C_i,..."
        # Fastest configuration listed first: 2.6 GHz x 8 threads.
        assert rows[0][1] == 2.6 and rows[0][2] == 8

    def test_render(self):
        text = figure1_pareto_frontier().render()
        assert "Figure 1" in text and "Table 1" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def fig(self):
        return figure8_flow_vs_fixed(n_caps=8, time_limit_s=30.0)

    def test_paper_agreement_claim(self, fig):
        """Formulations agree within 1.9% on nearly all caps (Fig. 8)."""
        assert len(fig.comparable()) >= 5
        assert fig.agreement_fraction() >= 0.9

    def test_series_lengths(self, fig):
        assert len(fig.caps_w) == len(fig.fixed_s) == len(fig.flow_s) == 8

    def test_render(self, fig):
        text = fig.render()
        assert "Figure 8" in text and "agreement" in text

    def test_runner_follows_the_ambient_options(self, monkeypatch):
        # fig8 builds its runner the way every sweep does: transport,
        # batch size, retries and backoff all come from the options.
        from repro.exec.backends import SocketWorkerBackend
        from repro.exec.options import execution_options
        from repro.exec.parallel import ParallelRunner

        seen = []

        def fake_map(self, fn, items):
            seen.append(self)
            return [(1.0, 1.0)] * len(items)

        monkeypatch.setattr(ParallelRunner, "map", fake_map)
        with execution_options(workers=2, task_backend="socket",
                               task_batch_size=3, task_retries=2,
                               task_backoff_s=0.5):
            figure8_flow_vs_fixed(n_caps=4)
        (runner,) = seen
        assert isinstance(runner.backend, SocketWorkerBackend)
        assert (runner.max_workers, runner.batch_size) == (2, 3)
        assert (runner.retries, runner.backoff_s) == (2, 0.5)

    def test_agreement_stats_on_synthetic_data(self):
        fig = Figure8Result(
            caps_w=[10.0, 20.0],
            fixed_s=[1.0, None],
            flow_s=[1.01, 2.0],
        )
        assert fig.agreement_fraction() == pytest.approx(1.0)
        assert fig.max_gap_pct() == pytest.approx(100 / 101, rel=1e-3)


class TestSweepFigure:
    def make(self, metric):
        results = [
            ComparisonResult(
                benchmark="comd", cap_per_socket_w=30.0, n_ranks=4,
                static_s=2.0, conductor_s=1.8, lp_s=1.6,
            ),
            ComparisonResult(
                benchmark="comd", cap_per_socket_w=40.0, n_ranks=4,
                static_s=1.5, conductor_s=1.45, lp_s=1.4,
            ),
        ]
        return SweepFigure(title="t", series={"comd": results}, metric=metric)

    def test_lp_vs_static_rows(self):
        headers, rows = self.make("lp_vs_static").rows()
        assert headers == ["cap (W/socket)", "comd (%)"]
        assert rows[0][0] == 30.0
        assert rows[0][1] == pytest.approx(25.0)

    def test_both_vs_static_rows(self):
        headers, rows = self.make("both_vs_static").rows()
        assert len(headers) == 3
        assert rows[0][1] == pytest.approx(25.0)       # LP vs Static
        assert rows[0][2] == pytest.approx(100 * (2.0 / 1.8 - 1))

    def test_max_improvement(self):
        fig = self.make("lp_vs_static")
        assert fig.max_improvement() == pytest.approx(25.0)

    def test_render(self):
        assert "cap" in self.make("lp_vs_static").render()


class TestFigure12:
    def test_scatter_shapes(self):
        fig = figure12_comd_task_scatter(
            cap_per_socket_w=30.0, n_ranks=4, iterations=3
        )
        assert fig.lp_points and fig.static_points
        # LP spreads power across ranks; Static pins at the uniform cap.
        lp_max = max(p for p, _ in fig.lp_points)
        static_max = max(p for p, _ in fig.static_points)
        assert lp_max > static_max - 1e-9
        # LP long tasks are faster than Static's (the Fig. 12 separation).
        import numpy as np

        lp_med = np.median([d for _, d in fig.lp_points])
        st_med = np.median([d for _, d in fig.static_points])
        assert lp_med < st_med

    def test_render(self):
        fig = figure12_comd_task_scatter(
            cap_per_socket_w=30.0, n_ranks=4, iterations=2
        )
        assert "Figure 12" in fig.render()
