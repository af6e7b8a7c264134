"""SolveAudit ledger: recording, merging, the table, solver integration."""

from __future__ import annotations

import pytest

from repro.core.solver import LinearProgram
from repro.obs.audit import SolveAudit, SolveRecord, use_audit
from repro.obs.metrics import Metrics
from repro.obs.observer import Observer, current_observer, use_observer
from repro.obs.recorder import TraceRecorder


def _record(program: str = "lp", source: str = "cold") -> SolveRecord:
    return SolveRecord(
        program=program, backend="highs-direct", source=source,
        rows=10, cols=20, nnz=40, iterations=7, status="optimal",
        objective=1.25, wall_s=0.004,
    )


class TestLedger:
    def test_record_and_totals(self):
        audit = SolveAudit()
        audit.record(_record())
        audit.record(_record(source="resolve"))
        assert len(audit) == 2
        assert audit.total_wall_s() == pytest.approx(0.008)

    def test_snapshot_roundtrip(self):
        audit = SolveAudit()
        audit.record(_record())
        audit.record(_record(source="resolve"))
        other = SolveAudit()
        other.extend(audit.to_dicts())
        assert other.records == audit.records

    def test_record_none_fields_survive_roundtrip(self):
        record = SolveRecord(
            program="milp", backend="milp", source="cold", rows=1, cols=1,
            nnz=1, iterations=None, status="infeasible", objective=None,
            wall_s=0.001,
        )
        assert SolveRecord.from_dict(record.to_dict()) == record

    def test_table_lists_solves(self):
        audit = SolveAudit()
        audit.record(_record(program="fixed-order-comd"))
        table = audit.table()
        assert "solver audit" in table
        assert "fixed-order-comd" in table
        assert "1 solve(s)" in table

    def test_empty_table(self):
        assert "(no solves recorded)" in SolveAudit().table()


class TestActivation:
    def test_helpers_are_noops_when_disabled(self):
        assert current_observer().audit is None
        assert _toy_program().freeze().solve().ok

    def test_helpers_target_active_audit(self):
        # use_audit adds the ledger to the active observer, keeping the
        # observer's other sinks.
        audit, metrics = SolveAudit(), Metrics()
        with use_observer(Observer(metrics=metrics)):
            with use_audit(audit) as observer:
                assert observer.audit is audit and observer.metrics is metrics
                _toy_program().freeze().solve()
            assert current_observer().audit is None
        assert len(audit) == 1
        assert metrics.counter("solve.total") == 1


def _toy_program() -> LinearProgram:
    lp = LinearProgram(name="toy")
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_ge({x: 1.0, y: 1.0}, 1.0, tag="budget")
    lp.set_objective({x: 2.0, y: 3.0})
    return lp


class TestSolverIntegration:
    def test_every_solve_is_audited(self):
        frozen = _toy_program().freeze()
        audit = SolveAudit()
        with use_audit(audit):
            assert frozen.solve().ok
            assert frozen.solve().ok
        assert [r.source for r in audit.records] == ["cold", "resolve"]
        record = audit.records[0]
        assert record.program == "toy"
        assert (record.rows, record.cols) == (1, 2)
        assert record.status == "optimal"
        assert record.objective == pytest.approx(2.0)
        assert record.wall_s >= 0.0

    def test_solve_events_reach_the_recorder(self):
        frozen = _toy_program().freeze()
        rec = TraceRecorder()
        with use_observer(Observer(recorder=rec)):
            frozen.solve()
        docs = [d for d in rec.snapshot() if d["kind"] == "solve"]
        assert len(docs) == 1
        assert docs[0]["name"] == "solve:toy"
        assert docs[0]["args"]["source"] == "cold"

    def test_one_clock_times_span_histogram_and_record(self):
        frozen = _toy_program().freeze()
        observer = Observer(metrics=Metrics(), audit=SolveAudit())
        with use_observer(observer):
            frozen.solve()
            frozen.solve()
        wall = [r.wall_s for r in observer.audit.records]
        hist = observer.metrics.histograms["solve.wall_s"]
        assert observer.phases()["solve"] == {"calls": 2, "total_s": sum(wall)}
        assert hist.count == 2 and hist.sum == sum(wall)

    def test_unaudited_solve_is_silent(self):
        frozen = _toy_program().freeze()
        assert frozen.solve().ok  # no audit, no recorder: nothing to trip on
