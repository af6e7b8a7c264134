"""Resilient sweeps: keep-going gaps, journaled resume, fault injection."""

from __future__ import annotations

import json

import pytest

from repro.exec.checkpoint import SweepJournal
from repro.exec.faults import FaultInjector, FaultSpec, InjectedFault
from repro.exec.parallel import ParallelExecutionError
from repro.obs.metrics import Metrics
from repro.obs.observer import Observer, use_observer
from repro.obs.recorder import TraceRecorder
from repro.scenarios.run import run_scenarios
from repro.scenarios.spec import PolicySpec, ScenarioSpec

CAPS = (40.0, 50.0, 60.0)


def small_spec(caps=CAPS) -> ScenarioSpec:
    return ScenarioSpec(
        benchmark="synthetic",
        caps_per_socket_w=caps,
        policies=(PolicySpec("static"), PolicySpec("lp")),
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )


def mid_cap_fault() -> FaultInjector:
    """Deterministically fails exactly the cap=50 cell, every attempt."""
    return FaultInjector(FaultSpec(mode="raise", rate=1.0, match="cap=50"))


def times(result) -> list[tuple]:
    return [
        tuple(cell.outcomes[n].time_s for n in result.policy_names())
        for cell in result.cells
    ]


class TestKeepGoing:
    def test_sweep_completes_around_failed_cell(self):
        result = run_scenarios(small_spec(), keep_going=True, faults=mid_cap_fault())
        assert [c.failed for c in result.cells] == [False, True, False]
        gap = result.cells[1]
        assert gap.failure.error_type == "InjectedFault"
        assert all(o.time_s is None for o in gap.outcomes.values())
        assert all(
            o.time_s is not None
            for c in (result.cells[0], result.cells[2])
            for o in c.outcomes.values()
        )

    def test_failure_docs_are_deterministic(self):
        docs = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        ).failure_docs()
        again = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        ).failure_docs()
        assert docs == again
        (doc,) = docs
        assert doc["cap_per_socket_w"] == 50.0
        assert doc["error_type"] == "InjectedFault"
        assert set(doc) == {
            "cap_per_socket_w", "error_type", "error_message", "attempts",
        }

    def test_without_keep_going_a_failure_aborts(self):
        with pytest.raises(ParallelExecutionError, match="cap=50"):
            run_scenarios(small_spec(), faults=mid_cap_fault())

    def test_failure_emits_trace_event(self):
        rec = TraceRecorder()
        with use_observer(Observer(recorder=rec)):
            run_scenarios(small_spec(), keep_going=True, faults=mid_cap_fault())
        failures = [d for d in rec.snapshot() if d["kind"] == "cell_failure"]
        assert len(failures) == 1
        assert failures[0]["args"]["cap_per_socket_w"] == 50.0

    def test_parallel_matches_serial(self):
        serial = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        )
        parallel = run_scenarios(
            small_spec(), workers=2, keep_going=True, faults=mid_cap_fault()
        )
        assert times(parallel) == times(serial)
        assert parallel.failure_docs() == serial.failure_docs()


def journal_lines(path) -> list[dict]:
    """Journal records in write order, minus the wall-clock ``wall_s``."""
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    for doc in docs:
        doc.pop("wall_s", None)
    return docs


class TestOneFailureSemantics:
    """Serial or parallel, journaled or not: a cell that fails every
    attempt settles the same way, and keep_going only decides whether
    the sweep raises at the end."""

    def run(self, tmp_path, workers, journaled, keep_going):
        path = tmp_path / f"j-{workers}-{keep_going}.jsonl" if journaled else None
        try:
            result = run_scenarios(
                small_spec(), workers=workers, keep_going=keep_going,
                journal=path, faults=mid_cap_fault(),
            )
        except ParallelExecutionError as exc:
            result = exc
        return result, journal_lines(path) if journaled else None

    @pytest.mark.parametrize("journaled", [False, True])
    def test_without_keep_going_the_same_error_on_every_path(
        self, tmp_path, journaled
    ):
        errors, journals = [], []
        for workers in (1, 2):
            error, records = self.run(tmp_path, workers, journaled, False)
            assert isinstance(error, ParallelExecutionError)
            assert type(error.__cause__) is InjectedFault
            assert str(error.__cause__) == "injected fault on cell cap=50"
            errors.append(str(error))
            journals.append(records)
        assert errors == [
            "cell cap=50 InjectedFault on all 2 attempt(s): "
            "injected fault on cell cap=50"
        ] * 2
        assert journals[0] == journals[1]
        if journaled:
            assert [d["status"] for d in journals[0]] == ["ok", "failed", "ok"]

    @pytest.mark.parametrize("journaled", [False, True])
    def test_with_keep_going_the_same_failure_on_every_path(
        self, tmp_path, journaled
    ):
        runs = [self.run(tmp_path, w, journaled, True) for w in (1, 2)]
        docs = [result.failure_docs() for result, _ in runs]
        assert docs[0] == docs[1] == [{
            "cap_per_socket_w": 50.0,
            "error_type": "InjectedFault",
            "error_message": "injected fault on cell cap=50",
            "attempts": 2,
        }]
        assert times(runs[0][0]) == times(runs[1][0])
        assert runs[0][1] == runs[1][1]
        if journaled:
            (failed,) = [d for d in runs[0][1] if d["status"] == "failed"]
            assert failed["failure"] == {
                "error_type": "InjectedFault",
                "error_message": "injected fault on cell cap=50",
                "attempts": 2,
            }


class TestJournalResume:
    def test_journal_records_every_settled_cell(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(
            small_spec(), keep_going=True, journal=journal,
            faults=mid_cap_fault(),
        )
        statuses = sorted(r["status"] for r in journal.load().values())
        assert statuses == ["failed", "ok", "ok"]

    def test_resume_retries_failures_and_matches_clean_run(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(
            small_spec(), keep_going=True, journal=journal,
            faults=mid_cap_fault(),
        )
        tel = Metrics()
        with use_observer(Observer(metrics=tel)):
            resumed = run_scenarios(small_spec(), keep_going=True, journal=journal)
        assert tel.counter("journal.resumed") == 2  # the two ok cells
        assert not resumed.failed_cells()  # the failed cell was retried
        clean = run_scenarios(small_spec())
        assert times(resumed) == times(clean)

    def test_interrupted_journal_resumes_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_scenarios(small_spec(), journal=path)
        # Keep only the first journaled cell, as if the process died there.
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        tel = Metrics()
        with use_observer(Observer(metrics=tel)):
            resumed = run_scenarios(small_spec(), journal=str(path))
        assert tel.counter("journal.resumed") == 1
        assert times(resumed) == times(run_scenarios(small_spec()))

    def test_foreign_journal_records_are_recomputed(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(small_spec(), journal=journal)
        other = small_spec(caps=(40.0, 45.0))  # different grid, different keys
        tel = Metrics()
        with use_observer(Observer(metrics=tel)):
            result = run_scenarios(other, journal=journal)
        assert tel.counter("journal.resumed") == 1  # only cap=40 is shared
        assert len(result.cells) == 2
        assert not result.failed_cells()

    def test_journal_accepts_plain_path(self, tmp_path):
        path = tmp_path / "nested" / "j.jsonl"
        run_scenarios(small_spec(caps=(40.0, 60.0)), journal=path)
        assert len(SweepJournal(path)) == 2


class TestVectorizedGoldenResume:
    def test_journaled_resume_of_vectorized_sweep_matches_clean_scalar_run(
        self, tmp_path, monkeypatch
    ):
        """Golden: interrupt a (vectorized-default) sweep after its first
        journaled cell, resume it, and compare against a clean run with
        every engine replay forced down the scalar reference path.  The
        vectorized fast path must not be observable in the results, even
        across a checkpoint/resume boundary."""
        from repro.simulator.engine import Engine

        path = tmp_path / "j.jsonl"
        run_scenarios(small_spec(), journal=path)
        # Keep only the first journaled cell, as if the process died there.
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        resumed = run_scenarios(small_spec(), journal=path)

        real_run = Engine.run
        monkeypatch.setattr(
            Engine,
            "run",
            lambda self, app, policy, vectorized=None: real_run(
                self, app, policy, vectorized=False
            ),
        )
        scalar = run_scenarios(small_spec())
        assert times(resumed) == times(scalar)
        assert not resumed.failed_cells()
