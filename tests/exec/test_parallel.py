"""ParallelRunner: ordering, serial fallback, retries, timeouts, observation."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.exec.parallel import (
    CellOutcome,
    ParallelExecutionError,
    ParallelRunner,
    PoolBrokenError,
    _run_batch,
    resolve_workers,
    retry_delay_s,
)
from repro.exec.backends import make_backend
from repro.obs.audit import SolveAudit, SolveRecord
from repro.obs.events import CounterEvent
from repro.obs.metrics import Metrics
from repro.obs.observer import (
    Observer,
    current_observer,
    emit,
    inc,
    span,
    use_observer,
)
from repro.obs.recorder import TraceRecorder


# Module-level task functions so worker processes can unpickle them.
def _slow_identity(item: int) -> int:
    time.sleep(0.02 * item)
    return item * 10


def _boom(item: int) -> int:
    raise ValueError(f"boom {item}")


def _boom_on_two(item: int) -> int:
    if item == 2:
        raise ValueError("boom 2")
    return item * 10


def _boom_on_two_or_mark(marker_and_item: tuple[str, int]) -> int:
    """Fails on item 2; every other item leaves a marker file."""
    marker, item = marker_and_item
    if item == 2:
        raise ValueError("boom 2")
    Path(marker).write_text("ran")
    return item


def _flaky(marker: str) -> str:
    """Fails once per marker path, then succeeds (exercises retries)."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("first attempt always fails")
    return "ok"


def _sleepy(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _flaky_n(marker_and_n: tuple[str, int]) -> str:
    """Fails until the marker directory holds n attempt files."""
    marker, n = marker_and_n
    base = Path(marker)
    base.mkdir(parents=True, exist_ok=True)
    attempt = len(list(base.iterdir()))
    (base / f"a{attempt}").write_text("attempted")
    if attempt < n:
        raise RuntimeError(f"attempt {attempt} fails")
    return "ok"


def _kill_self_once(marker: str) -> str:
    """Kills its own worker process on the first attempt, then succeeds."""
    path = Path(marker)
    if not path.exists():
        path.write_text("dying")
        os._exit(13)  # hard kill: breaks the pool, not just the task
    return "survived"


def _kill_self_always(item: int) -> int:
    os._exit(13)


def _instrumented(item: int) -> int:
    with span("worker.phase"):
        inc("worker.count", item)
    return item


def _emits_observability(item: int) -> int:
    emit(CounterEvent(name="w", ts_s=float(item), values={"v": item}))
    audit = current_observer().audit
    if audit is not None:
        audit.record(SolveRecord(
            program=f"p{item}", backend="linprog", source="cold", rows=1,
            cols=1, nnz=1, iterations=1, status="optimal", objective=0.0,
            wall_s=0.001,
        ))
    return item


def _late_after_first(outcome: CellOutcome) -> None:
    """An on_outcome hook slow enough (like an fsynced journal write)
    that the parent reaches index 1 only after its cell has finished."""
    if outcome.index == 0:
        time.sleep(2.5)


class TestResolveWorkers:
    def test_mapping(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestConstruction:
    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=2, timeout_s=0.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=2, retries=-1)


class TestSerialFallback:
    def test_one_worker_runs_in_process(self):
        # A closure is unpicklable: success proves no pool was involved.
        runner = ParallelRunner(max_workers=1)
        assert runner.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_single_item_runs_in_process(self):
        runner = ParallelRunner(max_workers=4)
        assert runner.map(lambda x: x + 1, [41]) == [42]

    def test_empty_items(self):
        assert ParallelRunner(max_workers=4).map(_slow_identity, []) == []

    def test_serial_exception_propagates(self):
        # Serial maps share the parallel failure semantics: the task's
        # own exception arrives as the cause, after its retries.
        with pytest.raises(ParallelExecutionError, match="failed on all 2") as err:
            ParallelRunner(max_workers=1).map(_boom, [7])
        assert type(err.value.__cause__) is ValueError
        assert str(err.value.__cause__) == "boom 7"


class TestOneDispatchLoop:
    def test_serial_maps_run_the_dispatch_loop_inline(self, monkeypatch):
        seen: list[tuple[str, bool]] = []
        original = ParallelRunner._map_parallel

        def spy(self, fn, items, on_outcome=None, backend=None):
            seen.append((type(backend).__name__, fn is _run_batch))
            return original(self, fn, items, on_outcome, backend)

        monkeypatch.setattr(ParallelRunner, "_map_parallel", spy)
        # Closures are unpicklable: these can only have run in-process.
        assert ParallelRunner(max_workers=1).map(lambda x: x + 1, [1, 2]) == [2, 3]
        assert ParallelRunner(max_workers=4).map(lambda x: x + 1, [41]) == [42]
        # Serial maps ignore batch_size: one task per item, no batches.
        runner = ParallelRunner(max_workers=1, batch_size=3)
        assert runner.map(lambda x: x * 2, [1, 2, 3, 4]) == [2, 4, 6, 8]
        assert seen == [("InlineBackend", False)] * 3

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_exhausted_item_raises_after_every_item_settles(
        self, max_workers, tmp_path
    ):
        markers = [str(tmp_path / f"m{i}") for i in range(3)]
        runner = ParallelRunner(max_workers=max_workers, retries=0)
        with pytest.raises(ParallelExecutionError) as err:
            runner.map(_boom_on_two_or_mark, list(zip(markers, [1, 2, 3])))
        assert str(err.value) == (
            "task 1 failed on all 1 attempt(s): ValueError: boom 2"
        )
        assert type(err.value.__cause__) is ValueError
        # The items after the failure still ran.
        settled = [i for i, m in enumerate(markers) if Path(m).exists()]
        assert settled == [0, 2]


class TestElapsed:
    """A cell's elapsed_s is its own run time, not its wait in line."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_fast_items_read_faster_than_the_slow_one(self, max_workers):
        items = [0.0, 0.8, 0.0, 0.0, 0.0]
        runner = ParallelRunner(max_workers=max_workers)
        # The hook takes a while per cell, like an fsynced journal write:
        # the fast cells behind the slow one finish early but are only
        # collected after it.
        outcomes = runner.map_outcomes(
            _sleepy, items, on_outcome=lambda o: time.sleep(0.05)
        )
        slow = outcomes[1].elapsed_s
        assert slow >= 0.8
        for i in (0, 2, 3, 4):
            assert outcomes[i].elapsed_s < slow, (i, outcomes[i].elapsed_s)

    def test_batched_items_carry_their_own_time(self):
        runner = ParallelRunner(max_workers=2, batch_size=2)
        outcomes = runner.map_outcomes(_sleepy, [0.0, 0.6, 0.0, 0.0])
        assert outcomes[1].elapsed_s >= 0.6
        assert outcomes[0].elapsed_s < outcomes[1].elapsed_s


class TestParallelMap:
    def test_results_in_submission_order(self):
        runner = ParallelRunner(max_workers=4)
        items = [3, 1, 2, 0, 4]
        assert runner.map(_slow_identity, items) == [30, 10, 20, 0, 40]

    def test_matches_serial(self):
        items = list(range(6))
        serial = ParallelRunner(max_workers=1).map(_slow_identity, items)
        parallel = ParallelRunner(max_workers=3).map(_slow_identity, items)
        assert parallel == serial

    def test_failure_exhausts_retries(self):
        runner = ParallelRunner(max_workers=2, retries=1)
        with pytest.raises(ParallelExecutionError, match="failed on all 2"):
            runner.map(_boom, [1, 2])

    def test_retry_recovers_transient_failure(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=1)
        markers = [str(tmp_path / f"m{i}") for i in range(3)]
        assert runner.map(_flaky, markers) == ["ok"] * 3

    def test_no_retries_fails_fast(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=0)
        with pytest.raises(ParallelExecutionError, match="1 attempt"):
            runner.map(_flaky, [str(tmp_path / "m0"), str(tmp_path / "m1")])

    def test_timeout_raises_after_attempts(self):
        runner = ParallelRunner(max_workers=2, timeout_s=0.2, retries=0)
        with pytest.raises(ParallelExecutionError, match="timed out"):
            runner.map(_sleepy, [1.5, 1.5])

    def test_generous_timeout_passes(self):
        runner = ParallelRunner(max_workers=2, timeout_s=30.0)
        assert runner.map(_sleepy, [0.01, 0.02]) == [0.01, 0.02]

    def test_worker_telemetry_merges_into_parent(self):
        obs = Observer(metrics=Metrics())
        with use_observer(obs):
            results = ParallelRunner(max_workers=2).map(_instrumented, [1, 2, 3])
        assert results == [1, 2, 3]
        assert obs.phases()["worker.phase"]["calls"] == 3
        assert obs.metrics.counter("worker.count") == 6

    def test_no_parent_telemetry_is_fine(self):
        assert ParallelRunner(max_workers=2).map(_instrumented, [1, 2]) == [1, 2]

    def test_worker_traces_merge_in_submission_order(self):
        rec = TraceRecorder()
        audit = SolveAudit()
        with use_observer(Observer(recorder=rec, audit=audit)):
            ParallelRunner(max_workers=2).map(_emits_observability, [2, 0, 1])
        counters = [d for d in rec.snapshot() if d["kind"] == "counter"]
        # Batches fold in submission order, not completion order.
        assert [d["ts_s"] for d in counters] == [2.0, 0.0, 1.0]
        assert [d["seq"] for d in counters] == [0, 1, 2]
        assert [r.program for r in audit.records] == ["p2", "p0", "p1"]

    def test_workers_skip_observability_when_parent_has_none(self):
        # No recorder/audit in the parent: workers must not build them.
        results = ParallelRunner(max_workers=2).map(_emits_observability, [1, 2])
        assert results == [1, 2]


class TestRetryBackoff:
    def test_deterministic(self):
        a = retry_delay_s(7, 3, 2, 0.05)
        assert a == retry_delay_s(7, 3, 2, 0.05)

    def test_varies_by_cell_and_attempt(self):
        delays = {
            retry_delay_s(0, i, a, 0.05) for i in range(4) for a in (1, 2, 3)
        }
        assert len(delays) == 12  # every (cell, attempt) de-synchronizes

    def test_exponential_within_jitter_band(self):
        for attempt in (1, 2, 3):
            exp = min(2.0, 0.1 * 2 ** (attempt - 1))
            d = retry_delay_s(0, 0, attempt, 0.1)
            assert 0.5 * exp <= d < exp

    def test_caps_out(self):
        assert retry_delay_s(0, 0, 20, 0.1) <= 2.0

    def test_zero_base_disables(self):
        assert retry_delay_s(0, 0, 1, 0.0) == 0.0


class TestMapOutcomes:
    def test_all_ok_outcomes(self):
        runner = ParallelRunner(max_workers=2, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(_slow_identity, [0, 1])
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [0, 10]

    def test_failed_cell_reports_attempts_and_type(self):
        runner = ParallelRunner(max_workers=2, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(_boom, [5, 6])
        for i, outcome in enumerate(outcomes):
            assert not outcome.ok
            assert outcome.index == i
            assert outcome.error_type == "ValueError"
            assert outcome.attempts == 2  # first try + one retry
            assert "boom" in outcome.error_message

    def test_flaky_task_succeeds_with_attempt_count(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=3, backoff_s=0.0)
        items = [(str(tmp_path / f"m{i}"), 2) for i in range(3)]
        outcomes = runner.map_outcomes(_flaky_n, items)
        assert [o.value for o in outcomes] == ["ok"] * 3
        assert [o.attempts for o in outcomes] == [3, 3, 3]

    def test_serial_matches_parallel(self):
        serial = ParallelRunner(max_workers=1, retries=1, backoff_s=0.0)
        parallel = ParallelRunner(max_workers=3, retries=1, backoff_s=0.0)
        items = [0, 1, 2, 3]
        s = serial.map_outcomes(_slow_identity, items)
        p = parallel.map_outcomes(_slow_identity, items)
        assert [o.value for o in s] == [o.value for o in p]
        assert [o.attempts for o in s] == [o.attempts for o in p]

    def test_on_outcome_fires_in_submission_order(self):
        seen: list[int] = []
        runner = ParallelRunner(max_workers=3)
        runner.map_outcomes(
            _slow_identity, [3, 0, 1], on_outcome=lambda o: seen.append(o.index)
        )
        assert seen == [0, 1, 2]

    def test_serial_on_outcome_and_retries(self, tmp_path):
        seen: list[CellOutcome] = []
        runner = ParallelRunner(max_workers=1, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(
            _flaky, [str(tmp_path / "m0")], on_outcome=seen.append
        )
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert seen == outcomes

    def test_failure_doc_is_deterministic_fields_only(self):
        outcome = ParallelRunner(max_workers=1, retries=0).map_outcomes(
            _boom, [1]
        )[0]
        doc = outcome.failure_doc()
        assert doc == {
            "error_type": "ValueError",
            "error_message": "boom 1",
            "attempts": 1,
        }
        assert "elapsed_s" not in doc  # wall clock never reaches journals

    def test_failure_doc_rejected_on_ok(self):
        outcome = CellOutcome(index=0, ok=True, value=1)
        with pytest.raises(ValueError):
            outcome.failure_doc()


class TestDeadlines:
    def test_deadline_measured_from_submission(self):
        # Both cells start together and share one wall-clock budget; when
        # the first times out, the second's deadline has already passed,
        # so it settles immediately instead of earning a fresh timeout.
        settled: list[float] = []
        runner = ParallelRunner(max_workers=2, timeout_s=0.4, retries=0)
        outcomes = runner.map_outcomes(
            _sleepy, [1.2, 1.2],
            on_outcome=lambda o: settled.append(time.monotonic()),
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.error_type == "TimeoutError" for o in outcomes)
        assert settled[1] - settled[0] < 0.3

    @pytest.mark.parametrize("transport", ["process", "socket"])
    def test_slow_on_outcome_does_not_rescue_a_late_cell(self, transport):
        # Cell 1 finishes 1.5 s after submission, past its 1.0 s deadline,
        # while the parent is still inside cell 0's on_outcome.  Its
        # payload is already there when the parent reaches index 1, but
        # it arrived late, so the cell times out — whenever the parent
        # happens to look.
        backend = make_backend(transport)
        backend.start(2)
        try:
            runner = ParallelRunner(
                max_workers=2, timeout_s=1.0, retries=0, backend=backend
            )
            outcomes = runner.map_outcomes(
                _sleepy, [0.0, 1.5], on_outcome=_late_after_first
            )
        finally:
            backend.shutdown()
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error_type == "TimeoutError"


class TestBrokenPool:
    def test_worker_death_rebuilds_pool_and_retries(self, tmp_path):
        # Breakage is charged to the awaited index, so one cell may absorb
        # blame for both kills; retries=3 covers the worst interleaving.
        obs = Observer(metrics=Metrics())
        runner = ParallelRunner(max_workers=2, retries=3, backoff_s=0.0)
        markers = [str(tmp_path / "k0"), str(tmp_path / "k1")]
        with use_observer(obs):
            results = runner.map(_kill_self_once, markers)
        assert results == ["survived", "survived"]
        assert obs.metrics.counter("pool.rebuilt") >= 1

    def test_persistent_breakage_raises_pool_broken(self):
        runner = ParallelRunner(max_workers=2, retries=0)
        with pytest.raises(PoolBrokenError, match="broke the worker pool"):
            runner.map(_kill_self_always, [1, 2])

    def test_keep_going_records_pool_breakage(self):
        runner = ParallelRunner(max_workers=2, retries=0)
        outcomes = runner.map_outcomes(_kill_self_always, [1, 2])
        assert all(not o.ok for o in outcomes)
        assert all(o.error_type == "BrokenProcessPool" for o in outcomes)

    def test_pool_broken_is_a_parallel_execution_error(self):
        assert issubclass(PoolBrokenError, ParallelExecutionError)


class TestBatchedDispatch:
    """batch_size > 1: same results, outcomes, and retry schedule as the
    unbatched map — only the dispatch granularity changes."""

    @pytest.mark.parametrize("batch_size", [2, 3, 5, 8])
    def test_map_matches_unbatched_across_batch_sizes(self, batch_size):
        items = list(range(6))
        plain = ParallelRunner(max_workers=2).map(_slow_identity, items)
        batched = ParallelRunner(max_workers=2, batch_size=batch_size).map(
            _slow_identity, items
        )
        assert batched == plain == [i * 10 for i in items]

    @pytest.mark.parametrize("max_workers", [2, 3])
    def test_identical_across_worker_counts(self, max_workers):
        items = list(range(5))
        runner = ParallelRunner(max_workers=max_workers, batch_size=2)
        assert runner.map(_slow_identity, items) == [i * 10 for i in items]

    def test_item_failure_does_not_discard_batch_mates(self):
        runner = ParallelRunner(max_workers=2, batch_size=3, retries=0)
        outcomes = runner.map_outcomes(_boom_on_two, [1, 2, 3])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "ValueError"
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert outcomes[0].value == 10 and outcomes[2].value == 30

    def test_in_worker_retries_report_attempts(self, tmp_path):
        runner = ParallelRunner(
            max_workers=2, batch_size=2, retries=3, backoff_s=0.0
        )
        items = [(str(tmp_path / f"m{i}"), 2) for i in range(4)]
        outcomes = runner.map_outcomes(_flaky_n, items)
        assert [o.value for o in outcomes] == ["ok"] * 4
        assert [o.attempts for o in outcomes] == [3, 3, 3, 3]

    def test_exhausted_batched_map_raises(self):
        runner = ParallelRunner(max_workers=2, batch_size=2, retries=1)
        with pytest.raises(ParallelExecutionError, match="failed on all 2"):
            runner.map(_boom, [1, 2, 3])

    def test_on_outcome_fires_per_item_in_order(self):
        seen: list[int] = []
        runner = ParallelRunner(max_workers=2, batch_size=2)
        runner.map_outcomes(
            _slow_identity, [3, 0, 1, 2],
            on_outcome=lambda o: seen.append(o.index),
        )
        assert seen == [0, 1, 2, 3]

    def test_worker_telemetry_merges_into_parent(self):
        obs = Observer(metrics=Metrics())
        with use_observer(obs):
            results = ParallelRunner(max_workers=2, batch_size=2).map(
                _instrumented, [1, 2, 3]
            )
        assert results == [1, 2, 3]
        assert obs.phases()["worker.phase"]["calls"] == 3
        assert obs.metrics.counter("worker.count") == 6
