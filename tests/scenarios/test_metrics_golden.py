"""Golden metrics determinism: serial == parallel, byte for byte.

The acceptance property of the metrics layer: the *deterministic* subset
of a sweep's metric snapshot is a pure function of what was computed —
so a serial sweep and the same sweep fanned out over two workers
produce byte-identical deterministic snapshots, while wall-clock and
scheduling-dependent numbers stay quarantined in the operational set.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

from repro.exec.cache import SolverCache
from repro.exec.faults import FaultInjector, FaultSpec
from repro.obs.audit import SolveAudit
from repro.obs.metrics import Metrics, validate_metrics_doc
from repro.obs.observer import Observer, use_observer
from repro.obs.profiling import ProfileCollector
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import TraceRecorder
from repro.scenarios.run import run_scenarios
from repro.scenarios.spec import PolicySpec, ScenarioSpec
from repro.service.queue import JobQueue

POLICIES = (PolicySpec("static"), PolicySpec("lp"))

#: Every counter the library emits, with its determinism class (True:
#: deterministic, part of the serial == parallel contract).  The docs'
#: counter table (docs/observability.md) mirrors this one.
COUNTER_CLASSES = {
    "cache.hit": True,
    "cache.miss": True,
    "cache.store": True,
    "cache.tmp_swept": False,
    "cell.failed": True,
    "cells.cached": True,
    "cells.computed": True,
    "cells.deduped": True,
    "fleet.worker_connected": False,
    "fleet.worker_hung": False,
    "fleet.worker_lost": False,
    "fleet.worker_respawned": False,
    "journal.resumed": False,
    "pool.rebuilt": False,
    "queue.deduped": False,
    "queue.submitted": False,
    "sim.collectives": True,
    "sim.mpi_waits": True,
    "sim.tasks": True,
    "solve.cold": False,
    "solve.relaxed": False,
    "solve.resolve": False,
    "solve.saturated": True,
    "solve.total": True,
    "task.deadline_expired": False,
    "task.failed": False,
    "task.retry": False,
}

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def small_spec(caps=(40.0, 60.0), **overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="synthetic",
        caps_per_socket_w=caps,
        policies=POLICIES,
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def deterministic_bytes(metrics: Metrics) -> str:
    return json.dumps(metrics.to_dict(deterministic_only=True), sort_keys=True)


def sweep_metrics(spec: ScenarioSpec, workers: int, cache=None) -> Metrics:
    metrics = Metrics()
    with use_observer(Observer(metrics=metrics)):
        run_scenarios(spec, workers=workers, cache=cache)
    return metrics


class TestGoldenSerialVsParallel:
    def test_deterministic_snapshot_is_byte_identical(self):
        spec = small_spec(caps=(35.0, 45.0, 55.0))
        serial = sweep_metrics(spec, workers=1)
        parallel = sweep_metrics(spec, workers=2)
        assert deterministic_bytes(serial) == deterministic_bytes(parallel)
        assert validate_metrics_doc(serial.to_dict()) == []
        assert validate_metrics_doc(parallel.to_dict()) == []

    def test_deterministic_snapshot_is_byte_identical_with_cache(self, tmp_path):
        spec = small_spec()
        serial = sweep_metrics(spec, workers=1, cache=SolverCache(tmp_path / "a"))
        parallel = sweep_metrics(
            spec, workers=2, cache=SolverCache(tmp_path / "b")
        )
        assert deterministic_bytes(serial) == deterministic_bytes(parallel)
        assert serial.counter("cache.miss") > 0
        assert serial.counter("cache.store") > 0

    def test_expected_names_land_on_each_side_of_the_contract(self, tmp_path):
        metrics = sweep_metrics(small_spec(), workers=1)
        doc = metrics.to_dict(deterministic_only=True)
        for name in ("cells.computed", "solve.total", "sim.tasks"):
            assert doc["counters"].get(name, 0) > 0, name
        assert doc["gauges"]["sweep.cells_total"] == 2
        # Wall-clock histograms (spans included) exist in the full
        # snapshot but are operational, never in the deterministic view.
        for name in ("cell.wall_s", "solve.wall_s", "span.solve"):
            assert name in metrics.histograms, name
            assert name in metrics.operational, name
            assert name not in doc["histograms"], name

        # Drive every cheaply reachable counter into one registry: a
        # cached, deduplicated, journaled, faulted sweep, its resume, a
        # retried pool cell, and queue submissions.  35 W and 45 W are
        # below the power ceiling (a cold solve, then a re-solve); the
        # default grid's 60 W is above it (a relaxed solve answers it).
        with use_observer(Observer(metrics=metrics)):
            spec = small_spec(caps=(35.0, 45.0, 35.0))
            cache = SolverCache(tmp_path / "cache")
            run_scenarios(spec, cache=cache)
            run_scenarios(spec, cache=cache)
            run_scenarios(
                small_spec(), keep_going=True, journal=tmp_path / "j.jsonl",
                faults=FaultInjector(FaultSpec(match="cap=60")),
            )
            run_scenarios(small_spec(), journal=tmp_path / "j.jsonl")
            queue = JobQueue(tmp_path / "q")
            queue.submit_cells(small_spec())
            queue.submit_cells(small_spec())
        for name in (
            "cache.hit", "cache.miss", "cache.store", "cell.failed",
            "cells.cached", "cells.deduped", "journal.resumed",
            "queue.deduped", "queue.submitted", "solve.cold",
            "solve.relaxed", "solve.resolve", "solve.saturated",
            "task.failed", "task.retry",
        ):
            assert metrics.counter(name) > 0, name
        for name in metrics.counters:
            assert name in COUNTER_CLASSES, f"{name} missing from the table"
            deterministic = name not in metrics.operational
            assert deterministic == COUNTER_CLASSES[name], name

    def test_counter_table_covers_every_emission_site(self):
        pattern = re.compile(
            r'(?:\binc|_note|_note_locked_free)\(\s*"([a-z_]+\.[a-z_.]+)"'
        )
        emitted = {
            name
            for path in SRC.rglob("*.py")
            for name in pattern.findall(path.read_text())
        }
        assert emitted and emitted <= set(COUNTER_CLASSES)

    def test_warm_cells_count_as_cached_not_computed(self, tmp_path):
        spec = small_spec()
        cache = SolverCache(tmp_path)
        cold = sweep_metrics(spec, workers=1, cache=cache)
        warm = sweep_metrics(spec, workers=1, cache=cache)
        assert cold.counter("cells.computed") == 2
        assert cold.counter("cells.cached") == 0
        assert warm.counter("cells.computed") == 0
        assert warm.counter("cells.cached") == 2

    def test_results_unchanged_by_metrics_collection(self):
        spec = small_spec()
        bare = run_scenarios(spec)
        with use_observer(Observer(metrics=Metrics())):
            observed = run_scenarios(spec)
        for a, b in zip(bare.cells, observed.cells):
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s


class TestProgressIntegration:
    def test_progress_sees_every_cell_serial_and_parallel(self):
        spec = small_spec(caps=(35.0, 45.0, 55.0))
        for workers in (1, 2):
            progress = ProgressReporter(total=3)
            run_scenarios(spec, workers=workers, progress=progress)
            assert progress.done == 3
            assert progress.failed == 0

    def test_journal_resume_counts_resumed_cells(self, tmp_path):
        spec = small_spec()
        journal = tmp_path / "journal.jsonl"
        run_scenarios(spec, journal=journal)
        metrics = Metrics()
        progress = ProgressReporter(total=2)
        with use_observer(Observer(metrics=metrics)):
            run_scenarios(spec, journal=journal, progress=progress)
        assert metrics.counter("journal.resumed") == 2
        assert "journal.resumed" in metrics.operational
        assert progress.done == 2
        assert metrics.counter("cells.computed") == 0


class TestObserverShipping:
    """Every sink crosses the process boundary in one snapshot."""

    @staticmethod
    def observe_sweep(workers: int) -> Observer:
        observer = Observer(
            metrics=Metrics(), audit=SolveAudit(),
            recorder=TraceRecorder(), profile=ProfileCollector(),
        )
        with use_observer(observer):
            run_scenarios(small_spec(caps=(35.0, 45.0, 55.0)), workers=workers)
        return observer

    def test_parallel_observer_matches_serial(self):
        serial = self.observe_sweep(workers=1)
        parallel = self.observe_sweep(workers=2)
        assert deterministic_bytes(parallel.metrics) == deterministic_bytes(
            serial.metrics
        )
        # The cold/resolve split (and wall seconds) depend on which
        # worker's warm solver a cell landed on, and so does the number
        # of relaxed solves (one per solver, absent from the trace);
        # everything else is equal, trace included once worker batches
        # are re-sequenced.
        def events(observer):
            docs = observer.recorder.snapshot()
            for doc in docs:
                if doc["kind"] == "solve":
                    del doc["args"]["source"]
            return docs

        assert events(parallel) == events(serial)

        def solves(observer):
            return [
                replace(r, wall_s=0.0, source="-")
                for r in observer.audit.records
                if r.source != "relaxed"
            ]
        assert solves(parallel) == solves(serial) and solves(serial)
        assert parallel.profile.blocks == serial.profile.blocks == 3
        assert parallel.phases()["solve"]["calls"] == len(solves(serial))

        def relaxed(observer):
            return [r for r in observer.audit.records if r.source == "relaxed"]

        assert len(relaxed(serial)) == 1  # one solver, one relaxed solve
        assert all(
            replace(r, wall_s=0.0) == replace(relaxed(serial)[0], wall_s=0.0)
            for r in relaxed(parallel)
        )
        assert (
            parallel.phases()["solve.relaxed"]["calls"]
            == parallel.metrics.counter("solve.relaxed")
            == len(relaxed(parallel))
        )
