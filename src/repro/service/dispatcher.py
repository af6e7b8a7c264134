"""Drains a :class:`~repro.service.queue.JobQueue` onto an ExecBackend.

The dispatcher is the service's compute loop: claim every pending job
(priority order), skip the ones a shared
:class:`~repro.exec.checkpoint.SweepJournal` already settled, fan the
rest out through a :class:`~repro.exec.parallel.ParallelRunner` on
whatever transport the backend provides, and settle each job back into
the queue as its outcome arrives — journaling exactly the payload
:func:`~repro.scenarios.run.run_scenarios` would write, so a sweep
computed by the service resumes byte-identically in the CLI and vice
versa.

Failures never abort the drain: a cell that exhausts its retries is
journaled as failed and the job marked ``failed`` (resubmitting it
requeues a retry); the remaining jobs still run.  One drain pass is one
``map_outcomes`` call, so submission-order observability merging and the
deterministic retry schedule are the runner's, unchanged.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..exec.cache import SolverCache
from ..exec.checkpoint import SweepJournal
from ..exec.parallel import CellOutcome, ParallelRunner, resolve_workers
from ..obs.observer import set_gauge
from ..scenarios.run import cell_payload, run_scenario_cell
from ..scenarios.spec import ScenarioSpec
from .queue import Job, JobQueue

__all__ = ["FleetDispatcher"]


def _cell_job_task(item: tuple[str, float, str | None]):
    """One queued cell — module-level so fleet workers can unpickle it."""
    spec_json, cap, cache_root = item
    spec = ScenarioSpec.from_json(spec_json)
    cache = SolverCache(cache_root) if cache_root is not None else None
    return run_scenario_cell(spec, cap, cache=cache)


class FleetDispatcher:
    """The queue-draining loop; see the module docstring.

    Parameters
    ----------
    queue:
        The job queue to drain (this process owns it).
    backend:
        Task transport, or None for the runner's default per-map
        process pool.  The dispatcher does *not* own the backend's
        lifecycle — the caller starts and shuts it down (the CLI wraps
        ``serve`` in a try/finally).
    workers:
        Parallel width per drain pass (0 → all cores).
    cache:
        Shared :class:`~repro.exec.cache.SolverCache`; cells warm in it
        cost one lookup.
    journal:
        Shared :class:`~repro.exec.checkpoint.SweepJournal` (or path).
        Jobs already journaled ``ok`` complete without computing;
        settled cells are journaled for everyone else to resume from.
    timeout_s / retries / backoff_s:
        The runner's resilience knobs (see ``repro.exec.parallel``).
    progress:
        Optional :class:`~repro.obs.progress.ProgressReporter`; pass
        ``depth_fn=queue.depth`` at construction to get queue-depth
        heartbeats.
    """

    def __init__(
        self,
        queue: JobQueue,
        backend=None,
        workers: int = 1,
        cache: SolverCache | None = None,
        journal: SweepJournal | str | Path | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        progress=None,
    ) -> None:
        self.queue = queue
        self.backend = backend
        self.workers = resolve_workers(workers)
        self.cache = cache
        if isinstance(journal, (str, Path)):
            journal = SweepJournal(journal)
        self.journal = journal
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.progress = progress

    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """One pass: claim all pending jobs, run them, settle them.

        Returns ``{"claimed", "resumed", "computed", "failed"}`` counts
        for this pass.  ``resumed`` jobs were served from the journal
        without computing.
        """
        jobs: list[Job] = []
        while True:
            job = self.queue.claim_next()
            if job is None:
                break
            jobs.append(job)
        if not jobs:
            return {"claimed": 0, "resumed": 0, "computed": 0, "failed": 0}

        # Journal fast path: cells some earlier sweep (or drain) settled
        # ok complete instantly — the dedup contract with run_scenarios.
        records = self.journal.load() if self.journal is not None else {}
        todo: list[Job] = []
        resumed = 0
        for job in jobs:
            doc = records.get(job.job_id)
            if doc is not None and doc.get("status") == "ok":
                self.queue.complete(job.job_id)
                resumed += 1
                if self.progress is not None:
                    self.progress.update(ok=True, resumed=True)
            else:
                todo.append(job)

        specs: dict[str, ScenarioSpec] = {}
        for job in todo:
            specs.setdefault(job.spec_json, ScenarioSpec.from_json(job.spec_json))
        cache_root = str(self.cache.root) if self.cache is not None else None
        items = [(j.spec_json, j.cap_per_socket_w, cache_root) for j in todo]
        failed = 0

        def on_outcome(outcome: CellOutcome) -> None:
            nonlocal failed
            job = todo[outcome.index]
            spec = specs[job.spec_json]
            if self.progress is not None:
                self.progress.update(ok=outcome.ok)
            if outcome.ok:
                if self.journal is not None:
                    self.journal.record_ok(
                        job.job_id,
                        job.cap_per_socket_w,
                        cell_payload(spec, outcome.value),
                        spec_hash=spec.spec_hash(),
                        wall_s=round(outcome.elapsed_s, 6),
                    )
                self.queue.complete(job.job_id)
                return
            failed += 1
            doc = outcome.failure_doc()
            if self.journal is not None:
                self.journal.record_failed(
                    job.job_id, job.cap_per_socket_w, doc,
                    spec_hash=spec.spec_hash(),
                )
            self.queue.fail(job.job_id, doc)

        if todo:
            runner = ParallelRunner(
                max_workers=self.workers,
                timeout_s=self.timeout_s,
                retries=self.retries,
                backoff_s=self.backoff_s,
                backend=self.backend,
            )
            runner.map_outcomes(_cell_job_task, items, on_outcome=on_outcome)
        set_gauge("queue.depth", self.queue.depth(), operational=True)
        return {
            "claimed": len(jobs),
            "resumed": resumed,
            "computed": len(todo) - failed,
            "failed": failed,
        }

    # ------------------------------------------------------------------
    def serve(
        self,
        poll_s: float = 1.0,
        max_idle_s: float | None = None,
        drain_once: bool = False,
    ) -> dict:
        """Drain until idle (``drain_once``/``max_idle_s``) or forever.

        ``drain_once`` runs exactly one pass.  Otherwise the loop polls
        every ``poll_s`` seconds while the queue is empty and exits once
        it has been idle for ``max_idle_s`` (None: loop forever — the
        long-running service mode, stopped by SIGINT/SIGTERM).
        Returns accumulated drain counts.
        """
        totals = {"claimed": 0, "resumed": 0, "computed": 0, "failed": 0}
        idle_since: float | None = None
        while True:
            summary = self.drain()
            for k in totals:
                totals[k] += summary[k]
            if drain_once:
                return totals
            if summary["claimed"]:
                idle_since = None
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if max_idle_s is not None and now - idle_since >= max_idle_s:
                return totals
            time.sleep(poll_s)
