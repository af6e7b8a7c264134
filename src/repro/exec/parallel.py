"""Deterministic, fault-tolerant ordered fan-out for sweep cells.

A cap sweep is embarrassingly parallel: every (workload, cap, seed) cell
is an independent, fully seeded computation.  :class:`ParallelRunner`
fans such cells out over a task transport — an
:class:`~repro.exec.backends.base.ExecBackend`: the default process
pool, a socket worker fleet, or (for serial maps) the in-process inline
backend — while keeping the *results in submission order*: the caller
sees exactly the list a serial loop would produce, so parallel and
serial runs are interchangeable byte-for-byte.

Every map, serial or parallel, runs through one dispatch loop with one
failure semantics.  :meth:`ParallelRunner.map_outcomes` settles every
item into a :class:`CellOutcome`, ok or failed, and fires an
``on_outcome`` callback per item in submission order, which is how the
sweep journal checkpoints progress (see :mod:`repro.exec.checkpoint`).
:meth:`ParallelRunner.map` is the strict wrapper: once every item has
settled, the first item that failed (or timed out) on every allowed
attempt raises :class:`ParallelExecutionError` (or
:class:`PoolBrokenError` when the workers underneath it kept dying),
chained from the item's own exception.

Reliability machinery, shared by every backend:

* per-task deadlines are measured **from submission**, not from when the
  parent starts waiting on that index — every concurrent cell gets the
  same wall-clock budget — and judged by when the payload *arrived*
  (:meth:`~repro.exec.backends.base.ExecBackend.settled_at`), so a
  cell that finished late while the parent was busy (e.g. journaling
  an earlier cell) still times out;
* a worker death (a worker killed by the OOM killer, ``os._exit``, a
  segfault — surfaced by the backend as
  :class:`~repro.exec.backends.base.WorkerLostError`) is detected
  distinctly from task failures: the backend recovers its capacity
  (pool rebuild, fleet respawn) and every task that died with the
  worker is resubmitted rather than charged;
* retries back off with deterministic seeded exponential delays plus
  jitter (:func:`retry_delay_s`), so a thundering herd of workers
  retrying a shared resource de-synchronizes the same way every run.

With ``max_workers <= 1`` or a single item (and no injected backend) the
loop runs on :class:`~repro.exec.backends.inline.InlineBackend`: each
task runs lazily, in order, on the caller's thread inside the caller's
observer — no pickling, no subprocesses, no deadlines — which is also
the benchmark harness's measured serial path.

Observation: when the parent has an :class:`~repro.obs.observer.
Observer` with sinks, each worker runs its task under a fresh observer
with the same sinks and ships one snapshot back with the result
(:func:`~repro.exec.backends.base.run_task`); the parent folds the
snapshots in *submission order* — so a parallel run's trace, audit, and
deterministic metric subset are identical to a serial run's (modulo
re-sequencing, which is itself deterministic), whichever transport
carried them.  With no sinks, workers build and ship nothing.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..obs.observer import current_observer, inc, observe
from .backends.base import (
    BackendTimeoutError,
    ExecBackend,
    TaskSpec,
    WorkerLostError,
)
from .backends.inline import InlineBackend
from .backends.pool import ProcessPoolBackend

__all__ = [
    "ParallelRunner",
    "ParallelExecutionError",
    "PoolBrokenError",
    "CellOutcome",
    "retry_delay_s",
    "resolve_workers",
]

#: :attr:`CellOutcome.how` of an item whose workers kept dying.
_BROKE_POOL = "broke the worker pool"


class ParallelExecutionError(RuntimeError):
    """A task failed (or timed out) on every allowed attempt."""


class PoolBrokenError(ParallelExecutionError):
    """The workers underneath a task died on every allowed attempt.

    Raised instead of the generic :class:`ParallelExecutionError` when
    what kept failing was not the task's own code but the transport
    beneath it — a worker killed by the OOM killer, ``os._exit``, or a
    crash in the pickling machinery.  The backend recovers its capacity
    between attempts, so seeing this means even fresh workers kept
    dying.
    """


@dataclass(frozen=True)
class CellOutcome:
    """The structured result of one mapped item: ok, or how it failed.

    ``error_type``/``error_message``/``attempts`` are deterministic for
    deterministic failures (e.g. injected faults), so they may be stored
    in journals and manifests that must be byte-stable across runs.
    ``how`` says what exhausted a failed item's attempts: ``"failed"``
    (its own exception), ``"timed out"``, or ``"broke the worker pool"``.
    ``elapsed_s`` is the wall-clock run time, measured where the item
    ran, of the attempt that produced its value (0 for a failed item),
    and ``error`` is the live exception — both are diagnostics only and
    excluded from :meth:`failure_doc`.
    """

    index: int
    ok: bool
    value: Any = None
    error_type: str | None = None
    error_message: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    error: BaseException | None = field(default=None, compare=False, repr=False)
    how: str | None = None

    def failure_doc(self) -> dict:
        """Deterministic JSON-safe record of a failed outcome."""
        if self.ok:
            raise ValueError("failure_doc() on an ok outcome")
        return {
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: None -> 1, 0 -> all cores."""
    if workers is None:
        return 1
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def retry_delay_s(
    seed: int, index: int, attempt: int, base_s: float, cap_s: float = 2.0
) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    The delay doubles per attempt from ``base_s`` up to ``cap_s``, then
    is scaled into [0.5, 1.0) by a PRNG seeded from (seed, index,
    attempt) — every run, and every retrying worker, computes the same
    schedule, but different cells de-synchronize from each other.
    ``base_s <= 0`` disables backoff entirely.
    """
    if base_s <= 0:
        return 0.0
    rng = random.Random(f"{seed}:{index}:{attempt}")
    exp = min(cap_s, base_s * (2 ** max(0, attempt - 1)))
    return exp * (0.5 + 0.5 * rng.random())


def _run_batch(packed: tuple) -> list[dict]:
    """Worker-side batch: several items through one dispatch.

    Amortizes per-task pickling/IPC overhead when cells are small (the
    many-caps/cheap-solve regime a warm parametric sweep produces).
    Each item retries *in the worker* on the same deterministic backoff
    schedule as the unbatched map — :func:`retry_delay_s` keyed by the
    item's global index — and settles into a structured doc (with its
    own run time), so one failing item never discards its batch-mates'
    results.  The retry and failure counters land in the worker observer
    that :func:`~repro.exec.backends.base.run_task` snapshots around the
    whole batch.
    """
    fn, batch, start, retries, backoff_s, seed = packed
    docs: list[dict] = []
    for k, item in enumerate(batch):
        index = start + k
        attempt = 0
        while True:
            t0 = time.perf_counter()
            try:
                value = fn(item)
                docs.append({
                    "ok": True, "value": value, "attempts": attempt + 1,
                    "elapsed_s": time.perf_counter() - t0,
                })
                break
            except Exception as exc:
                attempt += 1
                if attempt > retries:
                    inc("task.failed", operational=True)
                    docs.append({
                        "ok": False,
                        "error_type": type(exc).__name__,
                        "error_message": str(exc),
                        "attempts": attempt,
                    })
                    break
                inc("task.retry", operational=True)
                time.sleep(retry_delay_s(seed, index, attempt, backoff_s))
    return docs


class ParallelRunner:
    """Ordered, fault-tolerant map over a task transport.

    Parameters
    ----------
    max_workers:
        Worker processes; ``<= 1`` runs serially in-process on
        :class:`~repro.exec.backends.inline.InlineBackend` (``0`` means
        one per CPU core, via :func:`resolve_workers`).
    timeout_s:
        Per-task wall-clock budget, measured from the task's (re-)
        submission.  None waits forever.  A timed-out task is retried;
        its abandoned worker finishes (or idles) in the background —
        no transport here can interrupt a running call — so timeouts
        should be generous, a last line of defense.  (Serial maps run
        tasks on the caller's thread and cannot enforce deadlines.)
    retries:
        Extra attempts per task after the first failure or timeout.
    backoff_s:
        Base retry delay; retries sleep a deterministic seeded
        exponential backoff with jitter (:func:`retry_delay_s`).
        ``0`` retries immediately.
    backoff_seed:
        Seed of the jitter schedule (so backoff is reproducible).
    batch_size:
        Items dispatched per submission (default 1: one task per item).
        ``> 1`` groups contiguous items into one worker call
        (:func:`_run_batch`), amortizing pickling/IPC overhead when
        individual cells are cheap; results, outcome callbacks, and the
        deterministic per-item retry schedule are unchanged.  Item
        failures settle in-worker; the per-task ``timeout_s`` budget
        scales to ``timeout_s * batch_size`` per dispatch.  Serial maps
        ignore it.
    backend:
        The task transport (:class:`~repro.exec.backends.base.
        ExecBackend`).  None — the default — builds a fresh
        :class:`~repro.exec.backends.pool.ProcessPoolBackend` per
        parallel map and shuts it down afterwards.  An injected backend
        is started idempotently and **never shut down by the runner**
        (its creator owns its lifecycle — how a service dispatcher keeps
        one warm fleet across many sweeps); with one injected, even
        single-item maps route through it.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        backoff_seed: int = 0,
        batch_size: int = 1,
        backend: ExecBackend | None = None,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.max_workers = resolve_workers(max_workers)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_seed = backoff_seed
        self.batch_size = batch_size
        self.backend = backend

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in item order.

        The strict form of :meth:`map_outcomes`: once every item has
        settled, the first one that failed every attempt raises
        :class:`ParallelExecutionError` (:class:`PoolBrokenError` when
        the workers themselves kept dying), chained from its exception.
        ``fn`` and the items must be picklable on out-of-process
        transports (``fn`` should be a module-level function).
        """
        outcomes = self.map_outcomes(fn, items)
        failed = next((o for o in outcomes if not o.ok), None)
        if failed is not None:
            error_cls = (
                PoolBrokenError if failed.how == _BROKE_POOL
                else ParallelExecutionError
            )
            raise error_cls(
                f"task {failed.index} {failed.how} on all {failed.attempts} "
                f"attempt(s): {failed.error_type}: {failed.error_message}"
            ) from failed.error
        return [outcome.value for outcome in outcomes]

    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_outcome: Callable[[CellOutcome], None] | None = None,
    ) -> list[CellOutcome]:
        """Keep-going map: one :class:`CellOutcome` per item, in order.

        A task that exhausts its attempts becomes a failed outcome
        instead of aborting the map; the remaining items still run.
        ``on_outcome`` (when given) fires once per item, in submission
        order, as soon as that item settles — the checkpoint hook: an
        interrupted sweep has journaled every settled prefix cell.
        """
        items = list(items)
        if self.backend is None and (self.max_workers <= 1 or len(items) <= 1):
            return self._map_parallel(fn, items, on_outcome, InlineBackend())
        if self.batch_size > 1:
            return self._map_batched(fn, items, on_outcome)
        return self._map_parallel(fn, items, on_outcome)

    # ------------------------------------------------------------------
    def _map_batched(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_outcome: Callable[[CellOutcome], None] | None,
    ) -> list[CellOutcome]:
        """Batched fan-out: contiguous item groups per dispatch.

        Each batch runs through :func:`_run_batch` (item retries settle
        in-worker); batch-level machinery — timeouts, worker-death
        recovery, resubmission — reuses :meth:`_map_parallel` over the
        batch descriptors, with the per-dispatch deadline scaled by the
        batch size.  Outcomes flatten back to per-item
        :class:`CellOutcome` objects in submission order, and
        ``on_outcome`` fires per item as its batch settles, so journals
        checkpoint identically to the unbatched map.
        """
        bs = self.batch_size
        starts = list(range(0, len(items), bs))
        batch_items = [
            (
                fn, list(items[s:s + bs]), s,
                self.retries, self.backoff_s, self.backoff_seed,
            )
            for s in starts
        ]
        batch_runner = ParallelRunner(
            max_workers=self.max_workers,
            timeout_s=None if self.timeout_s is None else self.timeout_s * bs,
            retries=self.retries,
            backoff_s=self.backoff_s,
            backoff_seed=self.backoff_seed,
            backend=self.backend,
        )
        flat: list[CellOutcome] = []

        def settle_batch(b_out: CellOutcome) -> None:
            start = starts[b_out.index]
            n = len(batch_items[b_out.index][1])
            for k in range(n):
                if b_out.ok:
                    doc = b_out.value[k]
                    outcome = CellOutcome(
                        index=start + k,
                        ok=bool(doc["ok"]),
                        value=doc.get("value"),
                        error_type=doc.get("error_type"),
                        error_message=doc.get("error_message"),
                        attempts=int(doc["attempts"]),
                        elapsed_s=doc.get("elapsed_s", 0.0),
                        how=None if doc["ok"] else "failed",
                    )
                else:
                    # The whole dispatch failed (timeout / worker death
                    # on every attempt): every item of the batch reports
                    # that shared infrastructure failure.
                    outcome = CellOutcome(
                        index=start + k,
                        ok=False,
                        error_type=b_out.error_type,
                        error_message=b_out.error_message,
                        attempts=b_out.attempts,
                        error=b_out.error,
                        how=b_out.how,
                    )
                flat.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)

        batch_runner._map_parallel(_run_batch, batch_items, settle_batch)
        return flat

    # ------------------------------------------------------------------
    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_outcome: Callable[[CellOutcome], None] | None = None,
        backend: ExecBackend | None = None,
    ) -> list[CellOutcome]:
        """The one dispatch loop: submit every item, settle them in order.

        ``backend`` overrides the runner's transport for this map (the
        serial path passes an :class:`InlineBackend`); with neither, a
        per-map process pool is built and shut down afterwards.
        """
        if not items:
            return []
        outcomes: list[CellOutcome | None] = [None] * len(items)
        observer = current_observer()
        sinks = observer.sinks
        n_workers = min(self.max_workers, len(items))

        if backend is None:
            backend = self.backend
        owns_backend = backend is None
        if owns_backend:
            backend = ProcessPoolBackend()
        backend.start(max(1, n_workers))
        deadlines: list[float | None] = [None] * len(items)
        started: list[float] = [0.0] * len(items)
        handles: list[Any] = [None] * len(items)

        def submit(i: int) -> None:
            # The deadline starts at (re-)submission: every attempt of
            # every cell gets the same wall-clock budget, regardless of
            # when the parent reaches index i in its wait loop.
            handles[i] = backend.submit(
                TaskSpec(index=i, fn=fn, item=items[i], sinks=sinks)
            )
            now = time.monotonic()
            if not started[i]:
                started[i] = now
            deadlines[i] = None if self.timeout_s is None else now + self.timeout_s

        try:
            for i in range(len(items)):
                submit(i)
            for i in range(len(items)):
                attempt = 0
                while True:
                    try:
                        wait = None
                        if deadlines[i] is not None:
                            wait = max(0.0, deadlines[i] - time.monotonic())
                        result, snapshot, run_s = backend.result(handles[i], wait)
                        settled = backend.settled_at(handles[i])
                        if (
                            deadlines[i] is not None
                            and settled is not None
                            and settled > deadlines[i]
                        ):
                            # Arrived while the parent was busy with an
                            # earlier index: late is late.
                            raise BackendTimeoutError(TimeoutError(
                                f"task {i} completed after its deadline"
                            ))
                        outcomes[i] = CellOutcome(
                            index=i, ok=True, value=result, attempts=attempt + 1,
                            elapsed_s=run_s,
                        )
                        # Fold worker observability in submission order:
                        # the loop consumes handles by index, so the
                        # merged stream is stable regardless of which
                        # worker finished first.  An in-process backend
                        # ships None snapshots (the parent's own observer
                        # already recorded everything live).
                        if snapshot is not None:
                            observer.merge(snapshot)
                        # Dispatch latency (first submission to arrival)
                        # includes queueing and IPC, so it is
                        # wall-clock-only: operational by contract.
                        observe(
                            "task.dispatch_wall_s",
                            time.monotonic() - started[i],
                            operational=True,
                        )
                        break
                    except BackendTimeoutError as exc:
                        backend.cancel(handles[i])
                        inc("task.deadline_expired", operational=True)
                        attempt, failed = self._note_failure(
                            i, attempt, "timed out", exc.cause, outcomes,
                        )
                        if failed:
                            break
                        submit(i)
                    except WorkerLostError as exc:
                        # The worker underneath the task died.
                        # Resubmitting before the transport recovers
                        # would fail instantly and misreport the cause,
                        # so recover first; the death is charged to the
                        # task being awaited — the closest observable
                        # culprit.
                        backend.recover()
                        attempt, failed = self._note_failure(
                            i, attempt, _BROKE_POOL, exc.cause, outcomes,
                        )
                        for j in range(i + (1 if failed else 0), len(items)):
                            if outcomes[j] is None and backend.needs_resubmit(
                                handles[j]
                            ):
                                submit(j)
                        if failed:
                            break
                    except Exception as exc:
                        attempt, failed = self._note_failure(
                            i, attempt, "failed", exc, outcomes,
                        )
                        if failed:
                            break
                        submit(i)
                if on_outcome is not None:
                    on_outcome(outcomes[i])
        finally:
            if owns_backend:
                backend.shutdown()
        return outcomes  # type: ignore[return-value]

    def _note_failure(
        self,
        index: int,
        attempt: int,
        how: str,
        exc: BaseException,
        outcomes: list[CellOutcome | None],
    ) -> tuple[int, bool]:
        """Account one failed attempt; returns (attempt, exhausted).

        Below the retry budget: sleeps the deterministic backoff and
        reports (attempt, False) so the caller resubmits.  At the
        budget: records the item's failed :class:`CellOutcome`.
        """
        attempt += 1
        if attempt <= self.retries:
            inc("task.retry", operational=True)
            time.sleep(
                retry_delay_s(self.backoff_seed, index, attempt, self.backoff_s)
            )
            return attempt, False
        inc("task.failed", operational=True)
        outcomes[index] = CellOutcome(
            index=index, ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
            attempts=attempt,
            error=exc,
            how=how,
        )
        return attempt, True
