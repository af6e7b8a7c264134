"""A persistent, deduplicating job queue for scenario cells.

One job is one (spec, cap) cell, identified by the same content address
the solver cache and sweep journal use
(:func:`~repro.exec.keys.scenario_cell_key`).  That shared identity is
the dedup contract: submitting a cell that is already pending attaches
the submission to the existing job instead of enqueueing a duplicate,
and a cell some earlier sweep already journaled completes without
computing anything (the dispatcher's journal fast path).

Durability follows :class:`~repro.exec.checkpoint.SweepJournal`: the
queue is an append-only JSONL event log (``queue.jsonl``), one fsynced
event per state transition (``submit``/``claim``/``complete``/``fail``/
``release``), replayed on open.  Torn trailing lines from a crash
mid-append are ignored; jobs found ``running`` after replay were claimed
by a dispatcher that died, and are released back to ``pending`` in
memory so the next dispatcher retries them.

Ordering is priority-then-FIFO: :meth:`JobQueue.claim_next` hands out
the highest-priority pending job, ties broken by submission order.
Re-submitting a job can only *raise* its priority (max-merge), never
lower it — a tenant cannot deprioritize another tenant's work.

Per-tenant quotas bound *active* (pending + running) jobs.  A submission
that would exceed its tenant's quota is rejected whole
(:class:`QuotaExceeded`) before any event is written: no partial
enqueue.  Deduplicated attachments are free — they add no active job.

The queue object assumes a single owning process per queue directory
(one dispatcher); submissions from other processes go through the CLI,
which opens, submits, and closes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..exec.keys import scenario_cell_key
from ..obs.observer import inc
from ..scenarios.spec import SCENARIO_LAYER_VERSION, ScenarioSpec

__all__ = [
    "QUEUE_SCHEMA_VERSION",
    "Job",
    "JobQueue",
    "QuotaExceeded",
    "SubmitReceipt",
]

#: Version stamped on every queue event; replay ignores foreign versions.
QUEUE_SCHEMA_VERSION = 1

#: Job lifecycle states.
_STATES = ("pending", "running", "done", "failed")


class QuotaExceeded(RuntimeError):
    """A submission would push a tenant past its active-job quota."""

    def __init__(self, tenant: str, active: int, adding: int, quota: int):
        super().__init__(
            f"tenant {tenant!r}: {active} active job(s) + {adding} new "
            f"would exceed quota {quota}"
        )
        self.tenant = tenant
        self.active = active
        self.adding = adding
        self.quota = quota


@dataclass
class Job:
    """One queued scenario cell (see the module docstring for identity)."""

    job_id: str
    spec_json: str
    cap_per_socket_w: float
    tenant: str
    priority: int
    seq: int
    state: str = "pending"
    submissions: int = 1
    failure: dict | None = None


@dataclass(frozen=True)
class SubmitReceipt:
    """What one submission did: new jobs, dedup attachments, requeues."""

    submitted: int
    deduped: int
    requeued: int
    job_ids: tuple[str, ...] = field(default=())


class JobQueue:
    """The event-logged queue; see the module docstring.

    Parameters
    ----------
    root:
        Queue directory (created if missing); holds ``queue.jsonl``.
    quotas:
        ``{tenant: max_active_jobs}``.  Tenants absent from the map are
        unbounded.
    """

    def __init__(
        self, root: str | Path, quotas: dict[str, int] | None = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "queue.jsonl"
        self.quotas = dict(quotas or {})
        self.jobs: dict[str, Job] = {}
        self.deduped = 0
        self.released_on_load = 0
        self._seq = 0
        self._replay()

    # ------------------------------------------------------------------
    # Event log
    def _append(self, doc: dict) -> None:
        doc = {"schema": QUEUE_SCHEMA_VERSION, **doc}
        line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with self.path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _replay(self) -> None:
        if not self.path.exists():
            return
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    # Torn trailing line from a crash mid-append.
                    continue
                if (
                    not isinstance(doc, dict)
                    or doc.get("schema") != QUEUE_SCHEMA_VERSION
                ):
                    continue
                self._apply(doc)
        # Jobs a dead dispatcher left claimed: retry them.
        for job in self.jobs.values():
            if job.state == "running":
                job.state = "pending"
                self.released_on_load += 1

    def _apply(self, doc: dict) -> None:
        kind = doc.get("kind")
        job_id = doc.get("job_id")
        if not isinstance(job_id, str):
            return
        if kind == "submit":
            self._apply_submit(doc, job_id)
            return
        job = self.jobs.get(job_id)
        if job is None:
            return
        if kind == "claim" and job.state == "pending":
            job.state = "running"
        elif kind == "complete" and job.state == "running":
            job.state = "done"
            job.failure = None
        elif kind == "fail" and job.state == "running":
            job.state = "failed"
            failure = doc.get("failure")
            job.failure = failure if isinstance(failure, dict) else None
        elif kind == "release" and job.state == "running":
            job.state = "pending"

    def _apply_submit(self, doc: dict, job_id: str) -> None:
        job = self.jobs.get(job_id)
        priority = int(doc.get("priority", 0))
        tenant = str(doc.get("tenant", "default"))
        if job is None:
            self.jobs[job_id] = Job(
                job_id=job_id,
                spec_json=str(doc.get("spec_json", "")),
                cap_per_socket_w=float(doc.get("cap_w", 0.0)),
                tenant=tenant,
                priority=priority,
                seq=self._seq,
            )
            self._seq += 1
            return
        job.submissions += 1
        job.priority = max(job.priority, priority)
        if job.state == "failed":
            # Resubmitting a failed cell is an explicit retry.
            job.state = "pending"
            job.failure = None
        else:
            # pending/running/done: the existing job (or its journaled
            # result) serves this submission too.
            self.deduped += 1

    # ------------------------------------------------------------------
    # Submission
    def submit_cells(
        self,
        spec: ScenarioSpec,
        caps: list[float] | None = None,
        tenant: str = "default",
        priority: int = 0,
    ) -> SubmitReceipt:
        """Enqueue one job per cap of ``spec`` (default: its whole grid).

        Atomic with respect to quotas: either every cell of the
        submission is accepted, or :class:`QuotaExceeded` is raised
        before any event is written.  Returns a receipt splitting the
        cells into genuinely new jobs, dedup attachments, and requeues
        of previously failed jobs.
        """
        grid = [float(c) for c in (caps if caps is not None else
                                   spec.caps_per_socket_w)]
        cell_hash = spec.cell_hash()
        spec_json = spec.to_json()
        # Within-submission dedup first: the same cap twice is one job.
        ids: dict[str, float] = {}
        for cap in grid:
            key = scenario_cell_key(cell_hash, cap, SCENARIO_LAYER_VERSION)
            ids.setdefault(key, cap)
        new, attach, requeue = [], [], []
        for key, cap in ids.items():
            job = self.jobs.get(key)
            if job is None:
                new.append((key, cap))
            elif job.state == "failed":
                requeue.append((key, cap))
            else:
                attach.append((key, cap))
        quota = self.quotas.get(tenant)
        if quota is not None:
            active = self.active_count(tenant)
            adding = len(new) + len(requeue)
            if active + adding > quota:
                raise QuotaExceeded(tenant, active, adding, quota)
        for key, cap in new + requeue + attach:
            self._apply_submit(
                {
                    "tenant": tenant,
                    "priority": priority,
                    "spec_json": spec_json,
                    "cap_w": cap,
                },
                key,
            )
            self._append(
                {
                    "kind": "submit",
                    "job_id": key,
                    "tenant": tenant,
                    "priority": priority,
                    "spec_json": spec_json,
                    "cap_w": cap,
                }
            )
        n_dedup = len(attach) + (len(grid) - len(ids))
        # Both depend on what earlier submissions queued: operational.
        inc("queue.submitted", len(new) + len(requeue), operational=True)
        if n_dedup:
            inc("queue.deduped", n_dedup, operational=True)
        return SubmitReceipt(
            submitted=len(new),
            deduped=n_dedup,
            requeued=len(requeue),
            job_ids=tuple(ids),
        )

    # ------------------------------------------------------------------
    # Claim / settle
    def claim_next(self) -> Job | None:
        """The highest-priority pending job (FIFO within a priority)."""
        best: Job | None = None
        for job in self.jobs.values():
            if job.state != "pending":
                continue
            if best is None or (-job.priority, job.seq) < (-best.priority,
                                                           best.seq):
                best = job
        if best is None:
            return None
        best.state = "running"
        self._append({"kind": "claim", "job_id": best.job_id})
        return best

    def complete(self, job_id: str) -> None:
        self._settle(job_id, "done", {"kind": "complete", "job_id": job_id})

    def fail(self, job_id: str, failure: dict | None = None) -> None:
        if self._settle(
            job_id, "failed",
            {"kind": "fail", "job_id": job_id, "failure": failure},
        ):
            self.jobs[job_id].failure = failure

    def release(self, job_id: str) -> None:
        """Return a claimed job to pending (dispatcher giving it up)."""
        job = self.jobs.get(job_id)
        if job is None or job.state != "running":
            return
        job.state = "pending"
        self._append({"kind": "release", "job_id": job_id})

    def _settle(self, job_id: str, state: str, event: dict) -> bool:
        """Settle a *running* job; returns whether the settle took effect.

        Only the dispatcher that currently owns a claim may settle it: a
        stale dispatcher calling :meth:`complete`/:meth:`fail` on a job
        already released back to ``pending`` (or settled by someone
        else) must not flip queue state or append a misleading event.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.state != "running":
            return False
        job.state = state
        if state == "done":
            job.failure = None
        self._append(event)
        return True

    # ------------------------------------------------------------------
    # Introspection
    def depth(self) -> int:
        """Pending jobs (the queue-depth heartbeat gauge)."""
        return sum(1 for j in self.jobs.values() if j.state == "pending")

    def active_count(self, tenant: str) -> int:
        return sum(
            1
            for j in self.jobs.values()
            if j.tenant == tenant and j.state in ("pending", "running")
        )

    def stats(self) -> dict:
        """Counters for the status document (see ``service.status``)."""
        by_state = {state: 0 for state in _STATES}
        tenants: dict[str, dict] = {}
        for job in self.jobs.values():
            by_state[job.state] += 1
            entry = tenants.setdefault(
                job.tenant,
                {
                    "active": 0,
                    "submitted": 0,
                    "quota": self.quotas.get(job.tenant),
                },
            )
            entry["submitted"] += job.submissions
            if job.state in ("pending", "running"):
                entry["active"] += 1
        by_state["total"] = len(self.jobs)
        return {
            "jobs": by_state,
            "deduped": self.deduped,
            "tenants": tenants,
        }
