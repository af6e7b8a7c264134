"""The in-process transport: every task runs in the calling process.

No pickling, no subprocesses, no threads — a submitted task simply runs
when its result is awaited.  :class:`InlineBackend` is the transport
:class:`~repro.exec.parallel.ParallelRunner` runs every serial map on
(``max_workers <= 1`` or a single item), so serial and parallel maps
share one dispatch loop, one retry schedule and one failure semantics;
unpicklable closures work, and stack traces lead straight into the task.

Because the task runs on the caller's thread inside the caller's
observer, payload snapshots come back ``None`` (there is nothing to
merge — the parent's sinks saw everything live) and deadlines cannot be
enforced: a task that hangs hangs the caller.  Worker loss cannot happen, so
:meth:`InlineBackend.recover` and worker-death signaling are no-ops.
"""

from __future__ import annotations

import time

from .base import ExecBackend, TaskPayload, TaskSpec

__all__ = ["InlineBackend"]


class _InlineHandle:
    """One submitted-but-not-yet-run task (or its settled payload)."""

    __slots__ = ("spec", "done", "payload")

    def __init__(self, spec: TaskSpec) -> None:
        self.spec = spec
        self.done = False
        self.payload: TaskPayload | None = None


class InlineBackend(ExecBackend):
    """Serial in-process transport; see the module docstring."""

    def start(self, n_workers: int) -> None:
        pass

    def submit(self, spec: TaskSpec) -> _InlineHandle:
        return _InlineHandle(spec)

    def result(self, handle: _InlineHandle, timeout_s: float | None) -> TaskPayload:
        # Lazy execution: the task runs here, on the caller's thread, in
        # the caller's observability context — so the payload carries no
        # snapshots to merge, only the task's own run time.  Task
        # exceptions propagate raw, which is what the runner's retry
        # machinery expects.
        if not handle.done:
            t0 = time.perf_counter()
            value = handle.spec.fn(handle.spec.item)
            handle.payload = (value, None, time.perf_counter() - t0)
            handle.done = True
        return handle.payload

    def cancel(self, handle: _InlineHandle) -> None:
        handle.done = True
        handle.payload = (None, None, 0.0)

    def recover(self) -> None:
        pass

    def needs_resubmit(self, handle: _InlineHandle) -> bool:
        return False

    def shutdown(self) -> None:
        pass
