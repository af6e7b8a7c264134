"""The event sink: a ring-buffer trace recorder.

A :class:`TraceRecorder` is the ``recorder`` sink of an
:class:`~repro.obs.observer.Observer`: instrumented code calls
:func:`repro.obs.observer.emit` (or reads ``current_observer().recorder``
once and emits directly on hot paths), which is a no-op unless the
active observer has a recorder — so with tracing off, the only cost at
every instrumentation site is one contextvar read.

The buffer is a bounded ``deque``: a runaway run overwrites its oldest
events instead of exhausting memory, and ``dropped`` reports how many
were lost.  Events are stored in their canonical dict form (see
:mod:`repro.obs.events`) with two envelope fields added — ``seq``, a
monotone per-recorder sequence number, and ``run``, the label of the
enclosing :meth:`TraceRecorder.run_scope` — which makes worker batches
picklable and merges deterministic.

Parallel workers each record into a fresh recorder, ship
:meth:`TraceRecorder.snapshot` back inside their observer snapshot, and
the parent folds the batches in submission order via
:meth:`TraceRecorder.extend` — so a parallel run's merged event stream
is stable across executions.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager

__all__ = [
    "DEFAULT_CAPACITY",
    "TraceRecorder",
]

#: Default ring-buffer size: generous for any quick run, bounded for all.
DEFAULT_CAPACITY = 1_000_000


class TraceRecorder:
    """Bounded, ordered store of emitted trace events."""

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self._run = "run"
        self.dropped = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def run_label(self) -> str:
        """Label stamped on events emitted in the current scope."""
        return self._run

    @contextmanager
    def run_scope(self, label: str):
        """Stamp events emitted inside the block with ``label``.

        One scope per logical run (e.g. ``"conductor comd cap=40W"``)
        becomes one process group in the exported Chrome trace.
        """
        previous = self._run
        self._run = label
        try:
            yield self
        finally:
            self._run = previous

    def emit(self, event) -> None:
        """Append one typed event (see :mod:`repro.obs.events`)."""
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        doc = event.to_dict()
        doc["seq"] = self._seq
        doc["run"] = self._run
        self._seq += 1
        self._events.append(doc)

    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """The buffered events as picklable dicts, in emission order."""
        return list(self._events)

    def extend(self, batch: list[dict]) -> None:
        """Fold a worker's :meth:`snapshot` in, re-sequencing its events.

        Callers merge batches in submission order (the order
        :class:`~repro.exec.parallel.ParallelRunner` returns results),
        which keeps the merged stream — and any export of it —
        deterministic regardless of worker completion order.
        """
        for doc in batch:
            if self.capacity is not None and len(self._events) == self.capacity:
                self.dropped += 1
            merged = dict(doc)
            merged["seq"] = self._seq
            self._seq += 1
            self._events.append(merged)

    def events_for_run(self, label: str) -> list[dict]:
        return [e for e in self._events if e["run"] == label]
