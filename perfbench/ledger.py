"""Exclusive-time span ledger over wrapped entry points.

The benchmark traces the program from the outside: it replaces entry
points (class methods, module functions, generator-table entries) with
wrappers that open a span around the call.  A span's *self time* is its
duration minus the time its child spans cover, so within one process the
self times of all spans add up to the summed duration of the outermost
(root) spans, whatever the nesting depth.  Nested wrapped calls are
therefore never counted twice.

A module function must be wrapped where callers look it up: a module that
did ``from x import f`` holds its own reference, so wrapping ``x.f`` alone
misses its calls.  Each call site gets its own wrapper around the
original function.

Forked workers (the process pool forks) inherit the wrappers.  A fork
handler clears the inherited ledger in the child, and after every root
span the worker writes its cumulative ledger to ``worker_dir`` so the
parent can read worker time once the pool has shut down.

Stdlib only: ``run.py`` imports this module without importing ``repro``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Ledger:
    """Span self times, call counts and plain counters of one process."""

    def __init__(self, worker_dir: str | Path | None = None) -> None:
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: Summed duration of root spans (a worker's busy time).
        self.root_s = 0.0
        #: Per-object scratch state for ``after`` hooks, cleared on fork.
        self.scratch: dict[Any, Any] = {}
        # One entry per open span: the time its finished children took.
        self._open: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._installed = False
        self._in_worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        span wrapper.  ``after(args, kwargs, result)`` runs after a call
        that returned, outside the span."""
        original = _get(owner, attr)
        open_spans = self._open
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        ledger = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = open_spans.pop()
                calls[span] += 1
                self_s[span] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    ledger._root_closed(elapsed)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._replace(owner, attr, spanned)

    def count_calls(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        original = _get(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        for owner, attr, original in reversed(self._undo):
            _set(owner, attr, original)
        self._undo.clear()
        self._installed = False

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe copy of this process's ledger."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }

    @staticmethod
    def read_workers(worker_dir: str | Path) -> list[dict]:
        """The final snapshots written by forked workers, by file name."""
        path = Path(worker_dir)
        if not path.is_dir():
            return []
        return [
            json.loads(f.read_text()) for f in sorted(path.glob("w*.json"))
        ]

    # ------------------------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, wrapper)
        self._installed = True

    def _root_closed(self, elapsed: float) -> None:
        self.root_s += elapsed
        if self._in_worker and self.worker_dir is not None:
            self.worker_dir.mkdir(parents=True, exist_ok=True)
            final = self.worker_dir / f"w{os.getpid()}.json"
            tmp = final.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.snapshot()))
            os.replace(tmp, final)

    def _after_fork(self) -> None:
        if not self._installed:
            return
        # Clear in place: the wrappers hold references to these objects.
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.scratch.clear()
        self._open.clear()
        self.root_s = 0.0
        self._in_worker = True


def _get(owner: Any, attr: str) -> Any:
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
