"""The one observation channel: an :class:`Observer` with typed sinks.

Every instrumentation site in the library reads one contextvar — the
active :class:`Observer` — and records into whichever of its sinks are
present:

* ``metrics`` — a :class:`~repro.obs.metrics.Metrics` registry:
  counters, gauges, histograms, and the wall-clock *spans* behind
  ``--timings`` (each span ``X`` is the operational histogram
  ``span.X``, in seconds);
* ``audit`` — a :class:`~repro.obs.audit.SolveAudit`, one record per
  LP/MILP solve;
* ``recorder`` — a :class:`~repro.obs.recorder.TraceRecorder` of typed
  trace events;
* ``profile`` — a :class:`~repro.obs.profiling.ProfileCollector` of
  per-cell cProfile statistics.

With no observer active (the default), every site costs one contextvar
read and a ``None`` check — the benchmark harness keeps measuring the
bare, uninstrumented cost.

Worker processes ship observations home as one :meth:`Observer.snapshot`
(a plain, picklable dict with a single schema version); the parent folds
snapshots in submission order with :meth:`Observer.merge`, so a parallel
run's trace, audit and deterministic metrics equal a serial run's.
Span seconds from workers add up, so per-phase times report *aggregate
CPU seconds across workers*, which can exceed wall-clock time.

Stdlib-only: ``repro.core`` and ``repro.simulator`` import this module,
so it must not import anything from ``repro`` outside ``repro.obs``.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .audit import SolveAudit
from .metrics import TIME_BUCKETS_S, Metrics
from .profiling import ProfileCollector
from .recorder import TraceRecorder

__all__ = [
    "OBSERVER_SCHEMA_VERSION",
    "SINKS",
    "TIMINGS_SCHEMA_VERSION",
    "Observer",
    "current_observer",
    "emit",
    "inc",
    "observe",
    "profiled",
    "record_span",
    "set_gauge",
    "span",
    "use_observer",
]

#: Version of the :meth:`Observer.snapshot` layout workers ship home.
#: Bump on any layout change; :meth:`Observer.merge` rejects mismatched
#: snapshots so a parent never silently folds in a stale worker's data.
OBSERVER_SCHEMA_VERSION = 1

#: Version of the ``--timings-json`` document (:meth:`Observer.timings`).
#: 2: counters are the metrics registry's (deterministic and operational
#: alike) and ``solve_audit`` no longer carries cache tallies.
TIMINGS_SCHEMA_VERSION = 2

#: The sink field names, in snapshot order.
SINKS = ("metrics", "audit", "recorder", "profile")

_SINK_TYPES = {
    "metrics": Metrics,
    "audit": SolveAudit,
    "recorder": TraceRecorder,
    "profile": ProfileCollector,
}

_SPAN_PREFIX = "span."


@dataclass(frozen=True)
class Observer:
    """The active observation context: up to four typed sinks."""

    metrics: Metrics | None = None
    audit: SolveAudit | None = None
    recorder: TraceRecorder | None = None
    profile: ProfileCollector | None = None

    @classmethod
    def fresh(cls, sinks: tuple[str, ...]) -> "Observer":
        """An observer with a new, empty sink for each name in ``sinks``."""
        return cls(**{name: _SINK_TYPES[name]() for name in sinks})

    @property
    def sinks(self) -> tuple[str, ...]:
        """Names of the sinks present (what a worker must build)."""
        return tuple(name for name in SINKS if getattr(self, name) is not None)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every present sink's data as one picklable, JSON-safe dict."""
        doc: dict = {"version": OBSERVER_SCHEMA_VERSION}
        if self.metrics is not None:
            doc["metrics"] = self.metrics.to_dict()
        if self.audit is not None:
            doc["audit"] = self.audit.to_dicts()
        if self.recorder is not None:
            doc["recorder"] = self.recorder.snapshot()
        if self.profile is not None:
            doc["profile"] = self.profile.to_dict()
        return doc

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into these sinks.

        Sections for sinks this observer lacks are ignored.  Raises
        :class:`ValueError` when the snapshot's ``version`` is missing or
        differs from :data:`OBSERVER_SCHEMA_VERSION`.
        """
        version = snapshot.get("version")
        if version != OBSERVER_SCHEMA_VERSION:
            raise ValueError(
                f"observer snapshot version {version!r} does not match "
                f"schema version {OBSERVER_SCHEMA_VERSION}"
            )
        if self.metrics is not None and "metrics" in snapshot:
            self.metrics.merge(snapshot["metrics"])
        if self.audit is not None and "audit" in snapshot:
            self.audit.extend(snapshot["audit"])
        if self.recorder is not None and "recorder" in snapshot:
            self.recorder.extend(snapshot["recorder"])
        if self.profile is not None and "profile" in snapshot:
            self.profile.merge(snapshot["profile"])

    # ------------------------------------------------------------------
    def phases(self) -> dict[str, dict]:
        """Span totals by name: ``{name: {"calls": n, "total_s": s}}``."""
        if self.metrics is None:
            return {}
        return {
            name[len(_SPAN_PREFIX):]: {"calls": h.count, "total_s": float(h.sum)}
            for name, h in sorted(self.metrics.histograms.items())
            if name.startswith(_SPAN_PREFIX)
        }

    def timings(self) -> dict:
        """The ``--timings-json`` document: spans, counters, solve audit."""
        doc = {
            "version": TIMINGS_SCHEMA_VERSION,
            "phases": self.phases(),
            "counters": (
                dict(sorted(self.metrics.counters.items()))
                if self.metrics is not None else {}
            ),
        }
        if self.audit is not None:
            doc["solve_audit"] = self.audit.to_dicts()
        return doc

    def timings_summary(self) -> str:
        """The ``--timings`` text: phase table, counters, cache hit rate,
        and the solve audit table when an audit is present."""
        lines = ["timing summary", "--------------"]
        phases = self.phases()
        if phases:
            width = max(len(n) for n in phases)
            for name, s in phases.items():
                lines.append(
                    f"{name:<{width}}  {s['total_s']:>9.3f} s  ({s['calls']} calls)"
                )
        else:
            lines.append("(no phases recorded)")
        counters = self.metrics.counters if self.metrics is not None else {}
        if counters:
            lines.append("")
            width = max(len(n) for n in counters)
            for name in sorted(counters):
                lines.append(f"{name:<{width}}  {counters[name]}")
        hits, misses = counters.get("cache.hit", 0), counters.get("cache.miss", 0)
        if hits + misses:
            lines.append("")
            lines.append(
                f"cache hit rate  {100.0 * hits / (hits + misses):.1f}% "
                f"({hits}/{hits + misses} lookups, "
                f"{counters.get('cache.store', 0)} stores)"
            )
        if self.audit is not None:
            lines.append("")
            lines.append(self.audit.table())
        return "\n".join(lines)


#: The active observer.  The default has no sinks: observation is off.
_NULL = Observer()
_current: ContextVar[Observer] = ContextVar("repro_observer", default=_NULL)


def current_observer() -> Observer:
    """The observer active in this context (sink-less when none is)."""
    return _current.get()


@contextmanager
def use_observer(observer: Observer):
    """Activate ``observer`` for the duration of the with-block."""
    token = _current.set(observer)
    try:
        yield observer
    finally:
        _current.reset(token)


# ----------------------------------------------------------------------
# Recording helpers: each is a no-op when the active observer lacks the
# sink it writes to.
def inc(name: str, n: int = 1, operational: bool = False) -> None:
    """Bump a metrics counter (see :meth:`Metrics.inc`)."""
    metrics = _current.get().metrics
    if metrics is not None:
        metrics.inc(name, n, operational=operational)


def set_gauge(name: str, value: int | float, operational: bool = False) -> None:
    """Set a metrics gauge (see :meth:`Metrics.set_gauge`)."""
    metrics = _current.get().metrics
    if metrics is not None:
        metrics.set_gauge(name, value, operational=operational)


def observe(
    name: str,
    value: int | float,
    buckets: tuple[float, ...] = TIME_BUCKETS_S,
    operational: bool = False,
) -> None:
    """Record a histogram observation (see :meth:`Metrics.observe`)."""
    metrics = _current.get().metrics
    if metrics is not None:
        metrics.observe(name, value, buckets=buckets, operational=operational)


def record_span(metrics: Metrics, name: str, elapsed_s: float) -> None:
    """Add one call of ``elapsed_s`` seconds to span ``name``."""
    metrics.observe(_SPAN_PREFIX + name, elapsed_s, operational=True)


@contextmanager
def span(name: str):
    """Time the block into span ``name`` (wall-clock, so operational)."""
    metrics = _current.get().metrics
    if metrics is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_span(metrics, name, time.perf_counter() - start)


def emit(event) -> None:
    """Append one typed trace event to the recorder."""
    recorder = _current.get().recorder
    if recorder is not None:
        recorder.emit(event)


@contextmanager
def profiled():
    """Run the block under cProfile into the profile collector.

    Each block gets its own :class:`cProfile.Profile` (profilers must
    not nest), folded in when the block exits.
    """
    collector = _current.get().profile
    if collector is None:
        yield
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        collector.add_profile(profile)

