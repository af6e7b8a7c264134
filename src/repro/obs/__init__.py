"""repro.obs — structured observability: tracing, audit, metrics, provenance.

One channel carries every in-run observation: the active
:class:`Observer` (:mod:`.observer`), activated with
:func:`use_observer` and read with :func:`current_observer`, holds up to
four typed sinks — metrics, solve audit, trace recorder, profile — and
ships them across worker processes as one snapshot.  With no observer
active, each instrumentation site costs one contextvar read.  The
pillars:

* **Event tracing** (:mod:`.events`, :mod:`.recorder`, :mod:`.export`) —
  the simulator engine, the Conductor runtime, RAPL, and the LP solver
  emit typed events into a ring-buffer :class:`TraceRecorder`; exporters
  render Chrome trace-event JSON (loadable in Perfetto) and JSONL.
* **Solver audit** (:mod:`.audit`) — every LP/MILP solve records model
  shape, iterations, status, objective, wall time, and provenance
  (cold / parametric re-solve) into a :class:`SolveAudit` ledger.
* **Operational metrics** (:mod:`.metrics`) — counters, gauges,
  fixed-bucket histograms and the ``--timings`` phase spans, with
  deterministic merge semantics, plus JSON and Prometheus text
  exporters; the deterministic subset is byte-identical serial vs.
  parallel.
* **Live progress** (:mod:`.progress`) — out-of-band sweep heartbeats
  (cells done/total, ETA, cache hit-rate) on a TTY-aware stderr line and
  a ``progress.jsonl`` stream.
* **Profiling** (:mod:`.profiling`) — per-cell cProfile aggregation into
  one fleet-wide top-N cumulative-time table.
* **Run provenance** (:mod:`.provenance`) — a :class:`RunManifest`
  (config hash, seed, model-layer version, package version, platform)
  stamped into saved artifacts and cache entries.

The package is stdlib-only and sits at the bottom of the layering:
every other layer may import it.
See ``docs/observability.md`` for the event taxonomy and workflows.
"""

from .audit import SolveAudit, SolveRecord, use_audit
from .events import (
    EVENT_KINDS,
    CapExceededEvent,
    CellFailureEvent,
    CollectiveEvent,
    CounterEvent,
    MpiWaitEvent,
    ReallocEvent,
    SolveEvent,
    TaskEvent,
)
from .export import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
    validate_trace_file,
)
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Histogram,
    Metrics,
    prometheus_text,
    validate_metrics_doc,
)
from .observer import (
    OBSERVER_SCHEMA_VERSION,
    Observer,
    current_observer,
    emit,
    inc,
    observe,
    profiled,
    set_gauge,
    span,
    use_observer,
)
from .profiling import ProfileCollector
from .progress import (
    PROGRESS_SCHEMA_VERSION,
    ProgressReporter,
    default_progress_stream,
)
from .provenance import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    collect_manifest,
    config_hash,
    read_manifest,
    write_manifest,
)
from .recorder import DEFAULT_CAPACITY, TraceRecorder

__all__ = [
    "CapExceededEvent",
    "CellFailureEvent",
    "CollectiveEvent",
    "CounterEvent",
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "Metrics",
    "MpiWaitEvent",
    "OBSERVER_SCHEMA_VERSION",
    "Observer",
    "PROGRESS_SCHEMA_VERSION",
    "ProfileCollector",
    "ProgressReporter",
    "ReallocEvent",
    "RunManifest",
    "SolveAudit",
    "SolveEvent",
    "SolveRecord",
    "TaskEvent",
    "TraceRecorder",
    "chrome_trace",
    "collect_manifest",
    "config_hash",
    "current_observer",
    "default_progress_stream",
    "emit",
    "export_chrome_trace",
    "export_jsonl",
    "inc",
    "observe",
    "profiled",
    "prometheus_text",
    "read_manifest",
    "set_gauge",
    "span",
    "use_audit",
    "use_observer",
    "validate_chrome_trace",
    "validate_metrics_doc",
    "validate_trace_file",
    "write_manifest",
]
