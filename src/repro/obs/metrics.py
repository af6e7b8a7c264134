"""Typed operational metrics: counters, gauges, fixed-bucket histograms.

Where the trace recorder answers "what happened, in order", this module
answers the fleet operator's question: *how much, how fast, how healthy*
— as aggregable numbers that merge deterministically across workers and
export to standard tooling (a JSON snapshot, Prometheus text
exposition).

Three metric types, all name-addressed:

* **counters** — monotone integer totals (``cache.hit``,
  ``task.retry``, ``solve.total``);
* **gauges** — last-written values (``sweep.cells_total``);
* **histograms** — fixed upper-bound buckets with exact ``count`` /
  ``sum`` / ``min`` / ``max``, Prometheus-shaped (``solve.wall_s``,
  ``cell.wall_s``, ``solve.iterations``, and the ``span.*`` phase
  timings behind ``--timings``).

A :class:`Metrics` registry is the ``metrics`` sink of an
:class:`~repro.obs.observer.Observer`: instrumented code calls
:func:`repro.obs.observer.inc` / ``observe`` / ``set_gauge`` / ``span``,
which are no-ops unless the active observer has a registry.  Parallel
workers ship :meth:`Metrics.to_dict` inside the observer snapshot, and
the parent folds them with :meth:`Metrics.merge` in submission order.

**The determinism contract.**  Every metric is either *deterministic* —
a pure function of what was computed (task counts, solve totals, cache
traffic, histogram bucket counts over integer observations) — or
*operational* (``operational=True`` at the recording site): wall-clock
seconds, ETA-style gauges, anything that depends on scheduling or
machine speed.  Counter addition and integer histogram merges are
commutative and exact, so the deterministic subset of a snapshot
(:meth:`Metrics.to_dict` with ``deterministic_only=True``) is
byte-identical between a serial sweep and the same sweep fanned out over
workers — the property the golden tests assert.  Operational metrics
live in the same snapshot but are excluded from the deterministic view
and from run manifests; wall-clock truth belongs to the out-of-band
progress stream (:mod:`repro.obs.progress`) and the full snapshot file.

Stdlib-only, like every ``repro.obs`` module.
"""

from __future__ import annotations

import json
from bisect import bisect_left

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "TIME_BUCKETS_S",
    "ITERATION_BUCKETS",
    "COUNT_BUCKETS",
    "Histogram",
    "Metrics",
    "prometheus_text",
    "validate_metrics_doc",
]

#: Version of the :meth:`Metrics.to_dict` snapshot layout.  Bump on any
#: layout change; :meth:`Metrics.merge` rejects mismatched snapshots so
#: a parent never silently folds in a stale worker's numbers.
METRICS_SCHEMA_VERSION = 1

#: Default wall-time buckets (seconds), Prometheus-style upper bounds.
TIME_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Buckets for solver iteration counts (integer observations).
ITERATION_BUCKETS = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000,
)

#: Buckets for generic event counts per unit of work (integer observations).
COUNT_BUCKETS = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000,
)


class Histogram:
    """A fixed-bucket histogram with exact summary fields.

    ``bounds`` are strictly increasing bucket *upper* bounds; an
    implicit ``+Inf`` bucket catches everything above the last bound
    (``counts`` therefore has one more entry than ``bounds``).
    ``count``/``min``/``max`` are exact; ``sum`` is exact — and its
    merge order-insensitive — whenever every observation is an integer
    (Python int addition is associative), which is why deterministic
    histograms observe integers and wall-clock histograms are marked
    operational.
    """

    def __init__(self, bounds: tuple[float, ...]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: int | float = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value: int | float) -> None:
        """Record one observation into its bucket and the summary fields."""
        if isinstance(value, float) and value.is_integer():
            value = int(value)  # keep integer sums exact across merges
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot of this histogram."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(tuple(doc["bounds"]))
        hist.merge(doc)
        return hist

    def merge(self, doc: dict) -> None:
        """Fold a :meth:`to_dict` snapshot in (bucket-wise addition).

        Raises :class:`ValueError` on mismatched bounds — numbers from a
        differently-shaped histogram must never be silently summed.
        """
        if tuple(float(b) for b in doc["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {doc['bounds']} vs {self.bounds}"
            )
        self.counts = [a + int(b) for a, b in zip(self.counts, doc["counts"])]
        self.count += int(doc["count"])
        self.sum += doc["sum"]
        for other, pick in ((doc["min"], min), (doc["max"], max)):
            if other is None:
                continue
            ours = self.min if pick is min else self.max
            merged = other if ours is None else pick(ours, other)
            if pick is min:
                self.min = merged
            else:
                self.max = merged

    def mean(self) -> float | None:
        """Mean observation (None when empty)."""
        return self.sum / self.count if self.count else None


class Metrics:
    """A named registry of counters, gauges, and histograms.

    One instance per run (or per worker, merged back).  Metric names are
    dotted strings (``cache.hit``); names recorded with
    ``operational=True`` are tracked in :attr:`operational` and excluded
    from the deterministic snapshot view (see the module docstring for
    the contract).
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, int | float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.operational: set[str] = set()

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1, operational: bool = False) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n
        if operational:
            self.operational.add(name)

    def set_gauge(
        self, name: str, value: int | float, operational: bool = False
    ) -> None:
        """Set gauge ``name`` to ``value`` (last write wins on merge)."""
        self.gauges[name] = value
        if operational:
            self.operational.add(name)

    def observe(
        self,
        name: str,
        value: int | float,
        buckets: tuple[float, ...] = TIME_BUCKETS_S,
        operational: bool = False,
    ) -> None:
        """Record ``value`` into histogram ``name`` (created on first use).

        ``buckets`` shapes the histogram at creation; later calls must
        agree (the bounds are part of the metric's identity).
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(buckets)
        hist.observe(value)
        if operational:
            self.operational.add(name)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    def to_dict(self, deterministic_only: bool = False) -> dict:
        """JSON-safe snapshot; sorted keys, stable across runs.

        With ``deterministic_only`` every operational metric (and the
        ``operational`` name list itself) is dropped, leaving exactly
        the byte-stable subset that run manifests embed and the golden
        serial-vs-parallel tests diff.
        """

        def keep(name: str) -> bool:
            return not deterministic_only or name not in self.operational

        doc = {
            "version": METRICS_SCHEMA_VERSION,
            "counters": {
                k: v for k, v in sorted(self.counters.items()) if keep(k)
            },
            "gauges": {k: v for k, v in sorted(self.gauges.items()) if keep(k)},
            "histograms": {
                k: h.to_dict()
                for k, h in sorted(self.histograms.items())
                if keep(k)
            },
        }
        if not deterministic_only:
            doc["operational"] = sorted(self.operational)
        return doc

    def to_json(self, indent: int | None = 1) -> str:
        """The full snapshot as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) in.

        Counters and histograms add; gauges take the snapshot's value
        (so merging worker snapshots in submission order is
        deterministic).  Raises :class:`ValueError` when the snapshot's
        ``version`` is missing or differs from
        :data:`METRICS_SCHEMA_VERSION`.
        """
        version = snapshot.get("version")
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics snapshot version {version!r} does not match "
                f"schema version {METRICS_SCHEMA_VERSION}"
            )
        for name, n in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(n)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauges[name] = value
        for name, doc in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = Histogram.from_dict(doc)
            else:
                hist.merge(doc)
        self.operational.update(snapshot.get("operational", []))

    def summary(self) -> str:
        """Human-readable metrics table (counters, gauges, histograms)."""
        lines = ["metrics", "-------"]
        if not (self.counters or self.gauges or self.histograms):
            lines.append("(no metrics recorded)")
            return "\n".join(lines)
        names = list(self.counters) + list(self.gauges) + list(self.histograms)
        width = max(len(n) for n in names)
        for name in sorted(self.counters):
            lines.append(f"{name:<{width}}  {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"{name:<{width}}  {self.gauges[name]:g}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            mean = h.mean()
            lines.append(
                f"{name:<{width}}  n={h.count}"
                + (
                    f" mean={mean:.6g} min={h.min:g} max={h.max:g}"
                    if h.count
                    else ""
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """A metric name as a Prometheus identifier (``repro_`` namespace)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def _prom_value(value: int | float) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        # The text exposition grammar spells infinities +Inf/-Inf;
        # Python's repr ("inf"/"-inf") does not parse.
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return str(value)


def _prom_identifiers(doc: dict) -> dict[tuple[str, str], str]:
    """Collision-free Prometheus identifiers for every metric in ``doc``.

    :func:`_prom_name` sanitization is lossy (``cell.wall_s`` and
    ``cell_wall_s`` both map to ``repro_cell_wall_s``), which would emit
    duplicate ``# TYPE`` lines and merge distinct series.  Colliding
    metrics are disambiguated deterministically: members of a collision
    group are ordered by original name (then family), the first keeps
    the sanitized base, and each later one gets the lowest free numeric
    suffix (``_2``, ``_3``, ...).
    """
    families = ("counters", "gauges", "histograms")
    by_base: dict[str, list[tuple[str, str]]] = {}
    for family in families:
        section = doc.get(family, {})
        if not isinstance(section, dict):
            continue
        for name in section:
            by_base.setdefault(_prom_name(name), []).append((family, name))
    ids: dict[tuple[str, str], str] = {}
    taken = set(by_base)
    for base in sorted(by_base):
        members = by_base[base]
        if len(members) == 1:
            ids[members[0]] = base
            continue
        members.sort(key=lambda fn: (fn[1], families.index(fn[0])))
        ids[members[0]] = base
        n = 2
        for member in members[1:]:
            candidate = f"{base}_{n}"
            while candidate in taken:
                n += 1
                candidate = f"{base}_{n}"
            taken.add(candidate)
            ids[member] = candidate
            n += 1
    return ids


def prometheus_text(metrics: "Metrics | dict") -> str:
    """Render a metrics object (or snapshot dict) as Prometheus text.

    The `text exposition format
    <https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
    counters get a ``_total`` suffix, histograms emit cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``.  Output is
    sorted by metric name, so it is byte-stable for identical inputs.
    Distinct metric names whose sanitized identifiers collide are
    disambiguated deterministically (see :func:`_prom_identifiers`).
    """
    doc = metrics.to_dict() if isinstance(metrics, Metrics) else metrics
    ids = _prom_identifiers(doc)
    lines: list[str] = []
    for name, value in sorted(doc.get("counters", {}).items()):
        pname = ids[("counters", name)]
        lines.append(f"# TYPE {pname}_total counter")
        lines.append(f"{pname}_total {_prom_value(value)}")
    for name, value in sorted(doc.get("gauges", {}).items()):
        pname = ids[("gauges", name)]
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(value)}")
    for name, hist in sorted(doc.get("histograms", {}).items()):
        pname = ids[("histograms", name)]
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}'
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{pname}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{pname}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
def validate_metrics_doc(doc: object) -> list[str]:
    """Schema-check a metrics snapshot; returns a list of problems.

    The structural contract the tests and the CI smoke job rely on:
    the schema version, integer counters, numeric gauges, and
    internally consistent histograms (one more count than bound, bucket
    counts summing to ``count``, ``min <= max``).  An empty list means
    the snapshot is valid.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["snapshot is not an object"]
    if doc.get("version") != METRICS_SCHEMA_VERSION:
        errors.append(
            f"version {doc.get('version')!r} != {METRICS_SCHEMA_VERSION}"
        )
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        errors.append("counters missing or not an object")
        counters = {}
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"counter {name}: non-integer value {value!r}")
    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        errors.append("gauges missing or not an object")
        gauges = {}
    for name, value in gauges.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"gauge {name}: non-numeric value {value!r}")
    hists = doc.get("histograms", {})
    if not isinstance(hists, dict):
        errors.append("histograms missing or not an object")
        hists = {}
    for name, hist in hists.items():
        if not isinstance(hist, dict):
            errors.append(f"histogram {name}: not an object")
            continue
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            errors.append(f"histogram {name}: bounds/counts missing")
            continue
        if len(counts) != len(bounds) + 1:
            errors.append(
                f"histogram {name}: {len(counts)} counts for "
                f"{len(bounds)} bounds (want bounds+1)"
            )
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            errors.append(f"histogram {name}: bounds not strictly increasing")
        total = hist.get("count")
        if sum(counts) != total:
            errors.append(
                f"histogram {name}: bucket counts sum to {sum(counts)}, "
                f"count says {total}"
            )
        lo, hi = hist.get("min"), hist.get("max")
        if total:
            if lo is None or hi is None:
                errors.append(f"histogram {name}: min/max missing with count>0")
            elif lo > hi:
                errors.append(f"histogram {name}: min {lo} > max {hi}")
    operational = doc.get("operational", [])
    if not isinstance(operational, list):
        errors.append("operational is not a list")
    return errors
