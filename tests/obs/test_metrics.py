"""Typed metrics: recording, snapshots, deterministic merges, exporters.

The load-bearing property is the determinism contract of
:mod:`repro.obs.metrics`: counters and integer histograms merge
order-insensitively, so the deterministic subset of a snapshot is
byte-identical no matter how the work was sharded across workers.  A
hypothesis property drives that directly; golden serial-vs-parallel
sweeps assert it end to end in ``tests/scenarios``.
"""

from __future__ import annotations

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.obs.metrics import (
    COUNT_BUCKETS,
    ITERATION_BUCKETS,
    METRICS_SCHEMA_VERSION,
    TIME_BUCKETS_S,
    Histogram,
    Metrics,
    prometheus_text,
    validate_metrics_doc,
)
from repro.obs.observer import (
    Observer,
    current_observer,
    inc,
    observe,
    set_gauge,
    span,
    use_observer,
)


# ----------------------------------------------------------------------
# Histogram mechanics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_observe_buckets_by_upper_bound(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        # le=1.0 catches 0.5 and 1.0; le=10.0 catches 5.0 and 10.0;
        # the implicit +Inf bucket catches 11.0.
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert (h.min, h.max) == (0.5, 11)

    def test_integral_floats_become_exact_ints(self):
        h = Histogram((10.0,))
        h.observe(3.0)
        h.observe(4)
        assert h.sum == 7
        assert isinstance(h.sum, int)

    def test_round_trip_and_merge(self):
        a, b = Histogram(ITERATION_BUCKETS), Histogram(ITERATION_BUCKETS)
        for v in (1, 7, 300):
            a.observe(v)
        b.observe(12)
        a.merge(b.to_dict())
        assert a.count == 4
        assert a.sum == 1 + 7 + 300 + 12
        back = Histogram.from_dict(a.to_dict())
        assert back.to_dict() == a.to_dict()

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(ITERATION_BUCKETS)
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(Histogram(COUNT_BUCKETS).to_dict())

    def test_merge_empty_keeps_min_max_none(self):
        a = Histogram((1.0,))
        a.merge(Histogram((1.0,)).to_dict())
        assert a.count == 0
        assert a.min is None and a.max is None
        assert a.mean() is None


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_gauges_histograms(self):
        m = Metrics()
        m.inc("cache.hit")
        m.inc("cache.hit", 2)
        m.set_gauge("sweep.cells_total", 9)
        m.observe("solve.iterations", 42, buckets=ITERATION_BUCKETS)
        assert m.counter("cache.hit") == 3
        assert m.counter("never.touched") == 0
        assert m.gauges["sweep.cells_total"] == 9
        assert m.histograms["solve.iterations"].count == 1

    def test_operational_names_drop_from_deterministic_view(self):
        m = Metrics()
        m.inc("cache.hit")
        m.inc("solve.cold", operational=True)
        m.set_gauge("eta_s", 12.5, operational=True)
        m.observe("cell.wall_s", 0.25, operational=True)
        full = m.to_dict()
        det = m.to_dict(deterministic_only=True)
        assert full["operational"] == ["cell.wall_s", "eta_s", "solve.cold"]
        assert "operational" not in det
        assert set(det["counters"]) == {"cache.hit"}
        assert det["gauges"] == {}
        assert det["histograms"] == {}

    def test_merge_adds_counters_and_histograms(self):
        a, b = Metrics(), Metrics()
        a.inc("cache.hit", 2)
        b.inc("cache.hit", 3)
        b.inc("cache.miss")
        b.observe("solve.iterations", 5, buckets=ITERATION_BUCKETS)
        b.set_gauge("sweep.cells_total", 4)
        a.merge(b.to_dict())
        assert a.counter("cache.hit") == 5
        assert a.counter("cache.miss") == 1
        assert a.gauges["sweep.cells_total"] == 4
        assert a.histograms["solve.iterations"].sum == 5

    def test_merge_rejects_version_mismatch(self):
        doc = Metrics().to_dict()
        doc["version"] = METRICS_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            Metrics().merge(doc)

    def test_snapshot_json_is_sorted_and_stable(self):
        m = Metrics()
        m.inc("zz")
        m.inc("aa")
        doc = m.to_dict()
        assert list(doc["counters"]) == ["aa", "zz"]
        assert json.loads(m.to_json()) == doc

    def test_summary_renders_every_type(self):
        m = Metrics()
        assert "(no metrics recorded)" in m.summary()
        m.inc("cache.hit", 7)
        m.set_gauge("sweep.cells_total", 3)
        m.observe("solve.iterations", 10, buckets=ITERATION_BUCKETS)
        text = m.summary()
        assert "cache.hit" in text and "7" in text
        assert "n=1" in text


# ----------------------------------------------------------------------
# Contextvar activation
# ----------------------------------------------------------------------
class TestActivation:
    def test_module_helpers_are_noops_when_disabled(self):
        assert current_observer().metrics is None
        inc("cache.hit")
        set_gauge("g", 1)
        observe("h", 0.5)
        with span("t"):
            pass
        assert current_observer().metrics is None

    def test_use_metrics_routes_helpers(self):
        m = Metrics()
        with use_observer(Observer(metrics=m)) as active:
            assert active.metrics is m and current_observer() is active
            inc("cache.hit")
            set_gauge("g", 2.0)
            observe("solve.iterations", 3, buckets=ITERATION_BUCKETS)
            with span("cell"):
                pass
        assert current_observer().metrics is None
        assert m.counter("cache.hit") == 1
        assert m.gauges["g"] == 2.0
        # Spans are always operational: wall seconds never leak into
        # the deterministic view.
        assert "span.cell" in m.operational
        assert m.histograms["span.cell"].count == 1


# ----------------------------------------------------------------------
# The order-insensitivity property behind serial == parallel
# ----------------------------------------------------------------------
EVENTS = st.lists(
    st.one_of(
        st.tuples(
            st.just("inc"),
            st.sampled_from(["cache.hit", "cache.miss", "solve.total"]),
            st.integers(min_value=1, max_value=5),
        ),
        st.tuples(
            st.just("observe"),
            st.sampled_from(["sim.tasks", "solve.iterations"]),
            st.integers(min_value=0, max_value=20_000),
        ),
    ),
    max_size=40,
)


@given(events=EVENTS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_merge_is_order_insensitive_for_deterministic_fields(events, data):
    """Any sharding of an event stream across workers, merged in any
    order, yields the same deterministic snapshot as one serial worker —
    counter addition and integer histogram sums are commutative and
    exact."""
    serial = Metrics()
    n_workers = data.draw(st.integers(min_value=1, max_value=4))
    workers = [Metrics() for _ in range(n_workers)]
    for event in events:
        kind, name, value = event
        target = data.draw(
            st.integers(min_value=0, max_value=n_workers - 1), label="worker"
        )
        for m in (serial, workers[target]):
            if kind == "inc":
                m.inc(name, value)
            else:
                m.observe(name, value, buckets=COUNT_BUCKETS)
    merged = Metrics()
    order = data.draw(st.permutations(list(range(n_workers))), label="order")
    for i in order:
        merged.merge(workers[i].to_dict())
    assert (
        json.dumps(merged.to_dict(deterministic_only=True), sort_keys=True)
        == json.dumps(serial.to_dict(deterministic_only=True), sort_keys=True)
    )


# ----------------------------------------------------------------------
# Exporters and the validator
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counter_gauge_histogram_shapes(self):
        m = Metrics()
        m.inc("cache.hit", 3)
        m.set_gauge("sweep.cells_total", 5)
        h = Histogram((1.0, 10.0))
        for v in (0.5, 5, 20):
            h.observe(v)
        m.histograms["solve.wall_s"] = h
        text = prometheus_text(m)
        assert "# TYPE repro_cache_hit_total counter" in text
        assert "repro_cache_hit_total 3" in text
        assert "repro_sweep_cells_total 5" in text
        # Cumulative buckets: le=1 sees 1, le=10 sees 2, +Inf sees all 3.
        assert 'repro_solve_wall_s_bucket{le="1.0"} 1' in text
        assert 'repro_solve_wall_s_bucket{le="10.0"} 2' in text
        assert 'repro_solve_wall_s_bucket{le="+Inf"} 3' in text
        assert "repro_solve_wall_s_count 3" in text
        assert text.endswith("\n")

    def test_accepts_snapshot_dicts_and_is_stable(self):
        m = Metrics()
        m.inc("a.b")
        assert prometheus_text(m) == prometheus_text(m.to_dict())
        assert prometheus_text(Metrics()) == ""


def _parse_prom(text: str) -> dict[str, float]:
    """Parse exposition text into ``{series_name: value}`` (floats)."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name not in series, f"duplicate series {name}"
        series[name] = float(value)
    return series


class TestPrometheusValues:
    def test_infinities_render_exposition_spellings(self):
        m = Metrics()
        m.set_gauge("frontier.cap_w", float("inf"))
        m.set_gauge("frontier.floor_w", float("-inf"))
        m.set_gauge("frontier.slack", float("nan"))
        text = prometheus_text(m)
        assert "repro_frontier_cap_w +Inf\n" in text
        assert "repro_frontier_floor_w -Inf\n" in text
        assert "repro_frontier_slack NaN\n" in text
        # Python's repr spellings ("inf"/"-inf"/"nan") do not parse under
        # the exposition grammar and must never appear as values.
        for line in text.splitlines():
            if not line.startswith("#"):
                assert line.rsplit(" ", 1)[1] not in ("inf", "-inf", "nan")

    def test_infinite_gauge_output_parses(self):
        m = Metrics()
        m.inc("cache.hit")
        m.set_gauge("frontier.cap_w", float("inf"))
        m.observe("solve.iterations", 3, buckets=ITERATION_BUCKETS)
        series = _parse_prom(prometheus_text(m))
        assert series["repro_frontier_cap_w"] == float("inf")


class TestPrometheusCollisions:
    def test_sanitization_collisions_get_deterministic_suffixes(self):
        m = Metrics()
        m.set_gauge("cell.wall_s", 1.0)
        m.set_gauge("cell_wall_s", 2.0)
        text = prometheus_text(m)
        series = _parse_prom(text)
        # "cell.wall_s" sorts first ("." < "_") and keeps the base name.
        assert series["repro_cell_wall_s"] == 1.0
        assert series["repro_cell_wall_s_2"] == 2.0
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines)) == 2

    def test_suffix_skips_identifiers_already_taken(self):
        m = Metrics()
        m.set_gauge("a.b", 1.0)
        m.set_gauge("a_b", 2.0)
        m.set_gauge("a_b_2", 3.0)  # a singleton already owns the _2 spot
        series = _parse_prom(prometheus_text(m))
        assert series["repro_a_b"] == 1.0
        assert series["repro_a_b_2"] == 3.0
        assert series["repro_a_b_3"] == 2.0

    def test_cross_family_collisions_disambiguate(self):
        m = Metrics()
        m.inc("x", 1)
        m.set_gauge("x", 2.0)
        series = _parse_prom(prometheus_text(m))
        # Same original name: family order breaks the tie, so the counter
        # keeps the base (its _total suffix lands on repro_x_total).
        assert series["repro_x_total"] == 1
        assert series["repro_x_2"] == 2.0

    def test_output_stays_byte_stable(self):
        m = Metrics()
        m.set_gauge("cell.wall_s", 1.0)
        m.set_gauge("cell_wall_s", 2.0)
        m.inc("cell.wall_s".replace(".", "-"), 4)
        assert prometheus_text(m) == prometheus_text(m.to_dict())


class TestPrometheusRoundTrip:
    def test_three_kind_round_trip(self):
        m = Metrics()
        m.inc("cache.hit", 3)
        m.set_gauge("queue.depth", 7)
        m.observe("solve.iterations", 5, buckets=(1.0, 10.0))
        m.observe("solve.iterations", 50, buckets=(1.0, 10.0))
        series = _parse_prom(prometheus_text(m))
        assert series["repro_cache_hit_total"] == 3
        assert series["repro_queue_depth"] == 7
        assert series['repro_solve_iterations_bucket{le="1.0"}'] == 0
        assert series['repro_solve_iterations_bucket{le="10.0"}'] == 1
        assert series['repro_solve_iterations_bucket{le="+Inf"}'] == 2
        assert series["repro_solve_iterations_sum"] == 55
        assert series["repro_solve_iterations_count"] == 2


class TestValidator:
    def test_valid_snapshots_pass(self):
        m = Metrics()
        m.inc("cache.hit")
        m.observe("solve.iterations", 3, buckets=ITERATION_BUCKETS)
        m.observe("cell.wall_s", 0.01, operational=True)
        assert validate_metrics_doc(m.to_dict()) == []
        assert validate_metrics_doc(m.to_dict(deterministic_only=True)) == []

    def test_rejects_structural_problems(self):
        assert validate_metrics_doc("nope") == ["snapshot is not an object"]
        assert any(
            "version" in e for e in validate_metrics_doc({"version": 99})
        )
        doc = {
            "version": METRICS_SCHEMA_VERSION,
            "counters": {"c": 1.5},
            "gauges": {"g": "high"},
            "histograms": {
                "h": {
                    "bounds": [1.0, 1.0],
                    "counts": [1],
                    "count": 3,
                    "sum": 0,
                    "min": 5,
                    "max": 2,
                }
            },
        }
        errors = "\n".join(validate_metrics_doc(doc))
        assert "counter c" in errors
        assert "gauge g" in errors
        assert "counts" in errors
        assert "strictly increasing" in errors
        assert "min 5 > max 2" in errors

    def test_rejects_malformed_sections_and_summaries(self):
        base = {
            "version": METRICS_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert "counters missing or not an object" in validate_metrics_doc(
            dict(base, counters=[])
        )
        assert "gauges missing or not an object" in validate_metrics_doc(
            dict(base, gauges=3)
        )
        assert "histograms missing or not an object" in validate_metrics_doc(
            dict(base, histograms="h")
        )
        assert "operational is not a list" in validate_metrics_doc(
            dict(base, operational="cell.wall_s")
        )
        # Booleans are ints in Python but not valid metric values.
        errors = validate_metrics_doc(
            dict(base, counters={"c": True}, gauges={"g": False})
        )
        assert any("counter c" in e for e in errors)
        assert any("gauge g" in e for e in errors)

    def test_rejects_inconsistent_histograms(self):
        def doc_with(hist):
            return {
                "version": METRICS_SCHEMA_VERSION,
                "counters": {},
                "gauges": {},
                "histograms": {"h": hist},
            }

        errors = "\n".join(validate_metrics_doc(doc_with("nope")))
        assert "not an object" in errors
        errors = "\n".join(validate_metrics_doc(doc_with({"count": 1})))
        assert "bounds/counts missing" in errors
        # One count too many for the bounds.
        errors = "\n".join(validate_metrics_doc(doc_with({
            "bounds": [1.0], "counts": [1, 0, 0], "count": 1,
            "sum": 1, "min": 1, "max": 1,
        })))
        assert "want bounds+1" in errors
        # Bucket counts disagreeing with the total.
        errors = "\n".join(validate_metrics_doc(doc_with({
            "bounds": [1.0], "counts": [1, 0], "count": 3,
            "sum": 1, "min": 1, "max": 1,
        })))
        assert "bucket counts sum to 1, count says 3" in errors
        # Populated histogram missing its summary extremes.
        errors = "\n".join(validate_metrics_doc(doc_with({
            "bounds": [1.0], "counts": [1, 0], "count": 1,
            "sum": 1, "min": None, "max": None,
        })))
        assert "min/max missing" in errors

    def test_default_bucket_families_are_valid_histograms(self):
        for buckets in (TIME_BUCKETS_S, ITERATION_BUCKETS, COUNT_BUCKETS):
            Histogram(buckets)  # constructor enforces strict monotonicity
