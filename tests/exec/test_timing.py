"""Phase spans and counters on the observer: accumulation, merging, and
the disabled fast path."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Metrics
from repro.obs.observer import (
    OBSERVER_SCHEMA_VERSION,
    Observer,
    current_observer,
    inc,
    span,
    use_observer,
)


def observer() -> Observer:
    return Observer(metrics=Metrics())


def test_span_accumulates_into_active_telemetry():
    obs = observer()
    with use_observer(obs):
        with span("solve"):
            pass
        with span("solve"):
            pass
        with span("trace"):
            pass
    phases = obs.phases()
    assert phases["solve"]["calls"] == 2
    assert phases["trace"]["calls"] == 1
    assert phases["solve"]["total_s"] >= 0.0
    assert "absent" not in phases


def test_span_and_count_are_noops_when_disabled():
    assert current_observer().sinks == ()
    with span("anything"):
        inc("anything")
    assert current_observer().sinks == ()
    assert Observer().phases() == {}


def test_counters():
    obs = observer()
    with use_observer(obs):
        inc("cache.hit")
        inc("cache.hit", 3)
    assert obs.metrics.counter("cache.hit") == 4
    assert obs.metrics.counter("cache.miss") == 0


def test_use_telemetry_restores_previous():
    outer, inner = observer(), observer()
    with use_observer(outer):
        with use_observer(inner):
            inc("c")
        inc("c")
    assert inner.metrics.counter("c") == 1
    assert outer.metrics.counter("c") == 1


def test_to_dict_round_trip_and_merge():
    obs = observer()
    with use_observer(obs):
        with span("solve"):
            pass
        inc("cache.hit", 2)
    snapshot = json.loads(json.dumps(obs.snapshot()))

    other = observer()
    other.merge(snapshot)
    other.merge(snapshot)
    assert other.phases()["solve"]["calls"] == 2
    assert other.metrics.counter("cache.hit") == 4


def test_summary_mentions_phases_and_counters():
    obs = observer()
    with use_observer(obs):
        with span("replay"):
            pass
        inc("cache.miss")
    text = obs.timings_summary()
    assert "replay" in text
    assert "cache.miss" in text
    assert "(no phases recorded)" in observer().timings_summary()


def test_nested_spans_record_both():
    obs = observer()
    with use_observer(obs):
        with span("outer"):
            with span("inner"):
                pass
    phases = obs.phases()
    assert phases["outer"]["calls"] == 1
    assert phases["inner"]["calls"] == 1
    assert phases["outer"]["total_s"] >= phases["inner"]["total_s"]


def test_snapshot_carries_schema_version():
    assert Observer().snapshot()["version"] == OBSERVER_SCHEMA_VERSION


def test_merge_rejects_mismatched_schema_version():
    snapshot = observer().snapshot()
    snapshot["version"] = OBSERVER_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="does not match"):
        observer().merge(snapshot)


def test_merge_rejects_versionless_snapshot():
    # Pre-versioning snapshots must not be silently folded in either.
    with pytest.raises(ValueError, match="None"):
        observer().merge({"metrics": Metrics().to_dict()})
