"""ProfileCollector: per-cell cProfile aggregation and the top-N table."""

from __future__ import annotations

import pytest

from repro.obs.observer import (
    OBSERVER_SCHEMA_VERSION,
    Observer,
    current_observer,
    profiled,
    use_observer,
)
from repro.obs.profiling import ProfileCollector


def _burn(n: int = 2000) -> int:
    return sum(i * i for i in range(n))


def test_profile_block_is_a_noop_without_a_collector():
    assert current_observer().profile is None
    with profiled():
        _burn()
    assert current_observer().profile is None


def test_profile_block_records_into_the_active_collector():
    collector = ProfileCollector()
    with use_observer(Observer(profile=collector)):
        assert current_observer().profile is collector
        with profiled():
            _burn()
        with profiled():
            _burn()
    assert current_observer().profile is None
    assert collector.blocks == 2
    assert any("_burn" in key for key in collector.stats)
    # Two profiled blocks, one _burn call each.
    (burn_key,) = [k for k in collector.stats if "(_burn)" in k]
    assert collector.stats[burn_key][0] == 2


def test_snapshot_round_trip_and_merge():
    a, b = Observer(profile=ProfileCollector()), Observer(profile=ProfileCollector())
    with use_observer(a), profiled():
        _burn()
    with use_observer(b), profiled():
        _burn()
    snapshot = b.snapshot()
    assert snapshot["version"] == OBSERVER_SCHEMA_VERSION
    a.merge(snapshot)
    a = a.profile
    assert a.blocks == 2
    (burn_key,) = [k for k in a.stats if "(_burn)" in k]
    assert a.stats[burn_key][0] == 2


def test_merge_rejects_version_mismatch():
    # Profiles travel inside the observer snapshot, whose one schema
    # version guards every sink.
    snapshot = Observer(profile=ProfileCollector()).snapshot()
    snapshot["version"] = OBSERVER_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        Observer(profile=ProfileCollector()).merge(snapshot)


def test_top_sorts_by_cumtime_with_key_tiebreak():
    collector = ProfileCollector()
    collector.stats = {
        "b.py:1(slow)": [1, 0.0, 2.0],
        "a.py:1(tied)": [1, 0.0, 1.0],
        "c.py:1(tied2)": [1, 0.0, 1.0],
    }
    keys = [row[0] for row in collector.top(3)]
    assert keys == ["b.py:1(slow)", "a.py:1(tied)", "c.py:1(tied2)"]
    assert len(collector.top(1)) == 1


def test_table_renders_header_and_rows():
    collector = ProfileCollector()
    empty = collector.table()
    assert "0 profiled cell(s)" in empty
    assert "(no profile data recorded)" in empty
    with use_observer(Observer(profile=collector)), profiled():
        _burn()
    table = collector.table(5)
    assert "1 profiled cell(s)" in table
    assert "ncalls" in table and "cumtime" in table
    assert "_burn" in table
