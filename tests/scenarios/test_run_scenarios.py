"""The N-way executor: smoke over every runtime, caching, parallelism."""

import pytest

from repro.exec.cache import SolverCache
from repro.exec.keys import scenario_cell_key
from repro.machine.variability import make_power_models
from repro.obs.observer import Observer, use_observer
from repro.obs.recorder import TraceRecorder
from repro.scenarios.run import (
    policy_iteration_time,
    run_scenario_cell,
    run_scenarios,
)
from repro.scenarios.spec import (
    SCENARIO_LAYER_VERSION,
    PolicySpec,
    ScenarioSpec,
)
from repro.workloads import WorkloadSpec, make_comd

ALL_FIVE = (
    PolicySpec("static"),
    PolicySpec("conductor"),
    PolicySpec("adagio"),
    PolicySpec("selection-only"),
    PolicySpec("lp"),
)


def small_spec(policies=ALL_FIVE, caps=(40.0, 60.0), **overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="synthetic",
        caps_per_socket_w=caps,
        policies=policies,
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestNWaySmoke:
    def test_all_five_policies_on_synthetic(self):
        result = run_scenarios(small_spec())
        assert result.policy_names() == [
            "static", "conductor", "adagio", "selection-only", "lp",
        ]
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.schedulable
            for name, outcome in cell.outcomes.items():
                assert outcome.time_s is not None and outcome.time_s > 0, name

    def test_outcome_metadata(self):
        cell = run_scenarios(small_spec()).cells[0]
        assert cell.outcomes["lp"].kind == "bound"
        assert cell.outcomes["static"].kind == "runtime"
        assert "reallocs" in cell.outcomes["conductor"].extra
        # The LP bound is at least as fast as every measured runtime.
        lp = cell.outcomes["lp"].time_s
        for name in ("static", "conductor", "selection-only"):
            assert lp <= cell.outcomes[name].time_s + 1e-9, name

    def test_series_and_cell_at(self):
        result = run_scenarios(small_spec())
        assert len(result.series("adagio")) == 2
        assert result.cell_at(40.0).cap_per_socket_w == 40.0
        with pytest.raises(KeyError):
            result.cell_at(99.0)

    def test_duplicate_policy_distinct_configs(self):
        spec = small_spec(policies=(
            PolicySpec("conductor", name="slow", config={"realloc_period": 8}),
            PolicySpec("conductor", name="fast", config={"realloc_period": 2}),
        ))
        cell = run_scenarios(spec).cells[0]
        assert set(cell.outcomes) == {"slow", "fast"}
        assert (
            cell.outcomes["fast"].extra["reallocs"]
            >= cell.outcomes["slow"].extra["reallocs"]
        )

    def test_include_discrete_extra(self):
        spec = small_spec(policies=(
            PolicySpec("lp", config={"include_discrete": True}),
        ))
        outcome = run_scenarios(spec).cells[0].outcomes["lp"]
        assert outcome.extra["feasible"] is True
        assert outcome.extra["discrete_s"] >= outcome.time_s - 1e-9

    def test_unschedulable_cap_marks_all_policies(self):
        spec = small_spec(benchmark="sp", caps=(10.0,), n_ranks=4)
        cell = run_scenarios(spec).cells[0]
        assert not cell.schedulable
        assert all(o.time_s is None for o in cell.outcomes.values())

    def test_unknown_policy_fails_fast(self):
        spec = small_spec(policies=(PolicySpec("magic"),))
        with pytest.raises(KeyError, match="registered"):
            run_scenarios(spec)

    def test_trace_scopes_per_policy_instance(self):
        rec = TraceRecorder()
        spec = small_spec(caps=(40.0,))
        with use_observer(Observer(recorder=rec)):
            run_scenarios(spec)
        runs = {e["run"] for e in rec.snapshot()}
        for label in spec.policy_labels():
            assert f"{label} synthetic cap=40W" in runs, label


ENERGY_WAY = (
    PolicySpec("static"),
    PolicySpec("dvfs-energy"),
    PolicySpec("config-search"),
    PolicySpec("lp"),
    PolicySpec("energy-lp"),
)


class TestEnergyOutcomes:
    def test_every_outcome_carries_per_iteration_energy(self):
        result = run_scenarios(small_spec(policies=ENERGY_WAY))
        for cell in result.cells:
            for name, outcome in cell.outcomes.items():
                assert outcome.energy_j is not None, name
                assert outcome.energy_j > 0, name

    def test_payload_round_trip_preserves_energy(self):
        from repro.scenarios.run import PolicyOutcome

        cell = run_scenarios(small_spec(policies=ENERGY_WAY)).cells[0]
        for name, outcome in cell.outcomes.items():
            back = PolicyOutcome.from_payload(name, outcome.to_payload())
            assert back.energy_j == outcome.energy_j
        # Pre-energy payloads (no key) rehydrate to None, never KeyError.
        doc = cell.outcomes["lp"].to_payload()
        del doc["energy_j"]
        assert PolicyOutcome.from_payload("lp", doc).energy_j is None

    def test_energy_lp_bound_dominates_time_lp_at_every_cap(self):
        """The frontier invariant (docs/scenarios.md): the time-optimal
        capped schedule is feasible for the capped energy LP at the same
        deadline, so the energy-lp bound never uses more energy — and at
        the same (anchored) time it is Pareto-dominated by nothing."""
        result = run_scenarios(small_spec(policies=ENERGY_WAY))
        for cell in result.cells:
            lp, elp = cell.outcomes["lp"], cell.outcomes["energy-lp"]
            assert elp.energy_j <= lp.energy_j * (1 + 1e-9)
            assert elp.time_s == pytest.approx(lp.time_s)

    def test_uncapped_energy_lp_config(self):
        spec = small_spec(policies=(
            PolicySpec("energy-lp", name="capped"),
            PolicySpec("energy-lp", name="free", config={"capped": False}),
        ))
        cell = run_scenarios(spec).cells[0]
        # Uncapped: deadline anchors at the unconstrained makespan, which
        # is faster than any capped optimum, while the capped variant may
        # spend less energy only via its longer deadline.
        assert cell.outcomes["free"].time_s <= cell.outcomes["capped"].time_s
        assert cell.outcomes["free"].extra["feasible"]

    def test_unschedulable_cap_yields_no_energy(self):
        # SP declares a 40 W/socket floor; below it the cell is skipped.
        result = run_scenarios(
            small_spec(
                policies=ENERGY_WAY[:1] + ENERGY_WAY[-1:],
                caps=(10.0,),
                benchmark="sp",
            )
        )
        cell = result.cells[0]
        assert not cell.schedulable
        for outcome in cell.outcomes.values():
            assert outcome.time_s is None and outcome.energy_j is None

    def test_warm_cell_preserves_energy(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(policies=ENERGY_WAY, caps=(40.0,))
        cold = run_scenarios(spec, cache=cache)
        warm = run_scenarios(spec, cache=cache)
        for name in spec.policy_labels():
            assert (
                warm.cells[0].outcomes[name].energy_j
                == cold.cells[0].outcomes[name].energy_j
            )

    def test_cell_energy_metric_is_deterministic(self):
        from repro.obs.metrics import Metrics

        spec = small_spec(policies=ENERGY_WAY[:2], caps=(40.0,))
        m = Metrics()
        with use_observer(Observer(metrics=m)):
            run_scenarios(spec)
        hist = m.to_dict(deterministic_only=True)["histograms"]["cell.energy_j"]
        assert hist["count"] == 2  # one observation per outcome
        assert all(isinstance(v, int) for v in (hist["sum"], hist["min"]))


class TestCellCaching:
    def test_warm_cell_is_byte_identical(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec()
        cold = run_scenarios(spec, cache=cache)
        warm = run_scenarios(spec, cache=cache)
        for a, b in zip(cold.cells, warm.cells):
            assert a.schedulable == b.schedulable
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s
                assert a.outcomes[name].extra == b.outcomes[name].extra

    def test_sweep_and_single_cap_share_cells(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(40.0, 60.0))
        run_scenarios(spec, cache=cache)
        hits_before = cache.hits
        single = ScenarioSpec.from_doc(
            {**spec.to_doc(), "caps_per_socket_w": [60.0]}
        )
        run_scenario_cell(single, 60.0, cache=cache)
        assert cache.hits > hits_before  # warm despite the different grid

    def test_different_policy_lists_do_not_collide(self, tmp_path):
        cache = SolverCache(tmp_path)
        three = small_spec(policies=ALL_FIVE[:3], caps=(40.0,))
        five = small_spec(policies=ALL_FIVE, caps=(40.0,))
        run_scenarios(three, cache=cache)
        cell = run_scenario_cell(five, 40.0, cache=cache)
        assert set(cell.outcomes) == set(five.policy_labels())

    def test_stale_payload_recomputed_not_mismapped(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(40.0,))
        key = scenario_cell_key(
            spec.cell_hash(), 40.0, SCENARIO_LAYER_VERSION
        )
        # A pre-scenario-layer payload under the very same key (e.g. a
        # version rollback) must miss, not be mis-mapped into outcomes.
        cache.put(key, {"static_s": 1.0, "conductor_s": 2.0, "lp_s": 0.5})
        cell = run_scenario_cell(spec, 40.0, cache=cache)
        assert set(cell.outcomes) == set(spec.policy_labels())
        assert cell.outcomes["static"].time_s not in (1.0, 2.0, 0.5)

    def test_layer_version_namespaces_keys(self):
        a = scenario_cell_key("abc", 40.0, 1)
        b = scenario_cell_key("abc", 40.0, 2)
        assert a != b


class TestWithinRunDedup:
    def test_duplicate_caps_compute_once_and_fan_out(self):
        from repro.obs.metrics import Metrics

        spec = small_spec(
            policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0, 40.0)
        )
        metrics = Metrics()
        with use_observer(Observer(metrics=metrics)):
            result = run_scenarios(spec)
        # Counted once, in the one metrics sink.
        assert metrics.to_dict()["counters"]["cells.deduped"] == 2
        # The result still fans out to every grid occurrence...
        assert [c.cap_per_socket_w for c in result.cells] == [
            40.0, 60.0, 40.0, 40.0,
        ]
        # ...and the duplicates are the *same* computed cell.
        assert result.cells[0] is result.cells[2] is result.cells[3]

    def test_dedup_matches_a_unique_grid(self):
        spec_dup = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0))
        spec_uniq = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0))
        dup = run_scenarios(spec_dup)
        uniq = run_scenarios(spec_uniq)
        for cap in (40.0, 60.0):
            a, b = dup.cell_at(cap), uniq.cell_at(cap)
            for name in spec_uniq.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s

    def test_progress_still_reaches_the_full_total(self):
        from repro.obs.progress import ProgressReporter

        spec = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0))
        progress = ProgressReporter(total=len(spec.caps_per_socket_w))
        run_scenarios(spec, progress=progress)
        assert progress.done == 3 and progress.failed == 0


class TestParallel:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        spec = small_spec(caps=(35.0, 45.0, 55.0))
        serial = run_scenarios(spec, workers=1)
        parallel = run_scenarios(spec, workers=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.cap_per_socket_w == b.cap_per_socket_w
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s
                assert a.outcomes[name].extra == b.outcomes[name].extra

    def test_parallel_with_cache(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(35.0, 45.0))
        cold = run_scenarios(spec, workers=2, cache=cache)
        warm = run_scenarios(spec, workers=1, cache=cache)
        for a, b in zip(cold.cells, warm.cells):
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s


class TestPolicyIterationTime:
    def test_runtime_and_bound_paths(self):
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=2, seed=2015))
        pm = make_power_models(4)
        t_static = policy_iteration_time("static", app, pm, 4 * 50.0, 2)
        t_lp = policy_iteration_time("lp", app, pm, 4 * 50.0, 2)
        assert t_lp <= t_static
        assert t_static > 0

    def test_infeasible_bound_returns_none(self):
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=2, seed=2015))
        pm = make_power_models(4)
        assert policy_iteration_time("lp", app, pm, 1.0, 2) is None

    def test_unknown_policy(self):
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=2, seed=2015))
        pm = make_power_models(4)
        with pytest.raises(KeyError, match="registered"):
            policy_iteration_time("magic", app, pm, 200.0, 2)
