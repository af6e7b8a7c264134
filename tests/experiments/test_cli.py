"""Tests for the repro-experiments CLI."""

import json
import re

import pytest

from repro.experiments.cli import EXHIBITS, main
from repro.obs.provenance import MANIFEST_SCHEMA_VERSION


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXHIBITS:
            assert name in out

    def test_unknown_exhibit(self):
        with pytest.raises(SystemExit):
            main(["not-a-figure"])

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "regenerated" in out

    def test_overheads_runs(self, capsys):
        assert main(["overheads"]) == 0
        assert "566" in capsys.readouterr().out

    def test_quick_flag_shrinks_ranks(self, capsys):
        # fig12 with --quick runs 8 ranks x 4 iterations: fast.
        assert main(["--quick", "fig12"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_save_writes_files(self, capsys, tmp_path):
        assert main(["--save", str(tmp_path), "fig1", "overheads"]) == 0
        capsys.readouterr()
        assert (tmp_path / "fig1.txt").read_text().startswith("Figure 1")
        assert "566" in (tmp_path / "overheads.txt").read_text()

    def test_save_stamps_manifest(self, capsys, tmp_path):
        assert main(["--save", str(tmp_path), "fig1"]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["schema"] == MANIFEST_SCHEMA_VERSION
        assert len(doc["config_hash"]) == 64


class TestRunSubcommand:
    def test_quick_run_prints_comparison(self, capsys):
        assert main(["run", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "comd: 4 ranks" in out
        assert "conductor" in out and "lp bound" in out

    def test_run_rejects_positionals(self):
        with pytest.raises(SystemExit):
            main(["run", "fig1"])

    def test_run_save_writes_summary_and_manifest(self, capsys, tmp_path):
        assert main(["run", "--quick", "--save", str(tmp_path)]) == 0
        capsys.readouterr()
        assert "comd" in (tmp_path / "run.txt").read_text()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["seed"] == 2015  # the paper's RNG seed
        assert doc["model_layer_version"] is not None

    def test_trace_dir_exports_both_formats(self, capsys, tmp_path):
        assert main(["run", "--quick", "--trace-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "trace.jsonl").exists()

    def test_timings_json_embeds_solve_audit(self, capsys, tmp_path):
        out = tmp_path / "timings.json"
        assert main(["run", "--quick", "--timings-json", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        audit = doc["solve_audit"]
        assert audit["solves"], "the LP solve must be in the ledger"
        assert audit["solves"][0]["status"] == "optimal"
        # Cache traffic is counted by the metrics, not the audit.
        assert set(audit) == {"solves"}
        # The quick run's cap is below the power ceiling: one solve at
        # the cap and no relaxed one.
        assert [s["source"] for s in audit["solves"]] == ["cold"]
        assert doc["phases"]["solve"]["calls"] == len(audit["solves"])
        assert doc["counters"]["solve.total"] == len(audit["solves"])
        assert "solve.relaxed" not in doc["phases"]
        assert "solve.saturated" not in doc["counters"]


class TestScenarioRuns:
    QUICK = ["--quick", "--benchmark", "synthetic"]

    def test_run_policies_four_way(self, capsys):
        argv = ["run", *self.QUICK, "--cap", "50",
                "--policies", "static,conductor,adagio,lp"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for label in ("static", "conductor", "adagio", "lp"):
            assert label in out
        assert "(4-way, spec " in out

    def test_run_baseline_annotations(self, capsys):
        argv = ["run", *self.QUICK, "--cap", "50",
                "--policies", "static,lp", "--baseline", "static"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "% vs static" in out

    def test_sweep_rejects_cap(self, capsys):
        # sweep reads only --caps: a --cap would be silently ignored.
        with pytest.raises(SystemExit):
            main(["sweep", *self.QUICK, "--policies", "static,lp",
                  "--cap", "50"])
        assert "--caps" in capsys.readouterr().err

    def test_run_rejects_caps(self, capsys):
        # run reads only --cap: a --caps list would be silently ignored.
        with pytest.raises(SystemExit):
            main(["run", *self.QUICK, "--policies", "static,lp",
                  "--caps", "40,60"])
        assert "--cap" in capsys.readouterr().err

    def test_inline_backend_is_not_a_choice(self):
        # --workers 1 is the in-process path; there is no inline backend.
        with pytest.raises(SystemExit):
            main(["sweep", *self.QUICK, "--backend", "inline"])

    def test_run_unknown_policy_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", *self.QUICK, "--policies", "static,magic"])

    def test_run_baseline_must_be_in_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", *self.QUICK, "--policies", "static,lp",
                  "--baseline", "conductor"])

    def test_scenario_and_policies_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", *self.QUICK, "--policies", "static",
                  "--scenario", str(tmp_path / "s.json")])

    def test_sweep_defaults_to_three_way(self, capsys):
        argv = ["sweep", *self.QUICK, "--caps", "40,60"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(3-way, spec " in out
        assert "Scenario summary" in out

    def test_sweep_scenario_file_keeps_its_grid(self, capsys, tmp_path):
        from repro.scenarios.spec import PolicySpec, ScenarioSpec

        spec = ScenarioSpec(
            benchmark="synthetic", caps_per_socket_w=(45.0, 65.0),
            policies=(PolicySpec("static"),
                      PolicySpec("conductor", name="cond-fast",
                                 config={"realloc_period": 2})),
            n_ranks=4, run_iterations=8, lp_iterations=2,
            discard_iterations=2, steady_window=4,
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["sweep", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cond-fast" in out
        assert "45" in out and "65" in out

    def test_run_save_embeds_scenario_in_manifest(self, capsys, tmp_path):
        argv = ["run", *self.QUICK, "--cap", "50",
                "--policies", "static,adagio,lp", "--save", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["schema"] == MANIFEST_SCHEMA_VERSION
        scenario = doc["scenario"]
        assert scenario["benchmark"] == "synthetic"
        assert [p["policy"] for p in scenario["policies"]] == [
            "static", "adagio", "lp",
        ]
        assert "static" in (tmp_path / "run.txt").read_text()

    def test_run_policies_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        argv = ["run", *self.QUICK, "--cap", "50",
                "--policies", "static,lp", "--trace", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["validate-trace", str(trace)]) == 0
        assert "OK" in capsys.readouterr().out


class TestAuditSubcommand:
    def test_default_comparison_table(self, capsys):
        assert main(["audit", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "solver audit" in out
        assert "cold" in out

    def test_audit_rejects_unknown_exhibit(self):
        with pytest.raises(SystemExit):
            main(["audit", "not-a-figure"])


class TestValidateTraceSubcommand:
    def test_needs_a_file(self):
        with pytest.raises(SystemExit):
            main(["validate-trace"])

    def test_missing_file_is_invalid(self, capsys, tmp_path):
        assert main(["validate-trace", str(tmp_path / "nope.json")]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestResilienceFlags:
    QUICK = ["--quick", "--benchmark", "synthetic", "--policies", "static,lp"]
    FAULT = ["--inject-faults", "mode=raise,match=cap=50"]

    def test_keep_going_renders_gap_and_exits_nonzero(self, capsys):
        argv = ["sweep", *self.QUICK, "--caps", "40,50,60",
                "--keep-going", *self.FAULT]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "failed cells (1):" in captured.out
        assert "InjectedFault" in captured.out
        assert "keep-going: 1 of 3 cell(s) failed" in captured.err

    def test_keep_going_manifest_records_failures(self, capsys, tmp_path):
        argv = ["sweep", *self.QUICK, "--caps", "40,50,60", "--keep-going",
                *self.FAULT, "--save", str(tmp_path)]
        assert main(argv) == 1
        capsys.readouterr()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        (failure,) = doc["failures"]
        assert failure["cap_per_socket_w"] == 50.0
        assert failure["error_type"] == "InjectedFault"

    def test_clean_manifest_omits_failures(self, capsys, tmp_path):
        argv = ["sweep", *self.QUICK, "--caps", "40,60",
                "--save", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert "failures" not in json.loads((tmp_path / "manifest.json").read_text())

    def test_fault_without_keep_going_aborts_cleanly(self, capsys):
        argv = ["sweep", *self.QUICK, "--caps", "40,50,60", *self.FAULT]
        assert main(argv) == 1
        assert "error: cell cap=50" in capsys.readouterr().err

    def test_run_single_cell_failure_text(self, capsys):
        argv = ["run", *self.QUICK, "--cap", "50", "--keep-going", *self.FAULT]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "cell failed: InjectedFault" in out
        assert "failed" in out

    def test_journal_resume_is_byte_identical_to_clean_run(
        self, capsys, tmp_path
    ):
        base = ["sweep", *self.QUICK, "--caps", "40,50,60"]
        journal = str(tmp_path / "j.jsonl")
        assert main([*base, "--keep-going", "--journal", journal, *self.FAULT,
                     "--save", str(tmp_path / "chaos")]) == 1
        assert main([*base, "--keep-going", "--journal", journal,
                     "--save", str(tmp_path / "resumed")]) == 0
        assert main([*base, "--save", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        for name in ("sweep.txt", "manifest.json"):
            resumed = (tmp_path / "resumed" / name).read_bytes()
            clean = (tmp_path / "clean" / name).read_bytes()
            assert resumed == clean, name

    def test_resilience_flags_require_n_way(self):
        with pytest.raises(SystemExit):
            main(["run", "--quick", "--keep-going"])

    def test_resilience_flags_require_run_or_sweep(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--keep-going"])

    def test_bad_fault_spec_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", *self.QUICK, "--inject-faults", "mode=bogus"])

    def test_bad_task_retries_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", *self.QUICK, "--task-retries", "-1"])


class TestTelemetryFlags:
    QUICK = ["--quick", "--benchmark", "synthetic", "--policies", "static,lp"]

    def test_metrics_snapshot_written_and_valid(self, capsys, tmp_path):
        from repro.obs.metrics import validate_metrics_doc

        out = tmp_path / "metrics.json"
        argv = ["sweep", *self.QUICK, "--caps", "40,60",
                "--metrics", str(out)]
        assert main(argv) == 0
        assert f"[metrics -> {out}]" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_metrics_doc(doc) == []
        assert doc["counters"]["cells.computed"] == 2
        assert doc["counters"]["solve.total"] > 0
        assert "cell.wall_s" in doc["operational"]

    def test_metrics_prom_exposition(self, capsys, tmp_path):
        out = tmp_path / "metrics.prom"
        argv = ["sweep", *self.QUICK, "--caps", "40,60",
                "--metrics-prom", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE repro_cells_computed_total counter" in text
        assert "repro_cells_computed_total 2" in text
        assert 'le="+Inf"' in text

    def test_manifest_embeds_deterministic_metrics_only(self, capsys, tmp_path):
        argv = ["sweep", *self.QUICK, "--caps", "40,60", "--save",
                str(tmp_path), "--metrics", str(tmp_path / "metrics.json")]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "manifest.json").read_text())
        embedded = doc["metrics"]
        assert "operational" not in embedded
        assert "cell.wall_s" not in embedded["histograms"]
        assert embedded["counters"]["cells.computed"] == 2
        full = json.loads((tmp_path / "metrics.json").read_text())
        assert "cell.wall_s" in full["histograms"]

    def test_manifest_without_metrics_flag_omits_field(self, capsys, tmp_path):
        argv = ["sweep", *self.QUICK, "--caps", "40,60", "--save", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert "metrics" not in json.loads(
            (tmp_path / "manifest.json").read_text()
        )

    def test_progress_file_records_every_cell(self, capsys, tmp_path):
        out = tmp_path / "progress.jsonl"
        argv = ["sweep", *self.QUICK, "--caps", "40,50,60", "--quiet",
                "--progress-file", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["done"] for d in docs] == [1, 2, 3]
        assert docs[-1]["total"] == 3
        assert docs[-1]["failed"] == 0
        # Cold cache: every lookup (cell-level and solver-level) missed.
        assert docs[-1]["cache_misses"] >= 3
        assert docs[-1]["cache_hit_rate"] == 0.0

    def test_progress_line_suppressed_when_stderr_not_tty(self, capsys):
        argv = ["sweep", *self.QUICK, "--caps", "40,60"]
        assert main(argv) == 0
        assert "cells (" not in capsys.readouterr().err

    def test_progress_flag_forces_the_line_into_a_pipe(self, capsys):
        argv = ["sweep", *self.QUICK, "--caps", "40,60", "--progress"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "1/2 cells (50%)" in err
        assert "2/2 cells (100%)" in err

    def test_progress_flags_require_run_or_sweep(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--progress"])

    def test_profile_writes_aggregated_table(self, capsys, tmp_path):
        out = tmp_path / "profile.txt"
        argv = ["sweep", *self.QUICK, "--caps", "40,60", "--profile", str(out)]
        assert main(argv) == 0
        assert "[profile: 2 cell(s)" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("aggregated profile: 2 profiled cell(s)")
        assert "cumtime" in text

    def test_timings_text_reports_cache_hit_rate(self, capsys, tmp_path):
        argv = ["sweep", *self.QUICK, "--caps", "40,60", "--timings",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "stores" in out


class TestReportSubcommand:
    QUICK = ["--quick", "--benchmark", "synthetic", "--policies", "static,lp"]
    FAULT = ["--inject-faults", "mode=raise,match=cap=50"]

    def _chaos_run(self, tmp_path):
        """A fault-injected, journaled, metric'd sweep's artifacts."""
        journal = tmp_path / "journal.jsonl"
        metrics = tmp_path / "metrics.json"
        argv = ["sweep", *self.QUICK, "--caps", "40,50,60", "--keep-going",
                *self.FAULT, "--journal", str(journal),
                "--metrics", str(metrics), "--save", str(tmp_path)]
        assert main(argv) == 1
        return journal, tmp_path / "manifest.json", metrics

    def test_report_reconstructs_a_fault_injected_run(self, capsys, tmp_path):
        journal, manifest, metrics = self._chaos_run(tmp_path)
        capsys.readouterr()
        argv = ["report", "--journal", str(journal), "--manifest",
                str(manifest), "--metrics", str(metrics)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep report" in out
        assert re.search(r"cells settled\s*:\s*3", out)
        assert re.search(r"cells ok\s*:\s*2", out)
        assert re.search(r"cells failed\s*:\s*1", out)
        assert "benchmark" in out and "synthetic" in out
        assert "per-policy time across the cap grid" in out
        assert "static" in out and "lp" in out
        assert "cache and solver traffic" in out
        # 40 W is below the power ceiling (one solve); 60 W is above it
        # and is served by the relaxed optimum.
        assert re.search(r"solves\s*:\s*1\n", out)
        assert re.search(r"saturated answers\s*:\s*1\n", out)
        assert "failed cells" in out and "InjectedFault" in out
        assert "slowest cells" in out

    def test_report_from_journal_alone(self, capsys, tmp_path):
        journal, _, _ = self._chaos_run(tmp_path)
        capsys.readouterr()
        assert main(["report", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"cells settled\s*:\s*3", out)
        assert "cache and solver traffic" not in out  # no metrics given

    def test_report_needs_journal(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_rejects_positionals(self):
        with pytest.raises(SystemExit):
            main(["report", "fig1", "--journal", "j.jsonl"])

    def test_report_missing_metrics_file_is_an_error(self, capsys, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_text("")
        argv = ["report", "--journal", str(journal),
                "--metrics", str(tmp_path / "nope.json")]
        assert main(argv) == 1
        assert "error: report:" in capsys.readouterr().err
