"""Self-tests of the benchmark's layer ledger, on shrunk inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
from ledger import Ledger  # noqa: E402

from repro.exec.cache import SolverCache  # noqa: E402
from repro.exec.checkpoint import SweepJournal  # noqa: E402
from repro.obs.audit import SolveAudit, use_audit  # noqa: E402
from repro.scenarios import run as run_mod  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402

def shrunk_spec(benchmark: str, policies: tuple[str, ...], caps, seed: int) -> ScenarioSpec:
    """A few ranks and iterations: the workloads' code paths, in well
    under a second.  Each test uses its own seed, so no test reuses the
    per-process state another sweep built."""
    return ScenarioSpec.from_doc({
        "benchmark": benchmark,
        "caps_per_socket_w": list(caps),
        "policies": [{"policy": p} for p in policies],
        "n_ranks": 4,
        "run_iterations": 8,
        "lp_iterations": 2,
        "discard_iterations": 3,
        "steady_window": 4,
        "seed": seed,
    })


def traced_sweep(spec: ScenarioSpec, **kwargs) -> tuple[Ledger, dict, float]:
    """Run one sweep under the full layer ledger; uninstall afterwards."""
    ledger = Ledger(worker_dir=kwargs.pop("worker_dir", None))
    layers.install_layers(ledger)
    audit = SolveAudit()
    try:
        t0 = time.perf_counter()
        with use_audit(audit):
            run_mod.run_scenarios(spec, **kwargs)
        wall_s = time.perf_counter() - t0
    finally:
        ledger.uninstall()
    workers = Ledger.read_workers(ledger.worker_dir) if ledger.worker_dir else []
    metrics = layers.layer_metrics(
        ledger.snapshot(), workers, sum(r.iterations or 0 for r in audit.records)
    )
    return ledger, metrics, wall_s


class Nest:
    def outer(self):
        time.sleep(0.03)
        self.middle()

    def middle(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.01)


def test_nested_spans_are_not_double_counted():
    ledger = Ledger()
    for name in ("outer", "middle", "inner"):
        ledger.wrap(Nest, name, name)
    try:
        t0 = time.perf_counter()
        Nest().outer()
        wall_s = time.perf_counter() - t0
    finally:
        ledger.uninstall()
    assert not hasattr(Nest.outer, "__wrapped__")  # originals restored
    assert dict(ledger.calls) == {"outer": 1, "middle": 1, "inner": 2}
    assert ledger.self_s["outer"] == pytest.approx(0.03, abs=0.01)
    assert ledger.self_s["middle"] == pytest.approx(0.02, abs=0.01)
    assert ledger.self_s["inner"] == pytest.approx(0.02, abs=0.01)
    assert layers.closure_error_s(ledger.snapshot()) < 1e-9
    assert ledger.root_s == pytest.approx(wall_s, abs=1e-3)


def test_ledger_closes_on_shrunk_conductor_sweep():
    caps = (20.0, 40.0, 60.0)
    spec = shrunk_spec("lulesh", ("static", "conductor", "lp"), caps, seed=101)
    ledger, m, wall_s = traced_sweep(spec, workers=1)
    snap = ledger.snapshot()
    # Layer self times plus `other` are the traced wall time.
    assert layers.closure_error_s(snap) < 1e-6
    assert snap["root_s"] == pytest.approx(wall_s, rel=0.01, abs=1e-3)
    assert all(s >= 0 for s in snap["self_s"].values())
    # Engine.run -> ConductorPolicy.configure -> FrontierStore.profile all
    # ran, nested, and each call was counted once.
    for span in ("simulator.replay", "runtime.policy", "machine.frontier"):
        assert m[f"{span}.calls"] > 0 and m[f"{span}.self_s"] > 0
    schedulable = len([c for c in caps if c >= 40.0])
    assert m["scenarios.cell.calls"] == len(caps)
    assert m["simulator.trace.calls"] == 1
    assert m["workloads.generate.calls"] == 2  # the run app and the LP app
    assert m["simulator.replay.calls"] == 2 * schedulable  # static, conductor
    assert m["core.solve.calls"] == schedulable
    assert m["core.assemble.calls"] == 2  # the IR, then the frozen LP
    assert m["machine.frontier.measured"] <= m["machine.frontier.calls"]
    assert m["core.solve.simplex_iters"] > 0
    assert m["exec.dispatch.tasks"] == 0 and m["exec.cache.misses"] == 0


def test_worker_ledgers_close_on_shrunk_pool_sweep(tmp_path):
    caps = tuple(20.0 + 0.5 * i for i in range(8))
    spec = shrunk_spec("synthetic", ("static", "lp"), caps, seed=102)
    ledger, m, wall_s = traced_sweep(
        spec, workers=2, cache=SolverCache(tmp_path / "cache"),
        journal=SweepJournal(tmp_path / "journal.jsonl"), keep_going=True,
        worker_dir=tmp_path / "workers",
    )
    workers = Ledger.read_workers(tmp_path / "workers")
    assert 1 <= len(workers) <= 2
    assert layers.closure_error_s(ledger.snapshot()) < 1e-6
    for snap in workers:
        assert layers.closure_error_s(snap) < 1e-6
    # Cells ran in the workers, each of which set up once.
    assert m["scenarios.cell.calls"] == len(caps)
    assert ledger.calls.get("scenarios.cell", 0) == 0
    assert m["simulator.trace.calls"] == len(workers)
    assert m["exec.dispatch.tasks"] == len(caps)
    assert m["exec.journal.calls"] == len(caps)
    assert m["exec.cache.misses"] == 2 * len(caps)  # the cell, then its LP
    assert m["exec.dispatch.worker_busy_s"] == pytest.approx(
        sum(w["root_s"] for w in workers)
    )
    assert m["scenarios.sweep.wall_s"] == pytest.approx(wall_s, rel=0.01, abs=1e-3)


def _counts_in_fresh_process() -> dict:
    spec = shrunk_spec("lulesh", ("static", "conductor", "lp"), (40.0, 60.0), seed=103)
    _, metrics, _ = traced_sweep(spec, workers=1)
    return {name: metrics[name] for name in layers.EXACT_COUNTS}


def test_counts_repeat_exactly_across_runs():
    runs = [
        json.loads(subprocess.run(
            [sys.executable, __file__], check=True, capture_output=True,
            text=True, timeout=120,
        ).stdout)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["machine.frontier.measured"] > 0
    assert runs[0]["core.solve.simplex_iters"] > 0


if __name__ == "__main__":
    print(json.dumps(_counts_in_fresh_process()))
