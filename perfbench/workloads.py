"""The benchmark's workloads: closed, single-client cap sweeps.

Each workload is one ``run_scenarios`` call (the call ``repro-exp sweep``
makes) at a fixed input size.  ``--seed`` becomes the application seed of
the scenario (``ScenarioSpec.seed``, which drives the workload
generators); the machine's manufacturing-variability seed stays at the
scenario default, so the simulated machine is the same in every run.

The default seed, 2015, is the scenario default: at that seed
``lulesh-conductor`` is exactly the baseline sweep the ROADMAP measures.

This module imports nothing from ``repro`` so ``run.py`` can list and
validate workloads without importing the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 2015


@dataclass(frozen=True)
class Workload:
    """One named sweep: the scenario document plus how it is executed."""

    name: str
    why: str
    benchmark: str
    n_ranks: int
    policies: tuple[str, ...]
    caps: tuple[float, ...]
    workers: int = 1
    #: Fresh SolverCache + SweepJournal per sweep, keep_going on.
    cache_and_journal: bool = False

    def cpus(self) -> list[int]:
        """The CPUs a sweep is pinned to, one per worker process.

        The CPUs of a shared host can run at different speeds at the same
        time, so a serial sweep stays on one known CPU, and the probe that
        scales its times (``probe.sample``) is timed on the same CPUs.
        """
        return sorted(os.sched_getaffinity(0))[: self.workers]

    def spec_doc(self, seed: int) -> dict:
        """The ``ScenarioSpec.from_doc`` document for one seed."""
        return {
            "benchmark": self.benchmark,
            "caps_per_socket_w": list(self.caps),
            "policies": [{"policy": p} for p in self.policies],
            "n_ranks": self.n_ranks,
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lulesh-conductor",
            why=(
                "ROADMAP baseline sweep and the only workload running "
                "Conductor: frontier measurement, the scalar replay and "
                "repeated LP re-solves"
            ),
            benchmark="lulesh",
            n_ranks=32,
            policies=("static", "conductor", "lp"),
            caps=(30.0, 40.0, 50.0, 60.0, 70.0, 80.0),
        ),
        Workload(
            name="comd-bound-dense",
            why=(
                "dense cap grid where the LP re-solves move; Static's RAPL "
                "planning and the plan-path replay, with little frontier "
                "work"
            ),
            benchmark="comd",
            n_ranks=32,
            policies=("static", "lp"),
            caps=tuple(30.0 + 2.5 * i for i in range(21)),
        ),
        Workload(
            name="synthetic-pool-journal",
            why=(
                "120 cheap cells on 2 process workers with a fresh cache "
                "and journal: dispatch, per-worker set-up, cache writes, "
                "fsynced journal records and tiny LPs"
            ),
            benchmark="synthetic",
            n_ranks=8,
            policies=("static", "lp"),
            caps=tuple(20.0 + 0.5 * i for i in range(120)),
            workers=2,
            cache_and_journal=True,
        ),
    )
}
