"""One cold sweep of one workload, in the fresh process that runs this file.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --tmp DIR

Imports the program from ``src/`` of the checkout this file sits in,
runs the workload's ``run_scenarios`` call once, and prints one JSON line:
timings, resource use, every cell's per-policy ``time_s`` and, with
``--trace 1``, the layer ledger of the parent and of every pool worker.
Scratch files (the workload's cache and journal, worker ledgers) go
under ``--tmp``, which ``run.py`` removes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from ledger import Ledger
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    # Pool workers inherit the pinning.
    os.sched_setaffinity(0, workload.cpus())

    t0 = time.perf_counter()
    from repro.exec.cache import SolverCache
    from repro.exec.checkpoint import SweepJournal
    from repro.obs.audit import SolveAudit, use_audit
    from repro.scenarios import run as run_mod
    from repro.scenarios.spec import ScenarioSpec

    import_s = time.perf_counter() - t0

    import layers

    ledger = Ledger(worker_dir=args.tmp / "workers" if args.trace else None)
    if args.trace:
        layers.install_layers(ledger)
    else:
        layers.install_setup_clock(ledger)

    spec = ScenarioSpec.from_doc(workload.spec_doc(args.seed))
    kwargs: dict = {"workers": workload.workers}
    if workload.cache_and_journal:
        kwargs.update(
            cache=SolverCache(args.tmp / "cache"),
            journal=SweepJournal(args.tmp / "journal.jsonl"),
            keep_going=True,
        )
    audit = SolveAudit()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    with use_audit(audit) if args.trace else nullcontext():
        result = run_mod.run_scenarios(spec, **kwargs)
    sweep_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    doc = {
        "import_s": import_s,
        "sweep_s": sweep_s,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux; children: the largest reaped one.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "kinds": {
            name: outcome.kind
            for name, outcome in result.cells[0].outcomes.items()
        },
        "cells": [
            {
                "cap": cell.cap_per_socket_w,
                "schedulable": cell.schedulable,
                "failed": cell.failed,
                "time_s": {
                    name: None if o.time_s is None else float(o.time_s)
                    for name, o in cell.outcomes.items()
                },
            }
            for cell in result.cells
        ],
    }
    if args.trace:
        doc["ledger"] = {
            "parent": ledger.snapshot(),
            "workers": Ledger.read_workers(args.tmp / "workers"),
            "simplex_iters": sum(r.iterations or 0 for r in audit.records),
        }
    else:
        doc["setup_s"] = import_s + ledger.self_s.get("setup", 0.0)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
