"""Cap-sweep benchmark runner: one workload, one seed, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lulesh-conductor --seed 2015 \\
        --seconds 56 --trace 0

Every repetition is one cold ``run_scenarios`` sweep in a fresh process
(``child.py``) pinned to the workload's CPUs.  Repetitions run back to
back while the next one is expected to end within ``--seconds``; each
metric is the median over them.  A one-second machine-speed sample
(``probe.sample``, on the same CPUs) precedes every sweep and follows the
last, and each sweep's times are scaled by ``probe.REFERENCE_S`` over the
mean of the samples on either side of it.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates traced and untraced sweeps
and reports the per-layer ledger.
See README.md in this directory for the workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The outputs are
checked on every run: repetitions must agree exactly, every computed
cell must give every policy a positive finite time, traced sweeps must
agree with untraced ones, and at the default seed every cell's time must
match ``reference.json`` at the printed precision.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# One thread per process for the numeric libraries, in this process (the
# probe) and in every sweep, which inherits it: a sweep's process and its
# two pool workers already fill a two-CPU machine.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import layers  # noqa: E402
import probe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Significant digits at which cell times are printed and compared.
TIME_DIGITS = 10
#: Wall-clock limit of one repetition.
REP_TIMEOUT_S = 120.0
#: Largest tolerated gap between a process's self times and its root
#: spans: floating-point rounding only.
CLOSURE_TOL_S = 1e-6

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics that are scaled to the reference machine's speed.
CALIBRATED = ("sweep_s", "setup_s", "cpu_s")


def fmt_time(value: float | None) -> str | None:
    return None if value is None else f"{value:.{TIME_DIGITS}g}"


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, trace: bool, tmp: Path) -> dict:
    """One sweep in a fresh process group; its JSON document."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--tmp", str(tmp),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise RuntimeError(f"sweep exceeded {REP_TIMEOUT_S:g} s") from None
    except BaseException:
        stop_group(proc)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill a sweep and its pool workers (they share its process group)."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def warm_imports() -> None:
    """Import the program once, untimed, so bytecode and file caches are
    warm before the first timed import."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import repro.scenarios.run"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=REP_TIMEOUT_S)


def repeat(kinds: list[bool], seconds: float, sweep) -> dict[bool, list[dict]]:
    """Run sweeps cycling through ``kinds`` (traced or not) while the next
    one is expected to end within ``seconds``; one full cycle at least."""
    reps: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    last: dict[bool, float] = {}
    start = time.monotonic()
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        if n >= len(kinds) and time.monotonic() - start + last[kind] > seconds:
            return reps
        t0 = time.monotonic()
        reps[kind].append(sweep(kind))
        last[kind] = time.monotonic() - t0
        n += 1


# ----------------------------------------------------------------------
def check(docs: list[dict], workload: str, seed: int) -> tuple[list[str], dict]:
    """Problems found in the sweeps' outputs, plus output statistics."""
    problems: list[str] = []
    first = docs[0]
    for doc in docs[1:]:
        if doc["cells"] != first["cells"]:
            problems.append("repeated sweeps disagree")
            break
    bound = [name for name, kind in first["kinds"].items() if kind == "bound"]
    runtimes = [name for name, kind in first["kinds"].items() if kind == "runtime"]
    failed = violations = 0
    for cell in first["cells"]:
        if cell["failed"]:
            failed += 1
            continue
        if not cell["schedulable"]:
            continue
        times = cell["time_s"]
        for name, value in times.items():
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"cap {cell['cap']:g}: {name} time is {value}")
        for lp in bound:
            for rt in runtimes:
                if None not in (times[lp], times[rt]) and times[lp] > times[rt]:
                    violations += 1
    stats = {
        "cells": len(first["cells"]),
        "failed": failed,
        "bound_violations": violations,
        "reference": None,
    }
    if seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[workload]
        got = [
            [cell["cap"], {k: fmt_time(v) for k, v in cell["time_s"].items()}]
            for cell in first["cells"]
        ]
        stats["reference"] = "match" if got == reference else "mismatch"
        if got != reference:
            problems.append("cell times differ from reference.json")
    return problems, stats


def median(docs: list[dict], key: str) -> float:
    return statistics.median(doc[key] for doc in docs)


def calibrated(doc: dict, key: str) -> float:
    """A sweep's time at the reference machine's speed."""
    return doc[key] * probe.REFERENCE_S / doc["probe_s"]


def calibrated_median(docs: list[dict], key: str) -> float:
    return statistics.median(calibrated(doc, key) for doc in docs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # When this runner is terminated, run_child still stops its sweep.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    scratch = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
    counter = itertools.count()
    cpus = WORKLOADS[args.workload].cpus()
    # Machine-speed samples in time order: one before each sweep and one
    # after the last, so every sweep lies between two samples.
    samples: list[float] = []
    in_order: list[dict] = []

    def sweep(traced: bool) -> dict:
        tmp = scratch / f"rep-{next(counter)}"
        samples.append(probe.sample(cpus))
        doc = run_child(args.workload, args.seed, traced, tmp)
        in_order.append(doc)
        return doc

    try:
        warm_imports()
        kinds = [True, False] if args.trace else [False]
        reps = repeat(kinds, args.seconds - probe.SAMPLE_BUDGET_S, sweep)
        samples.append(probe.sample(cpus))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    untraced, traced = reps[False], reps.get(True, [])
    for doc, before, after in zip(in_order, samples, samples[1:]):
        doc["probe_s"] = (before + after) / 2.0

    problems, stats = check(untraced + traced, args.workload, args.seed)
    if any(
        layers.closure_error_s(snap) > CLOSURE_TOL_S
        for doc in traced
        for snap in (doc["ledger"]["parent"], *doc["ledger"]["workers"])
    ):
        problems.append("layer self times do not add up to wall time")
    n_reps = len(untraced) + len(traced)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sweeps={len(untraced)} untraced, {len(traced)} traced")
    print(f"probe_s {median(in_order, 'probe_s'):.4f} s (reference "
          f"{probe.REFERENCE_S:g}; samples {', '.join(f'{v:.4f}' for v in samples)})")
    if traced:
        metrics = {}
        per_rep = [
            layers.layer_metrics(
                doc["ledger"]["parent"], doc["ledger"]["workers"],
                doc["ledger"]["simplex_iters"],
            )
            for doc in traced
        ]
        for name in per_rep[0]:
            values = [m[name] for m in per_rep]
            exact = all(isinstance(v, int) for v in values)
            metrics[name] = (statistics.median_low if exact else statistics.median)(values)
        for name in layers.EXACT_COUNTS:
            if len({m[name] for m in per_rep}) > 1:
                problems.append(f"{name} differs between traced sweeps")
        metrics["trace_overhead_frac"] = (
            calibrated_median(traced, "sweep_s")
            / calibrated_median(untraced, "sweep_s") - 1.0
        )
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            name: (calibrated_median if name in CALIBRATED else median)(untraced, name)
            for name in END_TO_END_UNITS
        }
        units = dict(END_TO_END_UNITS)
        for name in END_TO_END_UNITS:
            values = ", ".join(f"{doc[name]:.4f}" for doc in untraced)
            scaled = " at reference speed" if name in CALIBRATED else ""
            print(f"{name} {metrics[name]:.4f} {units[name]}{scaled} "
                  f"(raw median {median(untraced, name):.4f} of {values})")
    attempted = stats["cells"] * n_reps
    failed = stats["failed"] * n_reps
    print(f"cells_failed_frac {failed / attempted:g} ratio ({failed}/{attempted})")
    print(f"bound_violations {stats['bound_violations']} count")
    if traced:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    for cell in untraced[0]["cells"]:
        times = " ".join(
            f"{name}={fmt_time(value)}" for name, value in cell["time_s"].items()
        )
        print(f"cell cap={cell['cap']:g} {times}")
    if stats["reference"] is not None:
        print(f"reference check: {stats['reference']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    # Outputs that fail a check report no metrics.
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if problems else {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
