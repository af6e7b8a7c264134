#!/usr/bin/env python3
"""Perf-trajectory points: schema-versioned benchmark snapshots over time.

Where ``check_regression.py`` answers "did this run regress against the
committed baseline?", this harness records *where on the performance
trajectory* each commit sits.  ``emit`` turns a pytest-benchmark JSON
into a ``BENCH_<date>_<sha>.json`` point carrying:

* the raw per-benchmark wall times (pytest-benchmark-compatible
  ``benchmarks`` list, so ``check_regression.py`` reads a point too);
* machine-speed-calibrated times (divided by the trace-construction
  probe's fresh/baseline ratio, so points from different machines are
  comparable);
* the geometric-mean speedup over ``benchmarks/baseline.json``;
* a machine fingerprint and the emitting commit.

``check`` gates a fresh run against the *best historical point* (highest
calibrated geomean speedup) in ``benchmarks/trajectory/`` — the
trajectory may plateau but must not slide back.  CI emits a point per
push to main and appends it to the history; local points land at the
repo root (gitignored).

Stdlib-only so the gate runs anywhere the tests do.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

TRAJECTORY_SCHEMA_VERSION = 1
POINT_KIND = "perf_trajectory_point"

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_BASELINE = BENCH_DIR / "baseline.json"
HISTORY_DIR = BENCH_DIR / "trajectory"

#: Substring of the benchmark used as the machine-speed probe: a fixed
#: pure-Python + numpy kernel that imports nothing from ``repro``
#: (``test_bench_calibration.py``), so its fresh/baseline ratio measures
#: how much faster or slower this machine is than the one that recorded
#: the baseline, and no program change can rescale it.
CALIBRATION_PROBE = "test_machine_speed_probe"

_POINT_NAME = re.compile(r"^BENCH_(\d{8})_([0-9a-f]{7,40})\.json$")


# ----------------------------------------------------------------------
# Point construction.

def load_times(doc: dict) -> dict[str, float]:
    """Map benchmark fullname -> representative seconds (median, else mean)."""
    times: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        stats = bench.get("stats", {})
        value = stats.get("median", stats.get("mean"))
        if value is not None:
            times[bench["fullname"]] = float(value)
    return times


def machine_fingerprint() -> dict:
    """Where this point was measured (coarse, stable identifiers only)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def git_sha() -> str:
    """The current short commit hash, or 'unknown' outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def calibration_scale(
    fresh: dict[str, float], baseline: dict[str, float], probe: str
) -> float | None:
    """fresh/baseline machine-speed ratio from the probe benchmarks.

    None when the probe is absent from either side (times stay raw).
    """
    probes = [n for n in baseline if probe in n and n in fresh]
    if not probes:
        return None
    return sum(fresh[n] / baseline[n] for n in probes) / len(probes)


def build_point(
    fresh_doc: dict,
    baseline_doc: dict,
    sha: str,
    date: str,
    probe: str = CALIBRATION_PROBE,
) -> dict:
    """One trajectory point from a pytest-benchmark run + the baseline."""
    fresh = load_times(fresh_doc)
    if not fresh:
        raise ValueError("fresh run contains no benchmarks")
    baseline = load_times(baseline_doc)
    scale = calibration_scale(fresh, baseline, probe)
    calibrated = {
        name: t / (scale if scale is not None else 1.0)
        for name, t in fresh.items()
    }
    shared = [
        n for n in sorted(set(baseline) & set(fresh)) if probe not in n
    ]
    speedup = (
        _geomean([baseline[n] / calibrated[n] for n in shared])
        if shared else None
    )
    return {
        "schema": TRAJECTORY_SCHEMA_VERSION,
        "kind": POINT_KIND,
        "date": date,
        "sha": sha,
        "machine": machine_fingerprint(),
        "calibration": {"probe": probe, "scale": scale},
        "geomean_speedup_vs_baseline": speedup,
        "times": calibrated,
        "benchmarks": [
            {"fullname": name, "stats": {"median": t, "mean": t}}
            for name, t in sorted(fresh.items())
        ],
    }


def validate_point(doc: object) -> list[str]:
    """Schema errors of one trajectory point ([] = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["point is not a JSON object"]
    if doc.get("schema") != TRAJECTORY_SCHEMA_VERSION:
        errors.append(
            f"schema must be {TRAJECTORY_SCHEMA_VERSION}, "
            f"got {doc.get('schema')!r}"
        )
    if doc.get("kind") != POINT_KIND:
        errors.append(f"kind must be {POINT_KIND!r}, got {doc.get('kind')!r}")
    for field, typ in (
        ("date", str), ("sha", str), ("machine", dict),
        ("calibration", dict), ("times", dict), ("benchmarks", list),
    ):
        if not isinstance(doc.get(field), typ):
            errors.append(f"{field} must be a {typ.__name__}")
    speedup = doc.get("geomean_speedup_vs_baseline")
    if speedup is not None and not isinstance(speedup, (int, float)):
        errors.append("geomean_speedup_vs_baseline must be a number or null")
    times = doc.get("times")
    if isinstance(times, dict):
        bad = [
            n for n, t in times.items()
            if not isinstance(t, (int, float)) or t <= 0
        ]
        if bad:
            errors.append(f"non-positive or non-numeric times: {sorted(bad)}")
    if isinstance(doc.get("benchmarks"), list):
        for i, bench in enumerate(doc["benchmarks"]):
            if not isinstance(bench, dict) or "fullname" not in bench \
                    or "stats" not in bench:
                errors.append(f"benchmarks[{i}] needs fullname + stats")
                break
    return errors


def point_filename(point: dict) -> str:
    return f"BENCH_{point['date']}_{point['sha']}.json"


def write_point(point: dict, out_dir: Path) -> Path:
    errors = validate_point(point)
    if errors:
        raise ValueError(f"refusing to write invalid point: {errors}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / point_filename(point)
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# History + gate.

def load_history(dirs: list[Path]) -> list[dict]:
    """All valid trajectory points under ``dirs``, sorted by (date, sha)."""
    points = []
    for d in dirs:
        if not d.is_dir():
            continue
        for path in sorted(d.iterdir()):
            if not _POINT_NAME.match(path.name):
                continue
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                print(f"warning: unreadable trajectory point {path}")
                continue
            if validate_point(doc):
                print(f"warning: invalid trajectory point {path} (skipped)")
                continue
            points.append(doc)
    points.sort(key=lambda p: (p["date"], p["sha"]))
    return points


def best_point(points: list[dict]) -> dict | None:
    """The historical point with the highest calibrated geomean speedup."""
    scored = [
        p for p in points if p.get("geomean_speedup_vs_baseline") is not None
    ]
    if not scored:
        return None
    return max(scored, key=lambda p: p["geomean_speedup_vs_baseline"])


def check_point(point: dict, history: list[dict], threshold_pct: float) -> int:
    """Gate ``point`` against the best historical point (0 = pass).

    The trajectory may plateau but must not slide back: the fresh
    calibrated geomean speedup must stay within ``threshold_pct`` of the
    best the history has recorded.  Prints a per-benchmark diff table
    against the best point so a trip is diagnosable from the log alone.
    """
    best = best_point(history)
    if best is None:
        print("no historical trajectory points: first point always passes")
        return 0
    fresh_speedup = point.get("geomean_speedup_vs_baseline")
    best_speedup = best["geomean_speedup_vs_baseline"]
    print(
        f"best historical point: {point_filename(best)} "
        f"(geomean speedup {best_speedup:.3f}x vs baseline)"
    )
    shared = sorted(set(best.get("times", {})) & set(point.get("times", {})))
    if shared:
        width = max(len(n) for n in shared)
        print(f"{'benchmark':<{width}}  {'best':>10}  {'fresh':>10}  {'delta':>8}")
        for name in shared:
            b, f = best["times"][name], point["times"][name]
            print(
                f"{name:<{width}}  {b:>9.4f}s  {f:>9.4f}s  "
                f"{(f / b - 1.0) * 100.0:>+7.1f}%"
            )
    if fresh_speedup is None:
        print("FAIL: fresh point has no geomean (no benchmarks shared "
              "with the baseline)")
        return 1
    floor = best_speedup * (1.0 - threshold_pct / 100.0)
    print(
        f"\nfresh geomean speedup {fresh_speedup:.3f}x "
        f"(gate: >= {floor:.3f}x, i.e. within {threshold_pct:.0f}% of best)"
    )
    if fresh_speedup < floor:
        print("FAIL: performance slid back from the best recorded point")
        return 1
    print("OK: trajectory holds")
    return 0


# ----------------------------------------------------------------------
def _load_point_or_run(path: Path, baseline: Path) -> dict:
    """A trajectory point from ``path``: either an emitted point file or
    a raw pytest-benchmark JSON (converted on the fly)."""
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and doc.get("kind") == POINT_KIND:
        errors = validate_point(doc)
        if errors:
            raise ValueError(f"{path} is not a valid point: {errors}")
        return doc
    return build_point(
        doc,
        json.loads(baseline.read_text()),
        sha=git_sha(),
        date=datetime.now(timezone.utc).strftime("%Y%m%d"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_emit = sub.add_parser("emit", help="write a BENCH_<date>_<sha>.json point")
    p_emit.add_argument("fresh", type=Path,
                        help="pytest-benchmark JSON from the current run")
    p_emit.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    p_emit.add_argument("--out-dir", type=Path, default=REPO_ROOT,
                        help="where the point lands (default: repo root; "
                             "CI uses benchmarks/trajectory)")
    p_emit.add_argument("--sha", default=None,
                        help="override the emitting commit (default: HEAD)")
    p_emit.add_argument("--date", default=None,
                        help="override the point date, YYYYMMDD (default: today)")

    p_check = sub.add_parser(
        "check", help="gate a fresh run against the best historical point"
    )
    p_check.add_argument("fresh", type=Path,
                         help="pytest-benchmark JSON or an emitted point")
    p_check.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    p_check.add_argument("--history", type=Path, action="append", default=None,
                         help="trajectory directories "
                              "(default: benchmarks/trajectory)")
    p_check.add_argument("--threshold", type=float, default=25.0,
                         help="allowed geomean backslide in percent "
                              "(default 25)")

    p_val = sub.add_parser("validate", help="schema-check point files")
    p_val.add_argument("points", type=Path, nargs="+")

    args = parser.parse_args(argv)

    if args.command == "emit":
        fresh_doc = json.loads(args.fresh.read_text())
        point = build_point(
            fresh_doc,
            json.loads(args.baseline.read_text()),
            sha=args.sha or git_sha(),
            date=args.date
            or datetime.now(timezone.utc).strftime("%Y%m%d"),
        )
        path = write_point(point, args.out_dir)
        speedup = point["geomean_speedup_vs_baseline"]
        note = (
            f"geomean speedup {speedup:.3f}x vs baseline"
            if speedup is not None else "no baseline overlap"
        )
        print(f"trajectory point: {path} ({note})")
        return 0

    if args.command == "check":
        point = _load_point_or_run(args.fresh, args.baseline)
        dirs = args.history or [HISTORY_DIR]
        return check_point(point, load_history(dirs), args.threshold)

    rc = 0
    for path in args.points:
        try:
            errors = validate_point(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            errors = [str(exc)]
        if errors:
            rc = 1
            for err in errors:
                print(f"{path}: {err}", file=sys.stderr)
            print(f"{path}: INVALID ({len(errors)} error(s))")
        else:
            print(f"{path}: OK")
    return rc


if __name__ == "__main__":
    sys.exit(main())
