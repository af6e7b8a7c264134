"""Post-hoc sweep reports: journal + manifest + metrics in, one text out.

The operator's question after a long (possibly fault-injected, possibly
resumed) sweep is "what actually happened?" — and the artifacts already
hold the answer: the :class:`~repro.exec.checkpoint.SweepJournal` has
every settled cell (with a ``wall_s`` diagnostic), the run manifest has
the spec and the structured failures, and the metrics snapshot has cache
traffic and solve totals.  :func:`render_sweep_report` fuses them into
one aligned-text report:

* sweep overview (cells ok/failed, spec hash, benchmark);
* per-policy time table with min/mean/max and an ASCII distribution of
  per-iteration times across the cap grid;
* cache statistics (hits/misses/stores, derived hit rate) and solve
  totals from the metrics snapshot;
* the failure table of a ``--keep-going`` run, in cap order;
* the slowest cells by journaled wall seconds.

Everything renders from *files* — no recomputation — so the ``repro-exp
report`` subcommand works on artifacts shipped from another machine.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exec.checkpoint import SweepJournal
from .report import render_kv, render_table

__all__ = [
    "load_journal_rows",
    "ascii_distribution",
    "render_sweep_report",
]

_BLOCKS = " .:-=+*#%@"


def load_journal_rows(path: str | Path) -> list[dict]:
    """Usable journal records in cap order (last record per cell wins)."""
    records = SweepJournal(path).load()
    return sorted(records.values(), key=lambda d: d.get("cap_per_socket_w", 0.0))


def ascii_distribution(values: list[float], bins: int = 12) -> str:
    """A one-line ASCII density sketch of ``values`` over their range.

    Each character is one equal-width bin between min and max, darkness
    proportional to the bin's share of observations — enough to spot a
    bimodal solve-time distribution in a CI log without a plot.
    """
    values = [v for v in values if v is not None]
    if not values:
        return "(no data)"
    lo, hi = min(values), max(values)
    if hi <= lo:
        return f"all {lo:g}"
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / (hi - lo) * bins))
        counts[idx] += 1
    peak = max(counts)
    sketch = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, (c * (len(_BLOCKS) - 1) + peak - 1) // peak)]
        if c else _BLOCKS[0]
        for c in counts
    )
    return f"{lo:.4g} |{sketch}| {hi:.4g}"


def _policy_rows(rows: list[dict]) -> tuple[list[str], dict[str, list]]:
    """Per-policy time series (cap order) from journaled-ok payloads."""
    labels: list[str] = []
    series: dict[str, list] = {}
    for doc in rows:
        if doc.get("status") != "ok":
            continue
        outcomes = (doc.get("payload") or {}).get("outcomes") or {}
        for label, outcome in outcomes.items():
            if label not in series:
                labels.append(label)
                series[label] = []
            series[label].append(outcome.get("time_s"))
    return labels, series


def render_sweep_report(
    journal_path: str | Path,
    manifest_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    top: int = 5,
) -> str:
    """The full post-hoc sweep report (see the module docstring)."""
    rows = load_journal_rows(journal_path)
    ok_rows = [d for d in rows if d.get("status") == "ok"]
    failed_rows = [d for d in rows if d.get("status") == "failed"]

    manifest = None
    if manifest_path is not None:
        manifest = json.loads(Path(manifest_path).read_text())
    metrics = None
    if metrics_path is not None:
        metrics = json.loads(Path(metrics_path).read_text())

    sections: list[str] = []

    # -- overview ------------------------------------------------------
    overview: dict = {
        "journal": str(journal_path),
        "cells settled": len(rows),
        "cells ok": len(ok_rows),
        "cells failed": len(failed_rows),
    }
    spec_hashes = sorted({
        d["spec_hash"][:12] for d in rows if isinstance(d.get("spec_hash"), str)
    })
    if spec_hashes:
        overview["spec hash"] = ", ".join(spec_hashes)
    if manifest is not None:
        scenario = manifest.get("scenario") or {}
        if scenario.get("benchmark"):
            overview["benchmark"] = scenario["benchmark"]
        if scenario.get("n_ranks"):
            overview["ranks"] = scenario["n_ranks"]
        overview["manifest schema"] = manifest.get("schema")
    sections.append(render_kv(overview, title="sweep report"))

    # -- per-policy times ----------------------------------------------
    labels, series = _policy_rows(rows)
    if labels:
        policy_table = []
        for label in labels:
            times = [t for t in series[label] if t is not None]
            policy_table.append([
                label,
                len(series[label]),
                min(times) if times else None,
                (sum(times) / len(times)) if times else None,
                max(times) if times else None,
                ascii_distribution(times),
            ])
        sections.append(render_table(
            ["policy", "cells", "min s/iter", "mean s/iter", "max s/iter",
             "distribution"],
            policy_table,
            title="per-policy time across the cap grid",
            digits=4,
        ))

    # -- cache + solve stats from the metrics snapshot -----------------
    if metrics is not None:
        counters = metrics.get("counters", {})
        hits = counters.get("cache.hit", 0)
        misses = counters.get("cache.miss", 0)
        lookups = hits + misses
        stats: dict = {
            "cache hits": hits,
            "cache misses": misses,
            "cache stores": counters.get("cache.store", 0),
            "cache hit rate": (
                f"{100.0 * hits / lookups:.1f}%" if lookups else "-"
            ),
            "solves": counters.get("solve.total", 0),
            "saturated answers": counters.get("solve.saturated", 0),
            "cells computed": counters.get("cells.computed", 0),
            "cells cached": counters.get("cells.cached", 0),
        }
        if counters.get("task.retry"):
            stats["task retries"] = counters["task.retry"]
        sections.append(render_kv(stats, title="cache and solver traffic"))

    # -- failures ------------------------------------------------------
    failures = [
        [
            doc.get("cap_per_socket_w"),
            (doc.get("failure") or {}).get("error_type"),
            (doc.get("failure") or {}).get("attempts"),
            (doc.get("failure") or {}).get("error_message"),
        ]
        for doc in failed_rows
    ]
    if not failures and manifest is not None:
        failures = [
            [f.get("cap_per_socket_w"), f.get("error_type"),
             f.get("attempts"), f.get("error_message")]
            for f in manifest.get("failures") or []
        ]
    if failures:
        sections.append(render_table(
            ["cap W/socket", "error", "attempts", "message"],
            failures,
            title="failed cells",
        ))

    # -- slowest cells -------------------------------------------------
    timed = [d for d in ok_rows if isinstance(d.get("wall_s"), (int, float))]
    if timed:
        timed.sort(key=lambda d: -d["wall_s"])
        sections.append(render_table(
            ["cap W/socket", "wall s"],
            [[d.get("cap_per_socket_w"), d["wall_s"]] for d in timed[:top]],
            title=f"slowest cells (top {min(top, len(timed))} by wall time)",
        ))

    return "\n\n".join(sections)
