"""Per-cell cProfile aggregation: where do sweep CPU seconds really go?

``--timings`` says which *phases* are hot; a profile says which
*functions* are.  This module runs :mod:`cProfile` around each sweep
cell and aggregates the per-cell (and per-worker) statistics into one
fleet-wide view:

* :func:`repro.obs.observer.profiled` — a contextmanager that profiles
  its block into the active observer's ``profile`` sink (a no-op, beyond
  one contextvar read, when there is none), used by the scenario
  executor around each cell computation;
* :class:`ProfileCollector` — accumulates per-function
  ``(calls, total, cumulative)`` seconds keyed by
  ``file:line(function)``; snapshots are plain JSON-safe dicts, so
  workers ship them back inside their observer snapshot and the parent
  merges them like every other sink;
* :meth:`ProfileCollector.table` — the run artifact: a top-N table
  sorted by cumulative seconds, the classic ``pstats`` view aggregated
  across every cell of the sweep.

Profiles are wall/CPU measurements — operational data in the sense of
:mod:`repro.obs.metrics` — so they are written as standalone artifacts
(``--profile FILE``) and never embedded in anything byte-deterministic.

Stdlib-only, like every ``repro.obs`` module.
"""

from __future__ import annotations

import cProfile
import pstats

__all__ = ["ProfileCollector"]


def _func_key(func: tuple) -> str:
    """A ``pstats`` function triple as one stable string key."""
    filename, lineno, name = func
    return f"{filename}:{lineno}({name})"


class ProfileCollector:
    """Aggregated per-function profile statistics across profiled blocks.

    ``stats`` maps ``file:line(function)`` to ``[ncalls, tottime_s,
    cumtime_s]``; ``blocks`` counts how many profiled blocks (sweep
    cells) contributed.  Merging is plain addition, so the aggregate
    over N workers equals the aggregate of one worker doing all N
    shares of the work.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.blocks = 0

    # ------------------------------------------------------------------
    def add_profile(self, profile: cProfile.Profile) -> None:
        """Fold one finished :class:`cProfile.Profile` in."""
        st = pstats.Stats(profile)
        self.blocks += 1
        for func, (cc, nc, tt, ct, _callers) in st.stats.items():
            key = _func_key(func)
            entry = self.stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += nc
            entry[1] += tt
            entry[2] += ct

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot (what workers ship back)."""
        return {
            "blocks": self.blocks,
            "stats": {
                key: [calls, tottime, cumtime]
                for key, (calls, tottime, cumtime) in sorted(self.stats.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) in."""
        self.blocks += int(snapshot.get("blocks", 0))
        for key, (calls, tottime, cumtime) in snapshot.get("stats", {}).items():
            entry = self.stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += int(calls)
            entry[1] += float(tottime)
            entry[2] += float(cumtime)

    # ------------------------------------------------------------------
    def top(self, n: int = 25) -> list[tuple[str, int, float, float]]:
        """The ``n`` hottest functions by cumulative seconds.

        Ties break by the function key, so the ordering — and the table
        built from it — is stable for identical profile data.
        """
        rows = [
            (key, calls, tottime, cumtime)
            for key, (calls, tottime, cumtime) in self.stats.items()
        ]
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows[:n]

    def table(self, n: int = 25) -> str:
        """The aggregated top-N cumulative-time table (the run artifact)."""
        lines = [
            f"aggregated profile: {self.blocks} profiled cell(s), "
            f"{len(self.stats)} function(s)",
            f"{'ncalls':>10} {'tottime':>10} {'cumtime':>10}  function",
        ]
        if not self.stats:
            lines.append("(no profile data recorded)")
            return "\n".join(lines)
        for key, calls, tottime, cumtime in self.top(n):
            lines.append(
                f"{calls:>10} {tottime:>10.4f} {cumtime:>10.4f}  {key}"
            )
        return "\n".join(lines)
