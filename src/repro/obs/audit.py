"""Solver audit ledger: one record per LP/MILP solve.

The LP bound is only as trustworthy as the solves behind it.  The audit
ledger records, for every :class:`~repro.core.solver.FrozenProgram`
solve, the model shape (rows, columns, nonzeros), the simplex iteration
count, termination status, objective, wall time, and *provenance* — a
cold first solve versus a parametric RHS re-solve.  Cache hits never
reach the solver; they are counted by the ``cache.hit`` metric.

A :class:`SolveAudit` is the ``audit`` sink of an
:class:`~repro.obs.observer.Observer`; workers ship it home inside the
observer's snapshot (:meth:`SolveAudit.to_dicts` /
:meth:`SolveAudit.extend`).

Stdlib-only: ``repro.core.solver`` imports this module, so it must not
import anything from ``repro`` or third-party packages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "SolveRecord",
    "SolveAudit",
    "use_audit",
]


@dataclass(frozen=True)
class SolveRecord:
    """Everything worth knowing about one solver invocation."""

    program: str
    backend: str  # "highs-direct" | "linprog" | "milp"
    source: str  # "cold" | "resolve"
    rows: int
    cols: int
    nnz: int
    iterations: int | None
    status: str
    objective: float | None
    wall_s: float

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "backend": self.backend,
            "source": self.source,
            "rows": self.rows,
            "cols": self.cols,
            "nnz": self.nnz,
            "iterations": self.iterations,
            "status": self.status,
            "objective": self.objective,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SolveRecord":
        return cls(
            program=str(doc["program"]),
            backend=str(doc["backend"]),
            source=str(doc["source"]),
            rows=int(doc["rows"]),
            cols=int(doc["cols"]),
            nnz=int(doc["nnz"]),
            iterations=(
                int(doc["iterations"]) if doc.get("iterations") is not None else None
            ),
            status=str(doc["status"]),
            objective=(
                float(doc["objective"]) if doc.get("objective") is not None else None
            ),
            wall_s=float(doc["wall_s"]),
        )


class SolveAudit:
    """Ordered ledger of solve records."""

    def __init__(self) -> None:
        self.records: list[SolveRecord] = []

    # ------------------------------------------------------------------
    def record(self, record: SolveRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    # ------------------------------------------------------------------
    def to_dicts(self) -> dict:
        """JSON-safe snapshot (embedded in ``--timings-json`` payloads)."""
        return {"solves": [r.to_dict() for r in self.records]}

    def extend(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dicts` snapshot (e.g. from a worker) in."""
        for doc in snapshot.get("solves", []):
            self.records.append(SolveRecord.from_dict(doc))

    def table(self) -> str:
        """Human-readable audit table (the ``repro-exp audit`` output)."""
        lines = ["solver audit", "------------"]
        if not self.records:
            lines.append("(no solves recorded)")
        else:
            header = (
                f"{'program':<28} {'src':<7} {'backend':<12} "
                f"{'rows':>7} {'cols':>7} {'nnz':>9} {'iters':>6} "
                f"{'status':<10} {'objective':>12} {'wall':>9}"
            )
            lines.append(header)
            for r in self.records:
                iters = "-" if r.iterations is None else str(r.iterations)
                obj = "-" if r.objective is None else f"{r.objective:.6g}"
                lines.append(
                    f"{r.program:<28.28} {r.source:<7} {r.backend:<12} "
                    f"{r.rows:>7} {r.cols:>7} {r.nnz:>9} {iters:>6} "
                    f"{r.status:<10} {obj:>12} {r.wall_s:>8.3f}s"
                )
            lines.append(
                f"{len(self.records)} solve(s), "
                f"{self.total_wall_s():.3f}s in the solver"
            )
        return "\n".join(lines)


def use_audit(audit: SolveAudit):
    """Add ``audit`` to the active observer for a with-block.

    The observer's other sinks stay as they are; pool workers ship their
    solve records back into ``audit`` like any other sink's data.
    """
    from .observer import current_observer, use_observer

    return use_observer(replace(current_observer(), audit=audit))
