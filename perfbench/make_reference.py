"""Regenerate reference.json: every workload's cell times at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's results; the
reference check in ``run.py`` exists to catch every other change to them.
"""

from __future__ import annotations

import json
import shutil

from run import HERE, ROOT, fmt_time, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    scratch = ROOT / ".perfbench-tmp" / "reference"
    reference = {}
    try:
        for name in WORKLOADS:
            doc = run_child(name, DEFAULT_SEED, False, scratch)
            reference[name] = [
                [cell["cap"], {k: fmt_time(v) for k, v in cell["time_s"].items()}]
                for cell in doc["cells"]
            ]
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)
    lines = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"    {json.dumps(cell)}" for cell in cells)
        + "\n  ]"
        for name, cells in reference.items()
    )
    (HERE / "reference.json").write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main()
