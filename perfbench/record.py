"""Record the reference outputs the benchmark checks every run against.

Run from the repository root::

    python3 perfbench/record.py

For each of the ``SEEDS`` campaign seeds it runs the campaign cells
with the reference semantics — the serial interpreter — and the
renaming check, and writes ``references.json``: the report's render
digest, the cell count, and the explorer's node counts.  The benchmark maps ``--seed n`` to
campaign seed ``n % SEEDS``.

Re-record only when a change is meant to alter outputs (a new campaign
definition, a changed algorithm); a performance change must leave every
recorded value as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SRC,
    RenamingCheck,
    campaign_spec,
    check_inputs,
    failed_cells,
    fresh_repro,
    report_digest,
    rows_digest,
)

#: Campaign seeds recorded; the benchmark maps ``--seed n`` to ``n % SEEDS``.
SEEDS = 10


def reference_entry(seed: int) -> dict[str, Any]:
    """Reference outputs for ``seed``: the campaign through the serial
    interpreter (the reference semantics), and the renaming check."""
    repro = fresh_repro("repro.chaos")
    spec = campaign_spec(repro["repro.chaos"], seed)
    report = repro["repro.chaos"].run_campaign(spec)
    check = RenamingCheck(seed, {})
    state = check.setup(None)
    explored = check.run(state)
    return {
        "campaign_digest": report_digest(report),
        "campaign_rows_digest": rows_digest(report),
        "campaign_cells": len(report.records),
        "campaign_failed": failed_cells(report),
        "check_inputs": list(check_inputs(seed)),
        "check_ok": explored.ok,
        "check_counts": {
            "explored": explored.explored,
            "por_pruned": explored.por_pruned,
            "deduplicated": explored.deduplicated,
        },
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    seeds = {}
    for seed in range(SEEDS):
        seeds[str(seed)] = entry = reference_entry(seed)
        if entry["campaign_failed"] or not entry["check_ok"]:
            print(f"seed {seed}: reference outputs fail: {entry}", file=sys.stderr)
            return 1
        print(f"seed {seed}: {entry['campaign_digest'][:16]} "
              f"{entry['check_counts']}", flush=True)
    (HERE / "references.json").write_text(
        json.dumps({"seeds": seeds}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
