"""Vacuity self-test: shows that the benchmark's checks can fail.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* a run against a reference with one wrong render digest, one wrong
  per-cell rows digest, or one wrong explorer count exits 1 and prints
  ``"correct": false``, while the unchanged references pass;
* the specimen campaign (eager consensus, unsafe by design) gives a
  failed-cell fraction above 0 under the same ``failed_cells`` count
  the benchmark reports;
* ``BENCHMARK.json`` names exactly the workloads that ``workloads.py``
  defines and the per-layer metrics that ``run.py`` emits, and
  ``layers.json`` maps exactly the metrics ``BENCHMARK.json`` names.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, SRC, WORK, WORKLOADS, Outcome, failed_cells, fresh_repro,
)

SEED = 0


def run_bench(workload: str, references: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", "0",
            "--references", str(references),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def tampered(references: dict, key: str, field: str | None = None) -> dict:
    data = copy.deepcopy(references)
    entry = data["seeds"][str(SEED)]
    if field is None:
        entry[key] = "0" * len(entry[key])
    else:
        entry[key][field] += 1
    return data


def main() -> int:
    failures = []
    references_path = HERE / "references.json"
    references = json.loads(references_path.read_text())
    scratch = WORK / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)

    cases = [
        ("check-renaming", "unchanged references", references, True),
        ("campaign-compiled", "wrong render digest",
         tampered(references, "campaign_digest"), False),
        ("campaign-compiled", "wrong rows digest",
         tampered(references, "campaign_rows_digest"), False),
        ("check-renaming", "wrong explored count",
         tampered(references, "check_counts", "explored"), False),
    ]
    for i, (workload, label, data, should_pass) in enumerate(cases):
        path = scratch / f"references-{i}.json"
        path.write_text(json.dumps(data))
        code, result = run_bench(workload, path)
        passed = code == 0 and result.get("correct") is True
        failed = code == 1 and result.get("correct") is False
        ok = passed if should_pass else failed
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {label} -> exit {code}, "
              f"correct={result.get('correct')}")
        if not ok:
            failures.append(label)

    sys.path.insert(0, str(SRC))
    chaos = fresh_repro("repro.chaos")["repro.chaos"]
    report = chaos.run_campaign(chaos.specimen_campaign(seed=SEED), kernel="compiled")
    fail_frac = failed_cells(report) / len(report.records)
    ok = fail_frac > 0
    print(f"{'ok  ' if ok else 'FAIL'} specimen campaign: fail_frac = "
          f"{failed_cells(report)}/{len(report.records)}")
    if not ok:
        failures.append("specimen fail_frac")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())

    def names(key: str) -> set:
        return {entry["name"] for entry in bench[key]}

    emitted = set(
        layer_metrics(Tracer(), Outcome(1, 0, 1, [], {"attempts_per_cell": 1}), 1, 0)
    ) | {"trace_overhead_frac"}
    consistent = (
        names("workloads") == set(WORKLOADS)
        and names("per_layer") == emitted
        and set(layers) == names("end_to_end") | names("per_layer")
    )
    print(f"{'ok  ' if consistent else 'FAIL'} BENCHMARK.json matches "
          "workloads.py, run.py and layers.json")
    if not consistent:
        failures.append("BENCHMARK.json consistency")

    if failures:
        print(f"self-test failed: {', '.join(failures)}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
