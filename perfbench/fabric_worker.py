"""Traced fabric worker: ``python -m repro worker`` with the benchmark's
layer wrappers installed, writing its counters to a file on exit.

Usage (from the repository root)::

    python3 perfbench/fabric_worker.py OUT.json --connect HOST:PORT [...]

Every argument after ``OUT.json`` is passed to ``repro worker``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out, worker_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["worker", *worker_args])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
