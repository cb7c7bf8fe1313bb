"""Compiled-coverage report: which declared automata compile, which
are reached only as inlined subroutines, and which still fall back.

``repro kernel --coverage`` renders the per-automaton table;
``--coverage --check`` compares it against the committed manifest
(:data:`MANIFEST`, ``KERNEL_COVERAGE.json`` at the repo root) and fails
if the compiled set *shrank* — an automaton that used to compile (or
inline) now falls back — or if the manifest was written by another
compiler version (:data:`~repro.kernel.compiler.COMPILER_TAG`).  New
automata may appear freely; refresh the manifest with ``--coverage
--write`` after deliberate compiler changes.

Statuses:

* ``compiled`` — the automaton itself lowers to a flat step program;
* ``inlined`` — not independently compilable (e.g. a multi-argument
  subroutine, which is not an automaton factory), but statically
  inlined into at least one compiled caller via ``yield from`` — it
  never runs on the interpreter either;
* ``fallback`` — executes on the interpreter fallback path.

The manifest records only names and statuses (no content hashes —
those churn with every codegen tweak and would make the check
meaningless noise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .compiler import COMPILER_TAG, UnsupportedAutomaton

__all__ = [
    "MANIFEST",
    "CoverageRow",
    "coverage_rows",
    "render_coverage",
    "check_manifest",
    "write_manifest",
]

#: Repo-root manifest file name committed next to ``pyproject.toml``.
MANIFEST = "KERNEL_COVERAGE.json"

_RANK = {"compiled": 2, "inlined": 1, "fallback": 0}


@dataclass(frozen=True)
class CoverageRow:
    name: str  # "module.automaton" from LINT_SCHEMAS
    status: str  # "compiled" | "inlined" | "fallback"
    detail: str  # sites / inliners / fallback reason


def coverage_rows() -> list[CoverageRow]:
    """One row per declared schema automaton, cache warmed first."""
    from . import cached_programs, iter_schema_programs, warm_cache

    warm_cache()
    inlined_into: dict[str, list[str]] = {}
    for program in cached_programs():
        root = program.qualname.split(".<locals>.")[0]
        caller = f"{program.module.rsplit('.', 1)[-1]}.{root}"
        for sub in program.inlined:
            inlined_into.setdefault(sub, []).append(caller)

    rows: list[CoverageRow] = []
    for module, name, program in iter_schema_programs():
        full = f"repro.algorithms.{module}.{name}"
        if not isinstance(program, UnsupportedAutomaton):
            detail = f"{program.n_sites} sites"
            if program.inlined:
                short = sorted(
                    sub.rsplit(".", 1)[-1] for sub in program.inlined
                )
                detail += f", inlines {', '.join(short)}"
            rows.append(CoverageRow(f"{module}.{name}", "compiled", detail))
            continue
        callers = sorted(
            set(
                caller
                for sub, by in inlined_into.items()
                if sub == full or sub.endswith(f".{name}")
                for caller in by
            )
        )
        if callers:
            rows.append(
                CoverageRow(
                    f"{module}.{name}",
                    "inlined",
                    f"into {', '.join(callers)}",
                )
            )
        else:
            rows.append(
                CoverageRow(f"{module}.{name}", "fallback", str(program))
            )
    return rows


def render_coverage(rows: list[CoverageRow]) -> str:
    width = max(len(row.name) for row in rows) + 2
    lines = [
        f"{row.name:{width}} {row.status:9} {row.detail}" for row in rows
    ]
    counts = {status: 0 for status in _RANK}
    for row in rows:
        counts[row.status] += 1
    lines.append(
        f"-- {counts['compiled']} compiled, {counts['inlined']} inlined, "
        f"{counts['fallback']} fallback (compiler {COMPILER_TAG})"
    )
    return "\n".join(lines)


def _manifest_path(root: str | Path | None = None) -> Path:
    if root is not None:
        return Path(root) / MANIFEST
    # The repo root: three levels above src/repro/kernel/coverage.py.
    return Path(__file__).resolve().parents[3] / MANIFEST


def write_manifest(
    rows: list[CoverageRow], root: str | Path | None = None
) -> Path:
    path = _manifest_path(root)
    payload = {
        "compiler": COMPILER_TAG,
        "automata": {row.name: row.status for row in rows},
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def check_manifest(
    rows: list[CoverageRow], root: str | Path | None = None
) -> list[str]:
    """Compare ``rows`` against the committed manifest; return problem
    strings for a manifest recorded by another compiler version and for
    every automaton whose coverage *regressed* (compiled or inlined
    before, worse now, or vanished entirely).  New automata and
    upgrades pass; refresh the manifest with ``--coverage --write``."""
    path = _manifest_path(root)
    if not path.exists():
        return [f"coverage manifest missing: {path}"]
    manifest = json.loads(path.read_text(encoding="utf-8"))
    recorded = manifest["automata"]
    current = {row.name: row.status for row in rows}
    problems: list[str] = []
    if manifest.get("compiler") != COMPILER_TAG:
        problems.append(
            f"{MANIFEST} records compiler {manifest.get('compiler')!r} "
            f"but the compiler is {COMPILER_TAG!r} (refresh it with "
            "`repro kernel --coverage --write`)"
        )
    for name, status in sorted(recorded.items()):
        now = current.get(name)
        if now is None:
            problems.append(
                f"{name}: recorded {status!r} but no longer declared "
                f"(schema removed? update {MANIFEST})"
            )
        elif _RANK[now] < _RANK[status]:
            problems.append(
                f"{name}: coverage regressed {status!r} -> {now!r}"
            )
    return problems
