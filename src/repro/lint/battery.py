"""Traced reference runs: the dynamic evidence for ``--strict`` lint.

Each battery entry executes one bundled algorithm *inside the
concurrency envelope it is specified for* and keeps the full trace.
Two kinds of passes consume the battery:

* :class:`~repro.lint.passes.trace_races.TraceRaces` replays the
  race analyzer over the entries marked ``race_check`` (the historical
  strict battery — outside their envelopes these algorithms *do*
  exhibit hazards, and the tests demonstrate that).
* :class:`~repro.lint.passes.footprints.FootprintAudit` differentially
  checks every entry's op-log against the static footprints and
  against :func:`repro.runtime.ops.footprint` — the declaration the
  partial-order reduction in :mod:`repro.checker.independence` trusts.

The battery deliberately covers every Figure 1–4 algorithm family that
can run standalone, including ones with dynamic (spec-relative or
splitter-grid) register names, so the audit exercises both closed and
open static footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..algorithms.kset_concurrent import kset_concurrent_factories
from ..algorithms.kset_vector import kset_factories
from ..algorithms.one_concurrent import one_concurrent_factories
from ..algorithms.renaming_figure4 import figure4_factories
from ..algorithms.s_helper import helper_c_factory, helper_s_factory
from ..algorithms.splitters import moir_anderson_factories
from ..algorithms.wsb_concurrent import wsb_concurrent_factories
from ..core.run import RunResult
from ..core.system import System
from ..detectors import VectorOmegaK
from ..runtime import SeededRandomScheduler, execute, k_concurrent
from ..tasks import ConsensusTask

__all__ = ["BATTERY", "BatteryRecipe", "BatteryRun", "battery_runs"]


@dataclass(frozen=True)
class BatteryRecipe:
    """How to build one reference run.

    ``build`` constructs a fresh ``(system, scheduler)`` pair on every
    call (both are stateful).  ``automaton_of`` maps a pid *name*
    (``p1``/``q2`` …) to the ``(module, automaton)`` pair naming its
    schema declaration, so dynamic passes can tie trace events back to
    static IR; pids running null automata are simply absent.
    """

    label: str
    build: Callable[[], tuple[System, Any]]
    automaton_of: dict[str, tuple[str, str]]
    race_check: bool
    max_steps: int = 50_000


@dataclass
class BatteryRun:
    """One traced reference run (see :class:`BatteryRecipe`)."""

    label: str
    result: RunResult
    automaton_of: dict[str, tuple[str, str]]
    race_check: bool


def _pid_map(
    n_c: int,
    c_name: tuple[str, str] | None,
    n_s: int = 0,
    s_name: tuple[str, str] | None = None,
) -> dict[str, tuple[str, str]]:
    mapping: dict[str, tuple[str, str]] = {}
    if c_name is not None:
        for i in range(n_c):
            mapping[f"p{i + 1}"] = c_name
    if s_name is not None:
        for i in range(n_s):
            mapping[f"q{i + 1}"] = s_name
    return mapping


def _build_kset_vector() -> tuple[System, Any]:
    c_factories, s_factories = kset_factories(2, 1)
    return (
        System(
            inputs=(0, 1),
            c_factories=c_factories,
            s_factories=s_factories,
            detector=VectorOmegaK(2, 1),
            seed=3,
        ),
        SeededRandomScheduler(29),
    )


#: The battery, in execution (and reporting) order.
BATTERY: tuple[BatteryRecipe, ...] = (
    BatteryRecipe(
        "one_concurrent@1",
        lambda: (
            System(
                inputs=(0, 1, 1),
                c_factories=one_concurrent_factories(ConsensusTask(3)),
            ),
            k_concurrent(SeededRandomScheduler(7), 1),
        ),
        _pid_map(3, ("one_concurrent", "one_concurrent_factory")),
        race_check=True,
    ),
    BatteryRecipe(
        "kset_concurrent@1",
        lambda: (
            System(
                inputs=(3, 4, 5),
                c_factories=kset_concurrent_factories(3, 2),
            ),
            k_concurrent(SeededRandomScheduler(11), 1),
        ),
        _pid_map(3, ("kset_concurrent", "kset_concurrent_factory")),
        race_check=True,
    ),
    BatteryRecipe(
        "s_helper",
        lambda: (
            System(
                inputs=(6, 7, 8),
                c_factories=[helper_c_factory] * 3,
                s_factories=[helper_s_factory] * 3,
            ),
            SeededRandomScheduler(13),
        ),
        _pid_map(
            3,
            ("s_helper", "helper_c_factory"),
            3,
            ("s_helper", "helper_s_factory"),
        ),
        race_check=True,
    ),
    BatteryRecipe(
        "figure4",
        lambda: (
            System(inputs=(1, 2, None), c_factories=figure4_factories(3)),
            SeededRandomScheduler(17),
        ),
        _pid_map(3, ("renaming_figure4", "figure4_factory")),
        race_check=False,
    ),
    BatteryRecipe(
        "wsb@2",
        lambda: (
            System(
                inputs=(1, None, 3),
                c_factories=wsb_concurrent_factories(3, 2),
            ),
            k_concurrent(SeededRandomScheduler(19), 2),
        ),
        _pid_map(3, ("wsb_concurrent", "wsb_concurrent_factory")),
        race_check=False,
    ),
    BatteryRecipe(
        "moir_anderson",
        lambda: (
            System(
                inputs=(1, 2, 3, None, None),
                c_factories=moir_anderson_factories(5, 3),
            ),
            SeededRandomScheduler(23),
        ),
        _pid_map(5, ("splitters", "moir_anderson_factory")),
        race_check=False,
    ),
    BatteryRecipe(
        "kset_vector",
        _build_kset_vector,
        _pid_map(
            2,
            ("kset_vector", "kset_c_factory"),
            2,
            ("kset_vector", "kset_s_factory"),
        ),
        race_check=False,
        max_steps=200_000,
    ),
)


def battery_runs() -> tuple[BatteryRun, ...]:
    """Execute the battery (fresh runs; deterministic seeds)."""
    return tuple(
        BatteryRun(
            label=recipe.label,
            result=execute(
                *recipe.build(), trace=True, max_steps=recipe.max_steps
            ),
            automaton_of=recipe.automaton_of,
            race_check=recipe.race_check,
        )
        for recipe in BATTERY
    )
