"""Schedulers: who takes the next step.

The paper quantifies over all *fair* runs (every correct S-process takes
infinitely many steps; at least one C-process does).  A scheduler here
produces one admissible interleaving; the test suite sweeps over many —
round-robin, seeded-random, and adversarial schedules that starve chosen
victims for long bursts — because every safety property claimed by the
paper is universal over schedules.

A scheduler sees a :class:`SchedulerView` (the candidates it may pick
from plus progress bookkeeping) and returns one process id.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import NamedTuple, Sequence

from ..core.process import ProcessId
from ..errors import SchedulingError


class SchedulerView(NamedTuple):
    """What a scheduler may observe when choosing the next step.

    Immutable; built once per step by both kernels for every scheduler
    they do not inline, so it is a named tuple (positional construction
    is several times cheaper than a frozen dataclass's).  Narrowed views
    keep every field but ``candidates``.

    Attributes:
        time: current global time (equals the step index; the paper's
            ``T[k]`` is non-decreasing, and the identity works).
        candidates: process ids that are schedulable right now — live
            S-processes, plus participating C-processes that have not
            decided (and, under a concurrency gate, admitted ones).
        started: C-process indices that have taken at least one step.
        decided: C-process indices that have decided.
        participants: C-process indices with a non-bottom input.
    """

    time: int
    candidates: tuple[ProcessId, ...]
    started: frozenset[int]
    decided: frozenset[int]
    participants: frozenset[int]


class Scheduler(ABC):
    """Base class; subclasses implement :meth:`next`."""

    @abstractmethod
    def next(self, view: SchedulerView) -> ProcessId:
        """Pick one of ``view.candidates``."""

    @staticmethod
    def _require(view: SchedulerView) -> None:
        if not view.candidates:
            raise SchedulingError("no schedulable process")


class Narrowing:
    """Identity-keyed split of a candidates tuple by an excluded set.

    Calling it with ``(candidates, excluded)`` returns ``(kept,
    dropped)``: the candidates not in ``excluded`` as a tuple in
    candidate order, and the ones in it as a sorted list.  While neither
    argument object changes — the kernels reuse one candidates tuple
    until the candidate set changes, and wrappers keep one excluded set
    per window — it returns the *same* objects, so an inner scheduler's
    identity-keyed sort cache hits instead of re-sorting every step.  A
    fresh but equal argument simply misses, and the split depends only
    on content, so the cache can never change a pick.  Holding the key
    objects keeps their ids from being recycled.
    """

    __slots__ = ("_cands", "_excluded", "_kept", "_dropped")

    def __init__(self) -> None:
        self._cands: tuple[ProcessId, ...] | None = None
        self._excluded: frozenset | None = None
        self._kept: tuple[ProcessId, ...] = ()
        self._dropped: list[ProcessId] = []

    def __call__(
        self, candidates: tuple[ProcessId, ...], excluded: frozenset
    ) -> tuple[tuple[ProcessId, ...], list[ProcessId]]:
        if candidates is not self._cands or excluded is not self._excluded:
            self._cands = candidates
            self._excluded = excluded
            self._kept = tuple(c for c in candidates if c not in excluded)
            self._dropped = sorted(c for c in candidates if c in excluded)
        return self._kept, self._dropped


class RoundRobinScheduler(Scheduler):
    """Cycles through all processes in a fixed order, skipping the
    currently non-schedulable ones.  Maximally fair."""

    def __init__(self) -> None:
        self._cursor = 0
        self._last_cands: tuple[ProcessId, ...] | None = None
        self._last_sorted: list[ProcessId] = []

    def next(self, view: SchedulerView) -> ProcessId:
        self._require(view)
        # Identity-keyed sort cache: callers that reuse one candidates
        # tuple across steps (the compiled kernel's batched lanes) skip
        # the per-step re-sort; a fresh tuple always misses.  Holding
        # the key tuple keeps its id() from being recycled.
        cands = view.candidates
        if cands is not self._last_cands:
            self._last_cands = cands
            self._last_sorted = sorted(cands)
        ordered = self._last_sorted
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice


class SeededRandomScheduler(Scheduler):
    """Uniformly random among candidates, reproducible via the seed."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._last_cands: tuple[ProcessId, ...] | None = None
        self._last_sorted: list[ProcessId] = []

    def next(self, view: SchedulerView) -> ProcessId:
        self._require(view)
        cands = view.candidates
        if cands is not self._last_cands:  # identity cache, as above
            self._last_cands = cands
            self._last_sorted = sorted(cands)
        return self._rng.choice(self._last_sorted)


class AdversarialScheduler(Scheduler):
    """Starves a victim set: victims get one step every ``period`` turns,
    everyone else round-robins in between.

    This is the classic "slow process" adversary; with a large period it
    approximates, in a finite run, processes that take only finitely many
    steps — exactly the situations wait-freedom must survive.
    """

    def __init__(self, victims: Sequence[ProcessId], period: int = 25) -> None:
        if period < 2:
            raise SchedulingError("period must be at least 2")
        self.victims = frozenset(victims)
        self.period = period
        self._turn = 0
        self._victim_cursor = 0
        self._fallback = RoundRobinScheduler()
        self._narrow = Narrowing()

    def next(self, view: SchedulerView) -> ProcessId:
        self._require(view)
        self._turn += 1
        others, victims = self._narrow(view.candidates, self.victims)
        if victims and (self._turn % self.period == 0 or not others):
            # Rotate among victims with a dedicated cursor: indexing by
            # `_turn` would pin one victim forever whenever the period
            # divides evenly into the victim count (turn is a multiple of
            # the period on every victim turn), starving the others.
            choice = victims[self._victim_cursor % len(victims)]
            self._victim_cursor += 1
            return choice
        return self._fallback.next(
            SchedulerView(
                view.time, others, view.started, view.decided,
                view.participants,
            )
        )


class ExplicitScheduler(Scheduler):
    """Follows a predetermined sequence of process ids; used by the
    exhaustive model checker and by deterministic regression tests.

    When the sequence is exhausted, or names a non-schedulable process,
    behaviour is controlled by ``strict``: raise (default) or fall back
    to round-robin.
    """

    def __init__(self, sequence: Sequence[ProcessId], *, strict: bool = True):
        self._sequence = list(sequence)
        self._pos = 0
        self.strict = strict
        self._fallback = RoundRobinScheduler()

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._sequence)

    def next(self, view: SchedulerView) -> ProcessId:
        self._require(view)
        while self._pos < len(self._sequence):
            pid = self._sequence[self._pos]
            self._pos += 1
            if pid in view.candidates:
                return pid
            if self.strict:
                raise SchedulingError(
                    f"{pid} named by the explicit schedule is not schedulable"
                )
        if self.strict:
            raise SchedulingError("explicit schedule exhausted")
        return self._fallback.next(view)


class RecordingScheduler(Scheduler):
    """Wraps another scheduler and records every choice it makes.

    The recorded sequence, replayed through an :class:`ExplicitScheduler`,
    reproduces the interleaving deterministically — the hook the chaos
    engine's counterexample shrinking and repro bundles are built on.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.picks: list[ProcessId] = []

    def next(self, view: SchedulerView) -> ProcessId:
        choice = self.inner.next(view)
        self.picks.append(choice)
        return choice


class PrioritizedScheduler(Scheduler):
    """Always schedules the highest-priority schedulable process.

    ``priority`` maps process ids to smaller-is-first ranks; unknown ids
    get rank ``default``.  Useful for constructing solo and near-solo
    executions.
    """

    def __init__(self, priority: dict[ProcessId, int], default: int = 1000):
        self._priority = dict(priority)
        self._default = default

    def next(self, view: SchedulerView) -> ProcessId:
        self._require(view)
        return min(
            view.candidates,
            key=lambda pid: (self._priority.get(pid, self._default), pid),
        )


def standard_scheduler_suite(
    pids: Sequence[ProcessId], *, seeds: Sequence[int] = (0, 1, 2)
) -> list[Scheduler]:
    """The scheduler battery used across the integration tests: one
    round-robin, several seeded-random, and one adversarial run per
    process (that process as the victim)."""
    suite: list[Scheduler] = [RoundRobinScheduler()]
    suite.extend(SeededRandomScheduler(seed) for seed in seeds)
    suite.extend(AdversarialScheduler([pid], period=17) for pid in pids)
    return suite
