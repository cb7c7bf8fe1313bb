"""Unit tests for the fault injectors: every injected fault must stay
inside the EFD model (legal patterns, in-range histories, admissible
schedules)."""

import random

import pytest

from repro.chaos.injectors import (
    BurstStarvationScheduler,
    DecidedShadowScheduler,
    PerturbedDetector,
    PriorityInversionScheduler,
    crash_cascade,
    crash_storm,
    last_survivor,
    storm_suite,
)
from repro.core.failures import FailurePattern
from repro.core.process import c_process, s_process
from repro.detectors import Omega, TrivialDetector, VectorOmegaK
from repro.errors import SpecificationError
from repro.runtime.scheduler import AdversarialScheduler, SchedulerView


class TestCrashInjectors:
    def test_storm_leaves_requested_survivors(self):
        pattern = crash_storm(5, at=3, survivors=2, rng=random.Random(0))
        assert len(pattern.correct) == 2
        assert all(t == 3 for t in pattern.crash_times if t is not None)

    def test_cascade_staggers_crash_times(self):
        pattern = crash_cascade(
            4, start=2, gap=7, survivors=1, rng=random.Random(1)
        )
        times = sorted(t for t in pattern.crash_times if t is not None)
        assert times == [2, 9, 16]

    def test_last_survivor_keeps_exactly_one(self):
        pattern = last_survivor(4, horizon=30, rng=random.Random(2))
        assert len(pattern.correct) == 1
        assert all(
            t < 30 for t in pattern.crash_times if t is not None
        )

    def test_survivor_bounds_rejected(self):
        with pytest.raises(SpecificationError):
            crash_storm(3, survivors=0, rng=random.Random(0))
        with pytest.raises(SpecificationError):
            crash_cascade(3, survivors=4, rng=random.Random(0))

    def test_storm_suite_deterministic_and_legal(self):
        a = storm_suite(3, count=10, seed=7)
        b = storm_suite(3, count=10, seed=7)
        assert [p.crash_times for p in a] == [p.crash_times for p in b]
        # Every derived pattern is in-model: >= 1 correct process.
        assert all(p.correct for p in a)
        # The cycle starts from the failure-free pattern.
        assert a[0].crash_times == (None, None, None)


class TestPerturbedDetector:
    def test_history_passes_base_oracle(self):
        pattern = FailurePattern.crash(3, {0: 4})
        for stab in (4, 16, 33):
            det = PerturbedDetector(Omega(), stabilization_time=stab)
            history = det.build_history(pattern, random.Random(1))
            assert det.check_history(
                pattern,
                history,
                horizon=det.stabilization_time + 20,
                stabilized_from=det.stabilization_time,
            )

    def test_vector_history_passes_base_oracle(self):
        pattern = FailurePattern.all_correct(3)
        det = PerturbedDetector(
            VectorOmegaK(3, 2, stabilization_time=6), noise_until=12
        )
        history = det.build_history(pattern, random.Random(5))
        stab = det.stabilization_time
        assert stab == 12  # noise extends the effective stabilization
        assert det.check_history(
            pattern, history, horizon=stab + 16, stabilized_from=stab
        )

    def test_noise_stays_in_detector_range(self):
        pattern = FailurePattern.all_correct(4)
        det = PerturbedDetector(Omega(), stabilization_time=20)
        history = det.build_history(pattern, random.Random(3))
        for q in range(4):
            for t in range(30):
                value = history.value(q, t)
                assert isinstance(value, int) and 0 <= value < 4

    def test_noise_prefix_actually_perturbs(self):
        pattern = FailurePattern.all_correct(3)
        base = Omega(stabilization_time=40)
        det = PerturbedDetector(base, noise_until=40)
        base_history = base.build_history(pattern, random.Random(9))
        noisy_history = det.build_history(pattern, random.Random(9))
        prefix = lambda h: [  # noqa: E731
            h.value(q, t) for q in range(3) for t in range(40)
        ]
        assert prefix(base_history) != prefix(noisy_history)

    def test_base_detector_not_mutated(self):
        base = Omega(stabilization_time=5)
        PerturbedDetector(base, stabilization_time=99)
        assert base.stabilization_time == 5

    def test_unsweepable_base_rejected(self):
        with pytest.raises(SpecificationError):
            PerturbedDetector(TrivialDetector(), stabilization_time=10)


PIDS = (c_process(0), c_process(1), s_process(0), s_process(1))


def view(candidates=PIDS, *, time=0, started=(), decided=()):
    return SchedulerView(
        time=time,
        candidates=tuple(candidates),
        started=frozenset(started),
        decided=frozenset(decided),
        participants=frozenset(started),
    )


class TestSchedulerMutators:
    @pytest.mark.parametrize(
        "scheduler",
        [
            BurstStarvationScheduler(period=10, burst=4, seed=0),
            DecidedShadowScheduler(shadow=5),
            PriorityInversionScheduler(relief=3),
        ],
    )
    def test_only_candidates_picked(self, scheduler):
        for step in range(100):
            pick = scheduler.next(view(time=step))
            assert pick in PIDS

    def test_burst_deterministic_under_seed(self):
        picks = []
        for _ in range(2):
            sched = BurstStarvationScheduler(period=10, burst=4, seed=3)
            picks.append([sched.next(view(time=t)) for t in range(60)])
        assert picks[0] == picks[1]

    def test_burst_never_starves_singleton(self):
        sched = BurstStarvationScheduler(period=6, burst=3, seed=0)
        only = (c_process(0),)
        assert all(
            sched.next(view(only, time=t)) == c_process(0)
            for t in range(20)
        )

    def test_burst_parameters_validated(self):
        with pytest.raises(SpecificationError):
            BurstStarvationScheduler(period=5, burst=5)

    def test_shadow_excludes_started_undecided_after_decision(self):
        sched = DecidedShadowScheduler(shadow=4)
        # p1 decided; p2 started but undecided -> shadowed for 4 steps.
        shadowed_view = view(started={0, 1}, decided={0})
        picks = [sched.next(shadowed_view) for _ in range(4)]
        assert all(pick != c_process(1) for pick in picks)
        # After the shadow window it may run again.
        later = [sched.next(shadowed_view) for _ in range(8)]
        assert c_process(1) in later

    def test_inversion_prefers_last_with_periodic_relief(self):
        sched = PriorityInversionScheduler(relief=4)
        picks = [sched.next(view()) for _ in range(20)]
        assert picks.count(max(PIDS)) >= 15
        assert len(set(picks)) > 1  # relief steps break the inversion

    def test_inversion_relief_validated(self):
        with pytest.raises(SpecificationError):
            PriorityInversionScheduler(relief=1)


# -- the identity caches cannot change a pick ----------------------------

_C = tuple(c_process(i) for i in range(4))
_S = tuple(s_process(i) for i in range(3))
# Mid-run changes: a C-process starts, an S-process crashes, two
# C-processes decide (each leaves the candidates and grows `decided`).
_EVENTS = {
    40: ("start", 2),
    90: ("crash", _S[2]),
    130: ("decide", 0),
    200: ("start", 3),
    230: ("decide", 1),
}
_MUTATORS = {
    "burst": lambda: BurstStarvationScheduler(period=20, burst=8, seed=5),
    "shadow": lambda: DecidedShadowScheduler(shadow=6),
    "inversion": lambda: PriorityInversionScheduler(relief=4),
    "adversarial": lambda: AdversarialScheduler([_C[2], _S[0]], period=5),
}
# Pick sequences of the implementation before the identity caches
# (per-step filtered tuples, re-sorted every step), for the run below.
_RECORDED = {
    "burst": (
        "p4 q1 p4 q1 p4 q1 p4 q1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q3 p2 p3 p4 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 "
        "p2 p4 q1 q2 q3 p2 p4 q1 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 "
        "p3 q1 q2 p3 q1 q2 p3 q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 "
        "p3 q2 p3 q2 p3 q2 p3 q2 q1 q2 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 "
        "p1 p3 q1 q2 p1 p3 q1 q2 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 q1 q2 "
        "p1 p3 p4 q1 q2 p1 p3 p4 p3 p4 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "q1 q1 q1 q1 q1 q1 q1 q1 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p4 q1 p2 p4 q1 p2 p4 q1 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p2 p3 q1 p2 p3 q1 p2 p3 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "q1 p2 p4 q1 p2 p4 q1 p2 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p4 q2 p2 p4 q2 p2 p4 q2 q1 q2 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 "
        "q1 q2 q1 q2 q1 q2 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 "
        "q1 q2 q1 q2 q1 q2 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 "
        "q1 q2 q1 q2 q1 q2 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2"
    ),
    "shadow": (
        "p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 "
        "q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 "
        "q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 "
        "q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 q3 p1 p2 p3 "
        "p4 q1 q2 q3 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 "
        "q1 q2 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 q1 q2 "
        "p1 p2 p3 p4 q1 q2 p1 p2 p3 p4 q1 q2 p4 q1 q2 p4 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 "
        "p2 p3 p4 q1 q2 p2 p3 p4 q1 q2 q1 q2 q1 q2 q1 q2 p3 p4 q1 q2 "
        "p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 "
        "p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 "
        "p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2 p3 p4 q1 q2"
    ),
    "inversion": (
        "q3 q3 q3 p1 q3 q3 q3 p2 q3 q3 q3 p3 q3 q3 q3 p4 q3 q3 q3 q1 "
        "q3 q3 q3 q2 q3 q3 q3 q3 q3 q3 q3 p1 q3 q3 q3 p2 q3 q3 q3 p3 "
        "q3 q3 q3 p4 q3 q3 q3 q1 q3 q3 q3 q2 q3 q3 q3 q3 q3 q3 q3 p1 "
        "q3 q3 q3 p2 q3 q3 q3 p3 q3 q3 q3 p4 q3 q3 q3 q1 q3 q3 q3 q2 "
        "q3 q3 q3 q3 q3 q3 q3 p1 q3 q3 q2 q1 q2 q2 q2 q2 q2 q2 q2 p1 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p1 q2 q2 q2 p2 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 "
        "q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 q2 q2 q2 p3 "
        "q2 q2 q2 p4 q2 q2 q2 q1 q2 q2 q2 q2 q2 q2 q2 p3 q2 q2 q2 p4 "
        "q2 q2 q2 q1 q2 q2 q2 q2 q2 q2 q2 p3 q2 q2 q2 p4 q2 q2 q2 q1"
    ),
    "adversarial": (
        "p1 p2 p4 q2 p3 q3 p1 p2 p4 q1 q2 q3 p1 p2 p3 p4 q2 q3 p1 q1 "
        "p2 p4 q2 q3 p3 p1 p2 p4 q2 q1 q3 p1 p2 p4 p3 q2 q3 p1 p2 q1 "
        "p4 q2 q3 p1 p3 p2 p4 q2 q3 q1 p1 p2 p4 q2 p3 q3 p1 p2 p4 q1 "
        "q2 q3 p1 p2 p3 p4 q2 q3 p1 q1 p2 p4 q2 q3 p3 p1 p2 p4 q2 q1 "
        "q3 p1 p2 p4 p3 q2 q3 p1 p2 q1 p1 p2 p4 q2 p3 p1 p2 p4 q2 q1 "
        "p1 p2 p4 q2 p3 p1 p2 p4 q2 q1 p1 p2 p4 q2 p3 p1 p2 p4 q2 q1 "
        "p1 p2 p4 q2 p3 p1 p2 p4 q2 q1 q2 p2 p4 q2 p3 p2 p4 q2 p2 q1 "
        "p4 q2 p2 p4 p3 q2 p2 p4 q2 q1 p2 p4 q2 p2 p3 p4 q2 p2 p4 q1 "
        "q2 p2 p4 q2 p3 p2 p4 q2 p2 q1 p4 q2 p2 p4 p3 q2 p2 p4 q2 q1 "
        "p2 p4 q2 p2 p3 p4 q2 p2 p4 q1 q2 p2 p4 q2 p3 p2 p4 q2 p2 q1 "
        "p4 q2 p2 p4 p3 q2 p2 p4 q2 q1 p2 p4 q2 p2 p3 p4 q2 p2 p4 q1 "
        "q2 p2 p4 q2 p3 p2 p4 q2 p2 q1 p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 "
        "p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 "
        "p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 "
        "p4 q2 p4 q2 p3 p4 q2 p4 q2 q1 p4 q2 p4 q2 p3 p4 q2 p4 q2 q1"
    ),
}


def _picks(make, *, reuse: bool) -> str:
    """300 steps of one mutator.  ``reuse`` hands out one candidates
    tuple and one started/decided set until they change, as both kernels
    do; otherwise every step gets fresh but equal objects."""
    live = [*_C, *_S]
    started, decided = {0, 1}, set()
    participants = frozenset(range(4))
    cands, st, dec = tuple(live), frozenset(started), frozenset(decided)
    sched = make()
    picks = []
    for t in range(300):
        kind, arg = _EVENTS.get(t, (None, None))
        if kind == "start":
            started.add(arg)
        elif kind == "crash":
            live.remove(arg)
        elif kind == "decide":
            decided.add(arg)
            live.remove(_C[arg])
        if not reuse or kind is not None:
            cands = tuple(live)
            st, dec = frozenset(started), frozenset(decided)
        view = SchedulerView(t, cands, st, dec, participants)
        picks.append(sched.next(view).name)
    return " ".join(picks)


class TestIdentityCaches:
    @pytest.mark.parametrize("name", sorted(_MUTATORS))
    def test_reused_objects_pick_as_fresh_ones(self, name):
        fresh = _picks(_MUTATORS[name], reuse=False)
        reused = _picks(_MUTATORS[name], reuse=True)
        assert fresh == reused
        assert fresh == _RECORDED[name]

    def test_view_rejects_attribute_assignment(self):
        v = view()
        with pytest.raises(AttributeError):
            v.time = 5
        with pytest.raises(AttributeError):
            v.candidates = ()
