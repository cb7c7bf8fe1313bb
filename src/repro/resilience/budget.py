"""Per-cell resource budgets, enforced *inside* worker processes.

A supervised worker (see :mod:`repro.resilience.supervisor`) arms a
:class:`BudgetWatchdog` around every job it runs.  The watchdog is a
daemon thread that polls wall-clock time and resident-set size; on a
breach it terminates the whole worker process via :func:`os._exit` with
a distinct exit code, which the supervisor decodes into a ``timeout`` or
``oom`` failure.  Killing the process (rather than trying to unwind the
job) is the only enforcement that works against jobs stuck in an
unbounded *local* computation — precisely the planted-specimen hazards
the chaos tests use — and is safe because a worker owns no shared state:
each one talks to the supervisor over its own pipe and at most one job
is ever in flight on it.

RSS is read from ``/proc/self/statm`` where available (Linux; current
resident pages) and falls back to ``resource.getrusage`` peak RSS, so
budgets degrade gracefully rather than growing a psutil dependency.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

#: Worker exit codes the supervisor decodes into failure kinds.  Chosen
#: away from Python/shell conventions (1, 2, 126..165) so an ordinary
#: crash is never mistaken for a budget kill.
EXIT_TIMEOUT = 87
EXIT_OOM = 88

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


@dataclass(frozen=True)
class CellBudget:
    """Resource envelope for one unit of supervised work.

    Attributes:
        deadline_s: wall-clock budget per attempt; ``None`` = unbounded.
        rss_mb: resident-set budget for the worker process; ``None`` =
            unbounded.  Compared against *current* RSS where the
            platform exposes it, peak RSS otherwise.
        poll_interval_s: watchdog polling period.  Enforcement latency
            is one poll interval, so budgets are accurate to roughly
            this grain — plenty for second-scale deadlines.  A job that
            ends before the next poll is still held to its deadline
            when the watchdog is disarmed.
    """

    deadline_s: float | None = None
    rss_mb: float | None = None
    poll_interval_s: float = 0.05

    @property
    def bounded(self) -> bool:
        return self.deadline_s is not None or self.rss_mb is not None

    def to_json(self) -> dict:
        return {
            "deadline_s": self.deadline_s,
            "rss_mb": self.rss_mb,
        }

    @classmethod
    def from_json(cls, data) -> "CellBudget":
        return cls(
            deadline_s=data.get("deadline_s"),
            rss_mb=data.get("rss_mb"),
        )


def current_rss_mb() -> float | None:
    """Best-effort resident-set size of this process, in MiB."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; both only matter as fallback.
        return peak / 1024 if peak < 1 << 40 else peak / (1024 * 1024)
    except Exception:  # pragma: no cover - exotic platforms
        return None


class BudgetWatchdog:
    """Arms/disarms budget enforcement around jobs in a worker process.

    One watchdog thread serves the worker's whole lifetime; the worker
    loop calls :meth:`arm` before running a job and :meth:`disarm` after
    it.  The thread is a daemon, so an idle watchdog never blocks worker
    shutdown.
    """

    def __init__(self, budget: CellBudget) -> None:
        self.budget = budget
        self._lock = threading.Lock()
        self._deadline_at: float | None = None
        self._armed = False
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if not self.budget.bounded or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._watch, name="budget-watchdog", daemon=True
        )
        self._thread.start()

    def arm(self) -> None:
        with self._lock:
            self._armed = True
            self._deadline_at = (
                None
                if self.budget.deadline_s is None
                else time.monotonic() + self.budget.deadline_s
            )

    def disarm(self) -> None:
        """Stop enforcing; a job that finished past its deadline exits
        the worker as a timeout, exactly as a poll would have.  Without
        this, a job overrunning by less than one poll interval passes or
        times out depending on where the poll fell."""
        with self._lock:
            self._armed = False
            deadline_at = self._deadline_at
            self._deadline_at = None
        if deadline_at is not None and time.monotonic() >= deadline_at:
            os._exit(EXIT_TIMEOUT)

    def _watch(self) -> None:  # pragma: no cover - exits via os._exit
        while True:
            time.sleep(self.budget.poll_interval_s)
            with self._lock:
                armed = self._armed
                deadline_at = self._deadline_at
            if not armed:
                continue
            if deadline_at is not None and time.monotonic() >= deadline_at:
                os._exit(EXIT_TIMEOUT)
            if self.budget.rss_mb is not None:
                rss = current_rss_mb()
                if rss is not None and rss >= self.budget.rss_mb:
                    os._exit(EXIT_OOM)
