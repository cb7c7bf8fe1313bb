"""The benchmark's workloads: set-up, the timed call, and the output
check of one repetition each.

Every workload drives the system only through public entry points:

* ``campaign-*``: ``run_campaign`` over ``standard_campaign(seed)``
  restricted to stabilization time 12 — 100 cells, both task families
  (consensus under Omega, 2-set agreement under vecOmega-2), all five
  schedulers and both detector seeds.  Keeping both detector seeds is
  what keeps the work per campaign seed steady (total steps vary by
  about 3% between seeds); dropping either axis instead leaves ±20%.
* ``check-renaming``: ``ScheduleExplorer.check`` of the Figure 4
  algorithm against ``RenamingTask(4, 3, 5)`` with POR and dedup.

A set-up re-imports the ``repro`` package, so each repetition pays what
a command-line run pays: imports, the kernel's in-memory compile cache
(``warm_cache``), system build, and fabric worker start-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Everything a run writes (journals, worker counter files, traces).
WORK = ROOT / ".perfbench"

#: The one stabilization time kept from ``standard_campaign``.
STABILIZATION_TIME = 12
#: Workers of the pool and fabric workloads (sized for two cores).
WORKERS = 2
#: Schedule-length bound of the renaming check.
CHECK_DEPTH = 14
#: Seconds to wait for fabric workers to register or exit.
WORKER_TIMEOUT_S = 60.0


def fresh_repro(*modules: str) -> dict[str, Any]:
    """Drop every loaded ``repro`` module and import ``modules`` anew."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in modules}


def campaign_spec(chaos: Any, seed: int) -> Any:
    return dataclasses.replace(
        chaos.standard_campaign(seed=seed),
        stabilization_times=(STABILIZATION_TIME,),
    )


def report_digest(report: Any) -> str:
    return hashlib.sha256(report.render().encode("utf-8")).hexdigest()


def rows_digest(report: Any) -> str:
    """Digest of every cell's row (outcome, steps, label) in cell order.
    The render alone is a summary — identical for every seed whose cells
    all pass — so this is what ties a run to its seed's exact outputs."""
    rows = "\n".join(record.format_row() for record in report.records)
    return hashlib.sha256(rows.encode("utf-8")).hexdigest()


def failed_cells(report: Any) -> int:
    """Cells whose outcome is not ``ok`` (errors, violations,
    quarantines, budget exhaustion)."""
    return sum(1 for record in report.records if record.outcome != "ok")


def check_inputs(seed: int) -> tuple:
    """Input vector of the renaming check: three distinct original names
    in a seed-chosen order, with a seed-chosen idle process."""
    rng = random.Random(seed)
    names: list = [1, 2, 3]
    rng.shuffle(names)
    names.insert(rng.randrange(4), None)
    return tuple(names)


@dataclasses.dataclass
class Outcome:
    """What one repetition did and whether it was right."""

    attempted: int
    failed: int
    items: int
    problems: list[str]
    extras: dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """One workload: set-up, the timed call, and the output check."""

    name = ""
    #: ``repro`` modules a set-up imports.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, reference: dict[str, Any]) -> None:
        self.seed = seed
        self.reference = reference
        self._serial = 0

    def scratch(self, stem: str) -> Path:
        self._serial += 1
        path = WORK / "tmp" / f"{stem}-{os.getpid()}-{self._serial}"
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def import_repro(self, tracer: Any) -> dict[str, Any]:
        modules = fresh_repro(*self.modules)
        if tracer is not None:
            from tracing import install

            install(tracer)
        return modules

    def exports(self, state: dict[str, Any]) -> Path:
        """Directory where traced workers write their counters."""
        if "exports" not in state:
            state["exports"] = self.scratch("workers")
            state["exports"].mkdir()
        return state["exports"]

    def setup(self, tracer: Any) -> dict[str, Any]:
        raise NotImplementedError

    def run(self, state: dict[str, Any]) -> Any:
        raise NotImplementedError

    def finish(self, state: dict[str, Any], result: Any) -> Outcome:
        raise NotImplementedError

    def discard(self, state: dict[str, Any]) -> None:
        """Tear down a set-up that was timed but not run."""


class CampaignWorkload(Workload):
    """The 100 campaign cells; subclasses pick the backend."""

    modules = ("repro.chaos",)

    def setup(self, tracer: Any) -> dict[str, Any]:
        repro = self.import_repro(tracer)
        chaos = repro["repro.chaos"]
        return {"chaos": chaos, "spec": campaign_spec(chaos, self.seed)}

    def finish(self, state: dict[str, Any], report: Any) -> Outcome:
        problems = []
        cells = len(report.records)
        if cells != self.reference["campaign_cells"]:
            problems.append(
                f"{cells} cells, expected {self.reference['campaign_cells']}"
            )
        for kind, digest in (
            ("campaign_digest", report_digest(report)),
            ("campaign_rows_digest", rows_digest(report)),
        ):
            if digest != self.reference[kind]:
                problems.append(
                    f"{kind} {digest[:16]} != recorded "
                    f"{self.reference[kind][:16]}"
                )
        extras = {
            "attempts_per_cell": (
                sum(r.attempts for r in report.records) / max(1, cells)
            ),
        }
        journal = state.get("journal")
        if journal is not None:
            extras["journal_bytes"] = journal.stat().st_size
            journal.unlink()
        stats = report.fabric
        if stats is not None:
            if stats.degraded or stats.locally_executed:
                problems.append(
                    f"fabric degraded: {stats.locally_executed} cell(s) "
                    "ran in the local pool"
                )
            extras.update(
                dispatches=stats.dispatches,
                lease_expiries=stats.lease_expiries,
                duplicates_dropped=stats.duplicates_dropped,
                results=stats.results,
            )
        return Outcome(cells, failed_cells(report), cells, problems, extras)


class CompiledCampaign(CampaignWorkload):
    """Serial in-process campaign through the compiled kernel's lanes."""

    name = "campaign-compiled"
    modules = ("repro.chaos", "repro.kernel")

    def setup(self, tracer: Any) -> dict[str, Any]:
        state = super().setup(tracer)
        sys.modules["repro.kernel"].warm_cache()
        return state

    def run(self, state: dict[str, Any]) -> Any:
        return state["chaos"].run_campaign(state["spec"], kernel="compiled")


class PoolCampaign(CampaignWorkload):
    """Supervised two-worker pool, interpreter kernel, fsync'd journal."""

    name = "campaign-pool"

    def setup(self, tracer: Any) -> dict[str, Any]:
        state = super().setup(tracer)
        state["journal"] = self.scratch("journal").with_suffix(".jsonl")
        if tracer is not None:
            tracer.export_forks(self.exports(state))
        return state

    def run(self, state: dict[str, Any]) -> Any:
        return state["chaos"].run_campaign(
            state["spec"], workers=WORKERS, journal=str(state["journal"])
        )


class FabricCampaign(CampaignWorkload):
    """Loopback fabric coordinator with two ``repro worker`` processes,
    started and registered during set-up; fsync'd journal."""

    name = "campaign-fabric"
    modules = ("repro.chaos", "repro.resilience")

    def setup(self, tracer: Any) -> dict[str, Any]:
        state = super().setup(tracer)
        resilience = sys.modules["repro.resilience"]
        coordinator = resilience.FabricCoordinator(resilience.FabricConfig())
        host, port = coordinator.address
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        procs = []
        for i in range(WORKERS):
            worker_args = ["--connect", f"{host}:{port}", "--name", f"bench-{i}"]
            if tracer is None:
                command = [sys.executable, "-m", "repro", "worker", *worker_args]
            else:
                command = [
                    sys.executable, str(HERE / "fabric_worker.py"),
                    str(self.exports(state) / f"worker-{i}.json"),
                    *worker_args,
                ]
            procs.append(
                subprocess.Popen(
                    command,
                    cwd=ROOT,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        state.update(coordinator=coordinator, procs=procs)
        registered = coordinator.wait_for_workers(
            WORKERS, timeout_s=WORKER_TIMEOUT_S
        )
        if registered < WORKERS:
            self.discard(state)
            raise RuntimeError(
                f"only {registered}/{WORKERS} fabric workers registered"
            )
        state["journal"] = self.scratch("journal").with_suffix(".jsonl")
        return state

    def run(self, state: dict[str, Any]) -> Any:
        return state["chaos"].run_campaign(
            state["spec"],
            backend="fabric",
            fabric=state["coordinator"],
            journal=str(state["journal"]),
        )

    def finish(self, state: dict[str, Any], report: Any) -> Outcome:
        # run_campaign closed the coordinator, which shut the workers down.
        problems = _reap(state["procs"], terminate=False)
        outcome = super().finish(state, report)
        outcome.problems.extend(problems)
        return outcome

    def discard(self, state: dict[str, Any]) -> None:
        # Drain the workers (SIGTERM), then close the coordinator so
        # their pending welcome wait ends.
        for proc in state["procs"]:
            proc.terminate()
        state["coordinator"].close()
        _reap(state["procs"], terminate=True)


def _reap(procs: list, *, terminate: bool) -> list[str]:
    """Wait for every worker; kill one that outlives the timeout."""
    problems = []
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    for proc in procs:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append(f"fabric worker {proc.pid} did not exit; killed")
            continue
        if proc.returncode != 0 and not terminate:
            problems.append(
                f"fabric worker {proc.pid} exited with {proc.returncode}"
            )
    return problems


class RenamingCheck(Workload):
    """Exhaustive check of Figure 4 renaming, three participants and one
    idle process, POR + dedup, fixed depth."""

    name = "check-renaming"
    modules = (
        "repro.algorithms.renaming_figure4",
        "repro.checker",
        "repro.core",
        "repro.tasks",
    )

    def setup(self, tracer: Any) -> dict[str, Any]:
        repro = self.import_repro(tracer)
        checker = repro["repro.checker"]
        factories = repro["repro.algorithms.renaming_figure4"].figure4_factories
        System = repro["repro.core"].System
        task = repro["repro.tasks"].RenamingTask(4, 3, 5)
        inputs = check_inputs(self.seed)

        def build():
            return System(inputs=inputs, c_factories=factories(4))

        explorer = checker.ScheduleExplorer(
            build,
            max_depth=CHECK_DEPTH,
            candidate_filter=checker.drop_null_s_processes,
            por=True,
            dedup=True,
        )
        return {"checker": checker, "explorer": explorer, "task": task}

    def run(self, state: dict[str, Any]) -> Any:
        verdict = state["checker"].task_safety_verdict(state["task"])
        return state["explorer"].check(verdict)

    def finish(self, state: dict[str, Any], report: Any) -> Outcome:
        problems = []
        if not report.ok:
            problems.append(f"{len(report.violations)} violation(s)")
        if report.interrupted:
            problems.append("exploration interrupted")
        counts = {
            "explored": report.explored,
            "por_pruned": report.por_pruned,
            "deduplicated": report.deduplicated,
        }
        if counts != self.reference["check_counts"]:
            problems.append(
                f"counts {counts} != recorded {self.reference['check_counts']}"
            )
        failed = 0 if report.ok else 1
        return Outcome(1, failed, report.explored, problems)


WORKLOADS = {
    cls.name: cls
    for cls in (CompiledCampaign, PoolCampaign, FabricCampaign, RenamingCheck)
}
