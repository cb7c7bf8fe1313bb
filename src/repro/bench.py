"""Tracked micro-benchmarks of the execution core.

``python -m repro bench`` runs a fixed suite over the three hot layers
— raw executor stepping, exhaustive exploration, and chaos campaigns —
and writes ``BENCH_core.json``.  The committed copy at the repository
root is the tracked baseline: CI re-runs the suite in smoke mode and
fails when any benchmark's throughput regresses by more than the
threshold against it (rates are compared, not wall-clock totals, so the
smoke workloads stay comparable to the full ones).

Benchmark names are stable across smoke and full runs; changing a name
breaks the comparison history and should be treated like an API break.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Mapping

from .algorithms import paxos as _paxos

BENCH_SCHEMA = "repro-bench/1"

#: Primary throughput metric per benchmark (used for regression gating).
RATE_KEYS = {
    "executor_rw_n8": "steps_per_s",
    "executor_nop_n32": "steps_per_s",
    "executor_crashes": "steps_per_s",
    "executor_snapshot": "steps_per_s",
    "executor_paxos_inlined": "steps_per_s",
    "executor_compiled_rw_n8": "steps_per_s",
    "executor_compiled_nop_n32": "steps_per_s",
    "executor_compiled_crashes": "steps_per_s",
    "executor_compiled_snapshot": "steps_per_s",
    "executor_compiled_paxos_inlined": "steps_per_s",
    "explorer_figure4_d16": "explored_per_s",
    "explorer_por_figure4_d16": "explored_per_s",
    "explorer_por_deep_renaming": "explored_per_s",
    "explorer_symmetry_kset": "explored_per_s",
    "campaign_smoke": "cells_per_s",
    "campaign_compiled": "cells_per_s",
    "campaign_seed_sweep": "cells_per_s",
    "campaign_compiled_seed_sweep": "cells_per_s",
    "campaign_supervised": "cells_per_s",
    "campaign_fabric_loopback": "cells_per_s",
}

#: Compiled-kernel benchmark → its interpreted counterpart in the same
#: run.  Drives the side-by-side speedup column in :func:`render` and
#: the in-run speedup gate in :func:`kernel_speedup_problems`.
KERNEL_PAIRS = {
    "executor_compiled_rw_n8": "executor_rw_n8",
    "executor_compiled_nop_n32": "executor_nop_n32",
    "executor_compiled_crashes": "executor_crashes",
    "executor_compiled_snapshot": "executor_snapshot",
    "executor_compiled_paxos_inlined": "executor_paxos_inlined",
    "campaign_compiled": "campaign_smoke",
    "campaign_compiled_seed_sweep": "campaign_seed_sweep",
}

#: Minimum same-run speedup of each ``executor_compiled_*`` benchmark
#: over its interpreted counterpart.  Full runs measure 13-40x; the
#: gate sits well below that so smoke runs on noisy CI hosts do not
#: flap, while still catching a kernel that silently degrades to
#: interpreter-like throughput.
EXECUTOR_KERNEL_SPEEDUP_MIN = 5.0

#: Per-pair minimum same-run speedups for :func:`kernel_speedup_problems`.
#: The synthetic executor workloads are pure kernel overhead and gate
#: high.  The paxos-inlined workload does real agreement work per step
#: (measured ~4-5x), and the campaign pairs carry the full shared cost
#: of schedulers, detectors, and verdicts that both kernels pay
#: identically (measured ~2.5x on the smoke mix, ~4x on the seed
#: sweep); each gates with margin below its measured floor.
KERNEL_SPEEDUP_MIN = {
    "executor_compiled_rw_n8": EXECUTOR_KERNEL_SPEEDUP_MIN,
    "executor_compiled_nop_n32": EXECUTOR_KERNEL_SPEEDUP_MIN,
    "executor_compiled_crashes": EXECUTOR_KERNEL_SPEEDUP_MIN,
    "executor_compiled_snapshot": EXECUTOR_KERNEL_SPEEDUP_MIN,
    "executor_compiled_paxos_inlined": 3.0,
    "campaign_compiled": 1.5,
    "campaign_compiled_seed_sweep": 2.5,
}

#: Maximum tolerated loopback-fabric slowdown vs the supervised pool
#: on the same cells (fraction of supervised rate).  The fabric adds
#: framing, leases, and heartbeats per cell; none of that may cost
#: more than this.
FABRIC_OVERHEAD_MAX = 0.15


# -- workloads -----------------------------------------------------------


def _spin(ctx):
    from .runtime import ops

    while True:
        yield ops.Nop()


def _reader_writer(ctx):
    from .runtime import ops

    me = ctx.pid.index
    while True:
        yield ops.Write(f"cell/{me}", me)
        yield ops.Read(f"cell/{(me + 1) % ctx.n_computation}")


def _snapper(ctx):
    from .runtime import ops

    for i in range(200):
        yield ops.Write(f"arr/{ctx.pid.index}/{i}", i)
    while True:
        yield ops.Snapshot(f"arr/{ctx.pid.index}/")


def _paxos_contender(ctx):
    """The ``yield from``-delegating workload class: contended register
    Paxos (the per-step agreement substrate of the paper's Figure 2),
    every operation reached through inlined generator subroutines.  The
    module reference must be a bench-module global — not a function
    local — so the compiler can resolve and statically inline the
    delegated subroutines."""
    me = ctx.pid.index
    n = ctx.n_computation
    instance = 0
    round_number = me
    while True:
        decided = yield from _paxos.propose(
            f"bench/{instance}",
            me,
            n,
            _paxos.make_ballot(round_number, me, n),
            me,
        )
        if decided is not None:
            instance += 1
            round_number = me
        else:
            round_number += n


def _bench_executor(
    factory, n: int, steps: int, *, pattern=None, sched=None
) -> dict[str, Any]:
    from .core import System
    from .runtime import Executor, RoundRobinScheduler

    t0 = time.perf_counter()
    system = System(
        inputs=tuple(range(n)),
        c_factories=[factory] * n,
        pattern=pattern,
    )
    executor = Executor(
        system, sched or RoundRobinScheduler(), max_steps=steps
    )
    result = executor.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "steps_per_s": result.steps / wall,
        "steps": result.steps,
    }


def _bench_executor_compiled(
    factory, n: int, steps: int, *, pattern=None, sched=None
) -> dict[str, Any]:
    """Same workload shape as :func:`_bench_executor`, driven through
    the compiled kernel.  The factory is compiled *before* the timed
    region: the content-hash source cache makes compilation a one-time
    cost in real workloads, so steady-state throughput is what the
    benchmark tracks.  System and :class:`CompiledRun` construction stay
    inside the timed region, mirroring the interpreted measurement."""
    from .core import System
    from .kernel import CompiledRun, compile_automaton
    from .runtime import RoundRobinScheduler

    compile_automaton(factory)  # warm the content-hash cache
    t0 = time.perf_counter()
    system = System(
        inputs=tuple(range(n)),
        c_factories=[factory] * n,
        pattern=pattern,
    )
    run = CompiledRun(
        system, sched or RoundRobinScheduler(), max_steps=steps
    )
    result = run.run()
    wall = time.perf_counter() - t0
    if run.fallback_pids:
        raise RuntimeError(
            f"bench workload fell back to the interpreter for "
            f"{sorted(p.name for p in run.fallback_pids)}"
        )
    return {
        "wall_s": wall,
        "steps_per_s": result.steps / wall,
        "steps": result.steps,
        "kernel": "compiled",
        "compiled_processes": len(run.compiled_pids),
    }


def _run_explorer(task, build, max_depth, gate=None, **knobs) -> dict[str, Any]:
    from .checker import ScheduleExplorer, task_safety_verdict

    explorer = ScheduleExplorer(
        build, max_depth=max_depth, candidate_filter=gate, **knobs
    )
    t0 = time.perf_counter()
    report = explorer.check(task_safety_verdict(task))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "explored_per_s": report.explored / wall,
        "explored": report.explored,
        "completed": report.completed_runs,
        "violations": len(report.violations),
        "por_pruned": report.por_pruned,
        "symmetry_pruned": report.symmetry_pruned,
        "deduplicated": report.deduplicated,
    }


def _bench_explorer(max_depth: int, **knobs) -> dict[str, Any]:
    """The standard exploration benchmark: exhaustive task-safety check
    of the Figure 4 renaming algorithm, two participants of three."""
    from .algorithms.renaming_figure4 import figure4_factories
    from .checker import drop_null_s_processes
    from .core import System
    from .tasks import RenamingTask

    task = RenamingTask(3, 2, 3)

    def build():
        return System(inputs=(1, 2, None), c_factories=figure4_factories(3))

    return _run_explorer(
        task, build, max_depth, gate=drop_null_s_processes, **knobs
    )


def _bench_explorer_deep(max_depth: int) -> dict[str, Any]:
    """Four-process wait-free renaming under POR + dedup: a workload
    whose naive tree (hundreds of millions of nodes at depth 14) is out
    of reach without the reductions."""
    from .algorithms.renaming_figure4 import figure4_factories
    from .checker import drop_null_s_processes
    from .core import System
    from .tasks import RenamingTask

    task = RenamingTask(4, 3, 5)

    def build():
        return System(
            inputs=(1, 2, 3, None), c_factories=figure4_factories(4)
        )

    return _run_explorer(
        task,
        build,
        max_depth,
        gate=drop_null_s_processes,
        por=True,
        dedup=True,
    )


def _bench_explorer_symmetry(max_depth: int) -> dict[str, Any]:
    """Symmetry reduction over four interchangeable processes running
    2-set agreement with equal inputs, 2-concurrently."""
    from .algorithms.kset_concurrent import kset_concurrent_factories
    from .checker import concurrency_gate, drop_null_s_processes
    from .core import System
    from .tasks import SetAgreementTask

    task = SetAgreementTask(4, 2)

    def build():
        return System(
            inputs=(1, 1, 1, 1), c_factories=kset_concurrent_factories(4, 2)
        )

    def gate(executor, candidates):
        return concurrency_gate(2)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return _run_explorer(
        task,
        build,
        max_depth,
        gate=gate,
        symmetry=True,
        por=True,
        dedup=True,
    )


def _bench_campaign(
    cells: int, workers: int, *, kernel: str = "interp"
) -> dict[str, Any]:
    from .chaos import run_campaign, smoke_campaign

    if kernel == "compiled":
        # As in _bench_executor_compiled: the content-hash cache makes
        # compilation a one-time cost in real workloads, so steady-state
        # campaign throughput is what the benchmark tracks.
        from .kernel import warm_cache

        warm_cache()
    t0 = time.perf_counter()
    report = run_campaign(
        smoke_campaign(), limit=cells, workers=workers, kernel=kernel
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cells_per_s": len(report.records) / wall,
        "cells": len(report.records),
        "workers": workers,
        "kernel": kernel,
        "counts": dict(report.counts),
    }


def _sweep_campaign(seeds: int):
    """One system shape, many detector seeds, no crashes: k-set
    agreement over the paxos-inlined kset_vector algorithm.  This is
    the many-seed sweep the shared COW lane state exists for — every
    cell differs only in its seed, so all lanes share one
    :class:`~repro.kernel.engine.LaneState`."""
    from .chaos.campaign import CampaignSpec, Workload

    return CampaignSpec(
        name="bench-seed-sweep",
        workloads=[
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            )
        ],
        patterns=[[]],
        schedulers=({"kind": "seeded", "seed": 1},),
        seeds=tuple(range(seeds)),
        stabilization_times=(8,),
        max_steps=60_000,
    )


def _bench_campaign_sweep(seeds: int, *, kernel: str) -> dict[str, Any]:
    from .chaos import run_campaign

    if kernel == "compiled":
        from .kernel import warm_cache

        warm_cache()  # compile outside the timed region, as above
    t0 = time.perf_counter()
    report = run_campaign(_sweep_campaign(seeds), kernel=kernel)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cells_per_s": len(report.records) / wall,
        "cells": len(report.records),
        "kernel": kernel,
        "counts": dict(report.counts),
    }


def _bench_campaign_fabric(cells: int, workers: int) -> dict[str, Any]:
    """Loopback fabric vs the supervised pool on identical cells: the
    lease/heartbeat/framing machinery must cost less than
    :data:`FABRIC_OVERHEAD_MAX` of supervised throughput.  Worker
    interpreters are spawned, registered, and each run one untimed
    warm-up cell *before* the fabric's timed region, so the measurement
    is steady-state dispatch overhead, not Python start-up or the cell
    engine's first import — the supervised side forks workers that
    already hold both, the fabric side would otherwise pay two full CLI
    imports plus an engine import on each worker's first lease."""
    import itertools
    import os
    import subprocess
    import sys
    from pathlib import Path

    from .chaos import run_campaign, smoke_campaign
    from .resilience import (
        FabricConfig,
        FabricCoordinator,
        campaign_fingerprint,
    )

    spec = smoke_campaign()
    t0 = time.perf_counter()
    supervised = run_campaign(spec, limit=cells, workers=workers)
    supervised_wall = time.perf_counter() - t0

    coordinator = FabricCoordinator(FabricConfig())
    host, port = coordinator.address
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"{host}:{port}",
                "--name", f"bench-{i}",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        for i in range(workers)
    ]
    try:
        coordinator.wait_for_workers(len(procs), timeout_s=30.0)
        # Workers keep the metadata of their first welcome, so the
        # warm-up announces the timed campaign's own.  Its cells are the
        # campaign's first ones: a late duplicate result is identical.
        timed_cells = list(itertools.islice(spec.cells(), cells))
        warm_cells = itertools.islice(spec.cells(), len(procs))
        leftover = coordinator.run(
            [(index, cell.to_json()) for index, cell in enumerate(warm_cells)],
            lambda index, message: None,
            campaign=spec.name,
            fingerprint=campaign_fingerprint(
                spec.name, timed_cells, spec.strict_traces
            ),
            strict_traces=spec.strict_traces,
        )
        warmed = coordinator.stats.results_by_worker
        assert not leftover and set(warmed) == {
            f"bench-{i}" for i in range(len(procs))
        }, f"fabric warm-up did not reach every worker: {warmed}"
        t0 = time.perf_counter()
        fabric = run_campaign(
            spec, limit=cells, backend="fabric", fabric=coordinator
        )
        fabric_wall = time.perf_counter() - t0
    finally:
        coordinator.close()  # already closed unless the warm-up failed
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    assert fabric.render() == supervised.render()  # byte-identical
    supervised_rate = len(supervised.records) / supervised_wall
    fabric_rate = len(fabric.records) / fabric_wall
    return {
        "wall_s": fabric_wall,
        "cells_per_s": fabric_rate,
        "supervised_cells_per_s": supervised_rate,
        "supervised_wall_s": supervised_wall,
        "overhead_frac": 1.0 - fabric_rate / supervised_rate,
        "cells": len(fabric.records),
        "workers": workers,
        # The coordinator's counters include the warm-up cells.
        "fabric": fabric.fabric.summary() if fabric.fabric else "",
    }


def fabric_overhead_problems(
    results: Mapping[str, Mapping[str, Any]],
    *,
    max_overhead: float = FABRIC_OVERHEAD_MAX,
) -> list[str]:
    """Gate the loopback fabric's measured overhead against the
    supervised pool from the same run (empty list = within budget or
    not run)."""
    metrics = results.get("campaign_fabric_loopback")
    if not metrics or "overhead_frac" not in metrics:
        return []
    overhead = metrics["overhead_frac"]
    if overhead > max_overhead:
        return [
            f"campaign_fabric_loopback: fabric dispatch is "
            f"{overhead:.1%} slower than the supervised pool "
            f"(budget: {max_overhead:.0%})"
        ]
    return []


def kernel_speedup_problems(
    results: Mapping[str, Mapping[str, Any]],
    *,
    minimums: Mapping[str, float] = KERNEL_SPEEDUP_MIN,
) -> list[str]:
    """Gate each compiled benchmark against its interpreted counterpart
    from the same run (empty list = every measured pair meets its
    :data:`KERNEL_SPEEDUP_MIN` entry, or the pair was not run).  Pairs
    without an entry are reported via :func:`render` but not gated."""
    problems: list[str] = []
    for compiled_name, interp_name in KERNEL_PAIRS.items():
        min_speedup = minimums.get(compiled_name)
        if min_speedup is None:
            continue
        rate_key = RATE_KEYS[compiled_name]
        compiled = results.get(compiled_name, {}).get(rate_key)
        interp = results.get(interp_name, {}).get(rate_key)
        if not compiled or not interp:
            continue
        speedup = compiled / interp
        if speedup < min_speedup:
            problems.append(
                f"{compiled_name}: only {speedup:.1f}x over "
                f"{interp_name} (minimum: {min_speedup:g}x)"
            )
    return problems


def run_benchmarks(
    *, smoke: bool = False, workers: int = 1
) -> dict[str, dict[str, Any]]:
    """Run the suite; smoke mode shrinks workloads, not the name set."""
    exec_steps = 5_000 if smoke else 50_000
    snap_steps = 3_000 if smoke else 30_000
    # Compiled executor cases run 10x the steps of their interpreted
    # twins: at multi-M steps/s the interpreted budgets finish in
    # single-digit milliseconds, where construction jitter swamps the
    # steady-state rate.  Rates are compared, never wall totals, so the
    # asymmetry is harmless (same reason smoke stays comparable to
    # full).
    compiled_steps = exec_steps * 10
    compiled_snap_steps = snap_steps * 10
    depth = 12 if smoke else 16
    cells = 4 if smoke else 12
    sweep_seeds = 6 if smoke else 16
    from .core.failures import FailurePattern
    from .runtime.scheduler import SeededRandomScheduler

    suite: dict[str, Callable[[], dict[str, Any]]] = {
        "executor_rw_n8": lambda: _bench_executor(
            _reader_writer, 8, exec_steps
        ),
        "executor_nop_n32": lambda: _bench_executor(_spin, 32, exec_steps),
        "executor_crashes": lambda: _bench_executor(
            _reader_writer,
            6,
            exec_steps,
            pattern=FailurePattern(6, (3, 40, None, 500, None, 9_000)),
            sched=SeededRandomScheduler(7),
        ),
        "executor_snapshot": lambda: _bench_executor(
            _snapper, 4, snap_steps
        ),
        "executor_compiled_rw_n8": lambda: _bench_executor_compiled(
            _reader_writer, 8, compiled_steps
        ),
        "executor_compiled_nop_n32": lambda: _bench_executor_compiled(
            _spin, 32, compiled_steps
        ),
        "executor_compiled_crashes": lambda: _bench_executor_compiled(
            _reader_writer,
            6,
            compiled_steps,
            pattern=FailurePattern(6, (3, 40, None, 500, None, 9_000)),
            sched=SeededRandomScheduler(7),
        ),
        "executor_compiled_snapshot": lambda: _bench_executor_compiled(
            _snapper, 4, compiled_snap_steps
        ),
        "executor_paxos_inlined": lambda: _bench_executor(
            _paxos_contender, 3, exec_steps
        ),
        "executor_compiled_paxos_inlined": lambda: (
            _bench_executor_compiled(_paxos_contender, 3, compiled_steps)
        ),
        "explorer_figure4_d16": lambda: _bench_explorer(depth),
        "explorer_por_figure4_d16": lambda: _bench_explorer(
            depth, por=True
        ),
        "explorer_por_deep_renaming": lambda: _bench_explorer_deep(
            10 if smoke else 14
        ),
        "explorer_symmetry_kset": lambda: _bench_explorer_symmetry(
            12 if smoke else 16
        ),
        "campaign_smoke": lambda: _bench_campaign(cells, workers),
        "campaign_compiled": lambda: _bench_campaign(
            cells, 1, kernel="compiled"
        ),
        "campaign_seed_sweep": lambda: _bench_campaign_sweep(
            sweep_seeds, kernel="interp"
        ),
        "campaign_compiled_seed_sweep": lambda: _bench_campaign_sweep(
            sweep_seeds, kernel="compiled"
        ),
        "campaign_supervised": lambda: _bench_campaign(
            cells, max(2, workers)
        ),
        "campaign_fabric_loopback": lambda: _bench_campaign_fabric(
            cells, max(2, workers)
        ),
    }
    return {name: fn() for name, fn in suite.items()}


# -- comparison ----------------------------------------------------------


def compare_against_baseline(
    results: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]],
    *,
    fail_threshold: float,
) -> list[str]:
    """Return one message per benchmark whose throughput dropped below
    ``baseline rate / fail_threshold`` (benchmarks missing on either
    side are skipped — names are stable, workload sizes are not)."""
    problems: list[str] = []
    for name, rate_key in RATE_KEYS.items():
        current = results.get(name, {}).get(rate_key)
        reference = baseline.get(name, {}).get(rate_key)
        if not current or not reference:
            continue
        if current < reference / fail_threshold:
            problems.append(
                f"{name}: {rate_key} {current:.0f} is more than "
                f"{fail_threshold:g}x below baseline {reference:.0f}"
            )
    return problems


def load_baseline(path: str) -> dict[str, dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data.get("benchmarks", data)


def compare_runs(
    old: Mapping[str, Mapping[str, Any]],
    new: Mapping[str, Mapping[str, Any]],
) -> str:
    """Render a per-case delta table between two results files.

    One line per benchmark name present in either run: old rate, new
    rate, and the speedup factor (``new / old``, so >1 is faster).
    Cases missing on one side render a ``-`` instead of a factor —
    names are stable across suite revisions, but new cases do appear.
    """
    names = list(
        dict.fromkeys([*RATE_KEYS, *old, *new])  # RATE_KEYS order first
    )
    lines = [f"{'benchmark':28} {'old':>12} {'new':>12} {'delta':>8}"]
    for name in names:
        if name not in old and name not in new:
            continue
        rate_key = RATE_KEYS.get(name, "wall_s")
        before = old.get(name, {}).get(rate_key)
        after = new.get(name, {}).get(rate_key)
        fmt = lambda v: f"{v:>12.0f}" if v else f"{'-':>12}"
        delta = f"{after / before:>7.2f}x" if before and after else f"{'-':>8}"
        lines.append(f"{name:28} {fmt(before)} {fmt(after)} {delta}")
    return "\n".join(lines)


def render(results: Mapping[str, Mapping[str, Any]]) -> str:
    lines = []
    for name, metrics in results.items():
        rate_key = RATE_KEYS.get(name, "wall_s")
        line = (
            f"{name:28} {metrics.get(rate_key, 0.0):>12.0f} {rate_key}"
            f"  ({metrics['wall_s']:.2f}s)"
        )
        interp_name = KERNEL_PAIRS.get(name)
        if interp_name is not None:
            reference = results.get(interp_name, {}).get(rate_key)
            current = metrics.get(rate_key)
            if reference and current:
                line += f"  [{current / reference:.1f}x vs {interp_name}]"
        lines.append(line)
    return "\n".join(lines)
