"""The repository benchmark: one command per workload, every metric by
name with its unit, and a check of every run's outputs.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-compiled --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``,
``work_per_s``, ``peak_rss_mb``), measured with no wrapper installed.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (see ``layers.json`` for what each
should move), plus ``unattributed_frac`` and ``trace_overhead_frac``.
Metric units are read from ``BENCHMARK.json``.

One repetition = a fresh set-up (timed as ``setup_s``) and one timed
call.  Repetitions continue until ``--seconds`` have passed (at least
one; a traced run at least one of each kind).  Before them, one
untimed warm-up set-up loads the standard library and writes bytecode,
and ``SETUP_SAMPLES`` more set-ups are timed and torn down, so
``setup_s`` is always a median of several samples.  Set-up and call
times are scaled to a reference host by host-speed probes that run
beside them (see ``PROBE_CODE``); the raw samples are on the line
before the result.

Every repetition's outputs are checked against ``references.json``
(the campaign report's render digest, identical for all three
campaign backends, a digest of every cell's row, and the explorer's
node counts).  A mismatch makes the run print ``"correct": false`` and
exit 1; it is never reported as a slow run.  The last line of standard
output is the result object; the line before it records the host and
the raw samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORK, WORKLOADS  # noqa: E402

#: Timed set-ups (besides those of the repetitions) per run.
SETUP_SAMPLES = 5

#: Host-speed probe.  Shared hosts change speed by up to a factor of
#: two, in phases of a few seconds to minutes (other tenants share the
#: cores and their caches), which would swamp any change to the
#: program.  One probe process per core (at most PROBE_CPUS), pinned to
#: it, runs this fixed pure-Python loop, which runs none of the
#: repository's code, every PROBE_PERIOD_S for the whole run, and
#: records when each loop started and the CPU time it took.  The loop
#: looks up keys scattered over a 30 MB dict, so, like the workloads, it
#: slows down when other tenants crowd the caches, not only when the
#: core runs slower.  In paired runs on a shared 2-vCPU Xeon host it
#: left less of the swing in than a loop over a small working set (run
#: to run, campaign-compiled varied by 8% instead of 13%, against 14%
#: unscaled).  Every timed set-up and timed call is scaled to the
#: reference host by CALIBRATION_REF_S over the median loop time of the
#: samples taken while it ran.  CPU time, not wall time: a probe that
#: waits for its core (the workers keep both busy) still measures only
#: the core's speed while it ran.  The probes share none of this
#: process's state and take a few percent of each core, so a regression
#: that slows the benchmark process or adds load (a stray thread, a
#: trace hook left installed, a busier worker) is not divided out.
PROBE_CODE = """
import os, random, select, sys, time
os.sched_setaffinity(0, {int(sys.argv[2])})
TABLE = {str(i): [i, (i, i + 1)] for i in range(200_000)}
KEYS = random.Random(7).sample(sorted(TABLE), 2_500)
def loop():
    out = []
    for key in KEYS:
        value = TABLE[key]
        out.append((value[0], key))
    out.sort()
samples = []
print("ready", flush=True)
while not select.select([sys.stdin], [], [], float(sys.argv[1]))[0]:
    t = time.monotonic()
    c0 = time.process_time()
    loop()
    samples.append((t, time.process_time() - c0))
for t, d in samples:
    print(t, d)
"""
PROBE_PERIOD_S = 0.1
PROBE_CPUS = 4
#: Shortest stretch of probe samples a time is scaled by.
PROBE_WINDOW_S = 0.5
#: CPU seconds the probe loop takes on the reference host (about its
#: fastest on a 2-vCPU Intel Xeon host running CPython 3.11).
CALIBRATION_REF_S = 0.003


class Probe:
    """The host-speed probe processes; stop() returns their samples."""

    def __init__(self) -> None:
        self.procs = [
            subprocess.Popen(
                [
                    sys.executable, "-I", "-S", "-c", PROBE_CODE,
                    str(PROBE_PERIOD_S), str(cpu),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in sorted(os.sched_getaffinity(0))[:PROBE_CPUS]
        ]
        for proc in self.procs:
            proc.stdout.readline()  # built its table

    def stop(self) -> list[tuple[float, float]]:
        samples = []
        for proc in self.procs:
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                continue
            pairs = (line.split() for line in out.splitlines())
            samples.extend((float(t), float(d)) for t, d in pairs)
        return sorted(samples)


def reference_factor(
    start: float, end: float, samples: list[tuple[float, float]]
) -> float:
    """Reference-host seconds per measured second between ``start`` and
    ``end``, from the probe samples started then.  A short interval
    (a set-up) is widened to the PROBE_WINDOW_S around its middle."""
    middle = (start + end) / 2
    start = min(start, middle - PROBE_WINDOW_S / 2)
    end = max(end, middle + PROBE_WINDOW_S / 2)
    during = [d for t, d in samples if start <= t <= end]
    if not during:
        raise RuntimeError("the host-speed probe took no sample")
    return CALIBRATION_REF_S / statistics.median(during)


def metric_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }


def host_fingerprint() -> dict[str, Any]:
    # Not platform.processor(): it runs ``uname -p`` in a child, whose
    # peak RSS would then count in peak_rss_mb.
    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (a pool or fabric worker), in MiB.  Read after the first timed
    call: a worker forked later would start with this process's RSS
    of the earlier calls, which Linux counts in the worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def merge_exports(tracer: Any, state: dict[str, Any]) -> None:
    exports = state.get("exports")
    if exports is None:
        return
    for path in sorted(exports.glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))
    shutil.rmtree(exports)


def layer_metrics(
    tracer: Any, outcome: Any, wall: float, attributed: float
) -> dict:
    """Per-layer metrics of one traced repetition (zero where the
    layer did not run).  ``attributed`` is the self time of the layers
    inside the timed call in this process (``Tracer.attributed_s``)."""
    calls, busy, self_s, counters = (
        tracer.calls, tracer.busy, tracer.self_s, tracer.counters,
    )
    extras = outcome.extras
    sizes = sorted(tracer.samples.get("pool.result_bytes", []))
    pruned = counters["explorer.por_pruned"] + counters["explorer.deduplicated"]
    examined = pruned + counters["explorer.explored"]
    procs = counters["kernel.procs.total"]
    dispatches = extras.get("dispatches", 0)
    values = {
        "registry.build.calls": calls["registry.build"],
        "registry.build.busy_s": busy["registry.build"],
        "detectors.check_history.busy_s": busy["detectors.check_history"],
        "kernel.compile.calls": calls["kernel.compile"],
        "kernel.compile.busy_s": busy["kernel.compile"],
        "kernel.run.self_s": self_s["kernel.run"],
        "kernel.steps": counters["kernel.steps"],
        "kernel.compiled_frac": (
            counters["kernel.procs.compiled"] / procs if procs else 0.0
        ),
        "scheduler.next.calls": calls["scheduler.next"],
        "scheduler.next.busy_s": busy["scheduler.next"],
        "detectors.query.calls": calls["detectors.query"],
        "detectors.query.busy_s": busy["detectors.query"],
        "executor.run.self_s": self_s["executor.run"],
        "executor.steps": counters["executor.steps"],
        "executor.step.calls": calls["executor.step"],
        "executor.step.busy_s": busy["executor.step"],
        "executor.restore.calls": calls["executor.restore"],
        "executor.restore.busy_s": busy["executor.restore"],
        "executor.checkpoint.busy_s": busy["executor.checkpoint"],
        "executor.fingerprint.calls": calls["executor.fingerprint"],
        "executor.fingerprint.busy_s": busy["executor.fingerprint"],
        "explorer.explored": counters["explorer.explored"],
        "explorer.por_pruned": counters["explorer.por_pruned"],
        "explorer.deduplicated": counters["explorer.deduplicated"],
        "explorer.prune_ratio": pruned / examined if examined else 0.0,
        "explorer.verdict.busy_s": busy["explorer.verdict"],
        "explorer.self_s": self_s["explorer.check"],
        "verify.calls": calls["verify"],
        "verify.busy_s": busy["verify"],
        "pool.run.self_s": self_s["pool.run"],
        "pool.result_bytes.sum": float(sum(sizes)),
        "pool.result_bytes.p90": (
            statistics.quantiles(sizes, n=10)[8] if len(sizes) > 1
            else float(sum(sizes))
        ),
        "pool.recv_wait_s": busy["pool.recv_wait"],
        "pool.attempts_per_cell": (
            extras["attempts_per_cell"] if calls["pool.run"] else 0.0
        ),
        "journal.append.calls": calls["journal.append"],
        "journal.append.busy_s": busy["journal.append"],
        "journal.bytes": extras.get("journal_bytes", 0),
        "fabric.run.self_s": self_s["fabric.run"],
        "fabric.wait_s": busy["fabric.wait"],
        "fabric.dispatches": dispatches,
        "fabric.lease_expiries": extras.get("lease_expiries", 0),
        "fabric.duplicates_dropped": extras.get("duplicates_dropped", 0),
        "fabric.useful_ratio": (
            extras.get("results", 0) / dispatches if dispatches else 0.0
        ),
        "transport.frames": counters["transport.frames"],
        "transport.bytes": counters["transport.bytes"],
        "transport.send.busy_s": busy["transport.send"],
        "transport.recv.busy_s": busy["transport.recv"],
        "campaign.render.busy_s": busy["campaign.render"],
        "unattributed_frac": max(0.0, 1.0 - attributed / wall),
    }
    return {name: float(value) for name, value in values.items()}


def write_trace(tracer: Any, workload: str, seed: int) -> None:
    """Keep the last traced repetition's spans for inspection."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"spans": tracer.snapshot()["spans"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--references",
        type=Path,
        default=HERE / "references.json",
        help="recorded outputs to check against (the self-test passes "
        "a tampered copy)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    host = host_fingerprint()

    references = json.loads(args.references.read_text())["seeds"]
    ref_seed = args.seed % len(references)
    workload = WORKLOADS[args.workload](ref_seed, references[str(ref_seed)])

    attempted = failed = 0
    problems: list[str] = []
    setups: list[tuple[float, float]] = []  # (start, end)
    calls: list[tuple[float, float, int]] = []  # (start, end, items)
    traced_walls: list[float] = []
    layer_runs: list[dict[str, float]] = []
    peak_rss = 0.0

    probe = Probe()
    try:
        workload.discard(workload.setup(None))  # warm-up
        for _ in range(SETUP_SAMPLES):
            t0 = time.monotonic()
            state = workload.setup(None)
            setups.append((t0, time.monotonic()))
            workload.discard(state)

        from tracing import Tracer

        deadline = time.monotonic() + args.seconds
        rep = 0
        while not problems:
            traced = bool(args.trace) and rep % 2 == 1
            tracer = Tracer() if traced else None
            t0 = time.monotonic()
            state = workload.setup(tracer)
            if not traced:
                setups.append((t0, time.monotonic()))
            attributed = tracer.attributed_s() if traced else 0.0
            try:
                gc.collect()  # the previous repetition's garbage
                t0 = time.monotonic()
                result = workload.run(state)
                t1 = time.monotonic()
                wall = t1 - t0
                if traced:
                    attributed = tracer.attributed_s() - attributed
                outcome = workload.finish(state, result)
            except Exception as exc:  # noqa: BLE001 - a raising run fails the check
                problems.append(f"{type(exc).__name__}: {exc}")
                attempted += 1
                failed += 1
                workload.discard(state)
                break
            finally:
                if traced:
                    tracer.uninstall()
            attempted += outcome.attempted
            failed += outcome.failed
            problems.extend(outcome.problems)
            if traced:
                merge_exports(tracer, state)
                traced_walls.append(wall)
                layer_runs.append(
                    layer_metrics(tracer, outcome, wall, attributed)
                )
                write_trace(tracer, args.workload, args.seed)
            else:
                calls.append((t0, t1, outcome.items))
                if len(calls) == 1:
                    peak_rss = peak_rss_mb()
            del state, result  # a pool report holds every cell's trace
            rep += 1
            enough = not args.trace or (traced_walls and calls)
            if enough and time.monotonic() >= deadline:
                break
    finally:
        samples = probe.stop()
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    setup_factors = [reference_factor(a, b, samples) for a, b in setups]
    call_factors = [reference_factor(a, b, samples) for a, b, _ in calls]
    setup_s = [(b - a) * f for (a, b), f in zip(setups, setup_factors)]
    walls = [b - a for a, b, _ in calls]
    rates = [
        items / (wall * f)
        for (_, _, items), wall, f in zip(calls, walls, call_factors)
    ]
    if args.trace:
        metrics = {}
        if layer_runs:
            metrics = {
                name: statistics.fmean(r[name] for r in layer_runs)
                for name in layer_runs[0]
            }
            metrics["trace_overhead_frac"] = (
                statistics.median(traced_walls)
                / statistics.median(walls)
                - 1.0
            )
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "work_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_rss,
        }
    units = metric_units()
    correct = not problems and attempted > 0
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "campaign_seed": ref_seed,
                "host": host,
                "reps": rep,
                "setup_s": [b - a for a, b in setups],
                "setup_factors": setup_factors,
                "wall_s": walls,
                "call_factors": call_factors,
                "work_per_s": rates,
                "traced_wall_s": traced_walls,
                "probe_samples": len(samples),
                "problems": problems,
                "elapsed_s": time.perf_counter() - started,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
