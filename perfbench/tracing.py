"""Layer tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions and methods of the ``repro``
package from the outside — nothing under ``src/`` knows it exists — and
records, per layer name:

* ``calls`` and ``busy`` (wall time of the outermost call of that name,
  so a scheduler that delegates to an inner scheduler is not counted
  twice);
* ``self`` time (busy time minus the time of wrapped calls nested
  inside it), so the self times of all layers plus the time no wrapper
  covers add up to the wall time of the traced call;
* spans, for per-cell and per-job boundaries only: name, start, end,
  parent span, process id and the cell identifier they belong to.
  Per-step boundaries (scheduler turns, detector queries, interpreter
  steps, frames) only count calls and sum time, so a traced run stays
  bounded in memory.

Wrappers are installed into freshly imported ``repro`` modules (the
benchmark re-imports the package for every repetition), so an untraced
repetition never runs a wrapper.  Patches of standard-library objects
are undone by :meth:`Tracer.uninstall`.

Pool workers are forked from the traced process and inherit the
wrappers; :meth:`Tracer.export_forks` makes each forked child reset its
copy of the counters and write them to a file when it exits.  Fabric
workers are started through ``fabric_worker.py``, which installs the
same wrappers and writes the same file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


#: Layers that a timed call delegates to as a whole.  Their self time is
#: what no inner layer covers (the pool's unpickling of results, the
#: explorer's own search, the lane loop around compiled runs), so it
#: counts as unattributed rather than as a layer of its own.
ENTRY_POINTS = frozenset(
    {"explorer.check", "pool.run", "fabric.run", "kernel.lanes"}
)

#: Marks a patched attribute that the owner inherited rather than
#: defined, so uninstalling deletes the override.
_INHERITED = object()


def cell_id(cell_json: Any) -> str:
    """Stable short identifier of a campaign cell, shared by every span
    of that cell in every process."""
    text = json.dumps(cell_json, sort_keys=True, default=repr)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict[str, Any]] = []
        self.cell: str | None = None
        #: cell of the compiled lane being built, claimed once its
        #: CompiledRun exists (see :meth:`claim`).
        self.lane_cell: str | None = None
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._unclaimed = 0

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool = False,
        context: Callable[..., str | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` as layer ``name``.

        ``span`` records a span per call; ``context(*args, **kwargs)``
        names the cell the call works on (its spans, and those nested in
        it, carry that cell id); ``after(result, *args, **kwargs)`` sees
        each successful call's result, for counters."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous_cell = tracer.cell
            if context is not None:
                tracer.cell = context(*args, **kwargs)
            active = tracer._active
            # Nested calls of one layer (a journal append that appends)
            # get no span of their own.
            spanned = span and not active[name]
            sid = -1
            if spanned:
                sid = len(tracer.spans)
                tracer.spans.append(
                    {
                        "name": name,
                        "parent": (
                            tracer._span_stack[-1]
                            if tracer._span_stack
                            else None
                        ),
                        "cell": tracer.cell,
                        "pid": os.getpid(),
                    }
                )
                tracer._span_stack.append(sid)
            frame = [0.0]
            tracer._stack.append(frame)
            active[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                elapsed = t1 - t0
                tracer._stack.pop()
                active[name] -= 1
                if not active[name]:
                    tracer.calls[name] += 1
                    tracer.busy[name] += elapsed
                tracer.self_s[name] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if spanned:
                    tracer._span_stack.pop()
                    record = tracer.spans[sid]
                    record["start"] = t0
                    record["end"] = t1
                tracer.cell = previous_cell
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def attributed_s(self) -> float:
        """Self time of every layer that is not an entry point."""
        return sum(
            value for name, value in self.self_s.items()
            if name not in ENTRY_POINTS
        )

    def claim(self, cell: str) -> None:
        """Attribute every span recorded since the last claim that has no
        cell yet to ``cell`` — for batched paths (compiled lanes) whose
        per-cell work happens before the cell is named to any wrapper."""
        for record in self.spans[self._unclaimed:]:
            if record["cell"] is None and "end" in record:
                record["cell"] = cell
        self._unclaimed = len(self.spans)

    # -- patching --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded
        ``repro`` module that holds it under any name (``from x import
        f`` copies the binding into the importing module)."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def patch_function(self, module: Any, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        self.replace_everywhere(original, self.wrap(name, original, **kw))

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, **kw))
        else:
            wrapped = self.wrap(name, raw, **kw)
        self._set(cls, attr, wrapped)

    def patch_attr(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Wrap a standard-library function or method (undone by
        :meth:`uninstall`)."""
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [s for s in self.spans if "end" in s],
        }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.snapshot()))

    def merge(self, data: dict[str, Any]) -> None:
        """Add another process's exported counters into this tracer."""
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["busy"].items():
            self.busy[key] += value
        for key, value in data["self"].items():
            self.self_s[key] += value
        for key, value in data["counters"].items():
            self.counters[key] += value
        for key, values in data["samples"].items():
            self.samples[key].extend(values)
        self.spans.extend(data["spans"])

    def export_forks(self, directory: Path) -> None:
        """Make every process forked from here (pool workers) start
        from zeroed counters, record the pickled size of every result it
        sends back, and write its counters to ``directory`` on exit."""
        import multiprocessing.connection
        import multiprocessing.reduction
        import multiprocessing.util

        def in_child(tracer: "Tracer") -> None:
            tracer.reset()
            sizes = tracer.samples["pool.result_bytes"]
            dumps = multiprocessing.reduction.ForkingPickler.dumps

            def send(conn, obj):
                buf = dumps(obj)
                sizes.append(len(buf))
                conn.send_bytes(buf)

            # Only the child's copy of the class changes.
            multiprocessing.connection.Connection.send = send
            multiprocessing.util.Finalize(
                None,
                tracer.dump,
                args=(directory / f"worker-{os.getpid()}.json",),
                exitpriority=100,
            )

        multiprocessing.util.register_after_fork(self, in_child)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in the loaded ``repro``
    package (imported here if it is not yet)."""
    import multiprocessing.connection
    import selectors
    import socket

    from repro.analysis import verify
    from repro.chaos import campaign, registry
    from repro.checker import explorer
    from repro.core import history
    from repro.detectors.base import FailureDetector
    from repro.kernel import compiler, engine, lanes
    from repro.resilience import fabric, journal, supervisor, transport
    from repro.runtime import executor, scheduler

    def subclasses(cls: type) -> set[type]:
        found = set()
        for sub in cls.__subclasses__():
            found.add(sub)
            found |= subclasses(sub)
        return found

    def count(key: str, value: float = 1) -> None:
        tracer.counters[key] += value

    def lane_cell(_result, cell, *args, **kwargs) -> None:
        tracer.lane_cell = cell_id(cell.to_json())

    def claim_record(_result, _self, cell, *args, **kwargs) -> None:
        tracer.claim(cell_id(cell.to_json()))

    # chaos.campaign: one span per executed cell (pool and fabric
    # workers), and the report render.
    tracer.patch_function(
        campaign, "run_cell", "campaign.cell", span=True,
        context=lambda cell, **_: cell_id(cell.to_json()),
    )
    tracer.patch_method(
        campaign.CellRecord, "__init__", "campaign.record", after=claim_record
    )
    tracer.patch_method(
        campaign.CampaignReport, "render", "campaign.render", span=True
    )

    # chaos.registry + detectors: cell build and history validation.
    for attr in (
        "build_task", "build_pattern", "build_detector", "build_system",
        "build_scheduler",
    ):
        tracer.patch_function(registry, attr, "registry.build", span=True)
    for cls in subclasses(FailureDetector):
        if "check_history" in cls.__dict__:
            tracer.patch_method(
                cls, "check_history", "detectors.check_history", span=True
            )

    # detectors: per-step history queries.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for value in list(vars(module).values()):
            fn = getattr(value, "__dict__", {}).get("value")
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and getattr(fn, "__code__", None) is not None
                and fn.__code__.co_varnames[:3] == ("self", "s_index", "time")
            ):
                tracer.patch_method(value, "value", "detectors.query")

    # runtime.scheduler + chaos.injectors: per-step scheduling.
    for cls in subclasses(scheduler.Scheduler):
        if "next" in cls.__dict__:
            tracer.patch_method(cls, "next", "scheduler.next")

    # kernel.
    tracer.patch_function(compiler, "compile_automaton", "kernel.compile")
    tracer.patch_function(
        lanes, "run_cells_compiled", "kernel.lanes", span=True
    )
    # A lane's cell is named (lane_shape_key) between its system build
    # and its scheduler build; its spans are claimed once the
    # CompiledRun of that cell exists.
    tracer.patch_function(lanes, "lane_shape_key", "kernel.run", after=lane_cell)
    tracer.patch_function(engine, "execute_compiled", "kernel.run", span=True)

    def compiled_processes(_result, run, *args, **kwargs) -> None:
        count("kernel.procs.compiled", len(run.compiled_pids))
        count(
            "kernel.procs.total",
            len(run.compiled_pids) + len(run.fallback_pids),
        )
        if tracer.lane_cell is not None:
            tracer.claim(tracer.lane_cell)
            tracer.lane_cell = None

    tracer.patch_method(
        engine.CompiledRun, "__init__", "kernel.run", after=compiled_processes
    )
    tracer.patch_method(engine.CompiledRun, "advance", "kernel.run")
    tracer.patch_method(
        engine.CompiledRun, "result", "kernel.run",
        after=lambda result, *a, **k: count("kernel.steps", result.steps),
    )

    # runtime.executor (interpreter).
    tracer.patch_function(
        executor, "execute", "executor.run", span=True,
        after=lambda result, *a, **k: count("executor.steps", result.steps),
    )
    for attr in ("step", "step_trusted"):
        tracer.patch_method(executor.Executor, attr, "executor.step")
    for attr in ("checkpoint", "restore", "fingerprint"):
        tracer.patch_method(executor.Executor, attr, f"executor.{attr}")

    # checker.explorer.
    def explored(report, *args, **kwargs) -> None:
        count("explorer.explored", report.explored)
        count("explorer.por_pruned", report.por_pruned)
        count("explorer.deduplicated", report.deduplicated)

    tracer.patch_method(
        explorer.ScheduleExplorer, "check", "explorer.check", span=True,
        after=explored,
    )
    verdict_factory = explorer.task_safety_verdict
    tracer.replace_everywhere(
        verdict_factory,
        functools.wraps(verdict_factory)(
            lambda task: tracer.wrap("explorer.verdict", verdict_factory(task))
        ),
    )

    # analysis.verify.
    tracer.patch_function(verify, "verify_run", "verify", span=True)

    # resilience.supervisor.
    tracer.patch_method(supervisor.SupervisedPool, "run", "pool.run", span=True)
    tracer.patch_attr(multiprocessing.connection, "wait", "pool.recv_wait")

    # resilience.journal.
    for attr in ("append_cell", "append_event", "append_idempotent"):
        tracer.patch_method(
            journal.CampaignJournal, attr, "journal.append", span=True,
            context=lambda *a, **k: (
                cell_id(k["cell_json"]) if "cell_json" in k else tracer.cell
            ),
        )

    # resilience.fabric + resilience.transport.
    tracer.patch_method(fabric.FabricCoordinator, "run", "fabric.run", span=True)
    # Only the coordinator selects (multiprocessing waits use PollSelector).
    tracer.patch_attr(selectors.DefaultSelector, "select", "fabric.wait")

    def sent(frame, *args, **kwargs) -> None:
        count("transport.frames")
        count("transport.bytes", len(frame))

    tracer.patch_function(transport, "encode_frame", "transport.send", after=sent)
    tracer.patch_method(transport.FrameConnection, "send", "transport.send")
    tracer.patch_attr(socket.socket, "sendall", "transport.send")
    tracer.patch_method(transport.FrameDecoder, "feed", "transport.recv")
