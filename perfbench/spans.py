"""Harness-side tracing: spans recorded around each layer's public calls.

The program itself is not instrumented for this: :func:`install` wraps
the public entry point of every layer in :data:`LAYERS` (a class method
or a module function), a :class:`Recorder` keeps one span per call in
memory, and :func:`layer_metrics` reduces the spans to per-layer call
counts, total time and self time (a span's duration minus the time its
direct child spans cover).

Only the benchmark's own thread in its own process records.  Pool
workers forked from it inherit the wrappers, but a worker's calls pass
straight through, so layers that run inside workers read 0 calls on a
workload that uses the pool.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# -- the layer map ----------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One layer: its span name, the public calls it wraps, and the map.

    ``calls`` are ``(module, qualified name)`` pairs.  ``moves`` is the
    end-to-end metric a change to this layer should move, ``most`` the
    workload where the layer does most of its work, ``none`` where it
    does about none.  ``self_time`` marks layers that have child layers.
    """

    name: str
    calls: Tuple[Tuple[str, str], ...]
    moves: str
    most: str
    none: str
    self_time: bool = False


#: Every layer, in the order the traced-run report prints them.
LAYERS: Tuple[Layer, ...] = (
    Layer("machines.build", (("repro.machines", "MachineSpec.build"),),
          "runs_per_s", "sweep", "-"),
    Layer("hardware.compile_table",
          (("repro", "XGene2Machine.compile_batch_table"),),
          "runs_per_s", "sweep", "-"),
    Layer("core.kernel.execute",
          (("repro.core.kernel", "CampaignKernel.execute"),),
          "runs_per_s", "sweep", "journal read path"),
    Layer("core.framework.run_campaign",
          (("repro.core", "CharacterizationFramework.run_campaign"),),
          "runs_per_s", "sweep", "-", self_time=True),
    Layer("core.parser.parse_log", (("repro.core.parser", "parse_log"),),
          "read_s", "journal", "sweep"),
    Layer("parallel.engine.run",
          (("repro.parallel", "ParallelCampaignEngine.run"),),
          "runs_per_s", "journal", "sweep, fleet", self_time=True),
    Layer("store.journal.append",
          (("repro.store", "CampaignStore.append_campaign"),),
          "runs_per_s, journal_bytes_per_run", "journal", "sweep",
          self_time=True),
    Layer("store.journal.open", (("repro.store", "CampaignStore.open"),),
          "read_s", "journal, fleet", "sweep", self_time=True),
    Layer("store.journal.export_csv",
          (("repro.store", "CampaignStore.export_csv"),),
          "read_s, disk_bytes_per_run", "journal", "sweep", self_time=True),
    Layer("core.results.write",
          (("repro.core.results", "ResultStore.write_runs_csv"),
           ("repro.core.results", "ResultStore.write_severity_csv"),
           ("repro.core.results", "ResultStore.write_all_raw_logs")),
          "read_s, disk_bytes_per_run", "journal", "-"),
    Layer("store.fleet.open", (("repro.store", "FleetStore.open"),),
          "runs_per_s, read_s", "fleet", "sweep, journal"),
    Layer("store.fleet.refresh_watermarks",
          (("repro.store", "FleetStore.refresh_watermarks"),),
          "runs_per_s, read_s", "fleet", "sweep, journal", self_time=True),
    Layer("store.index.build",
          (("repro.store", "StoreIndexes.__init__"),
           ("repro.store", "FleetStore.indexes")),
          "read_s", "fleet", "sweep", self_time=True),
    Layer("store.index.serialize",
          (("repro.store", "StoreIndexes.serialize"),
           ("repro.store", "FleetIndexes.serialize")),
          "read_s", "fleet", "sweep"),
    Layer("store.index.reparse",
          (("repro.store", "FleetIndexes.serialize_reparse"),
           ("repro.store", "reparse_serialization")),
          "read_s", "fleet", "sweep", self_time=True),
    Layer("prediction.streaming.consume",
          (("repro.prediction", "StreamingTrainer.consume"),
           ("repro.prediction", "FleetStreamingTrainer.consume")),
          "read_s", "journal, fleet", "sweep", self_time=True),
    Layer("prediction.streaming.fit",
          (("repro.prediction", "StreamingTrainer.fit"),
           ("repro.prediction", "FleetStreamingTrainer.fit")),
          "read_s", "journal, fleet", "sweep"),
    Layer("telemetry.trace_write",
          (("repro.telemetry", "TraceWriter.__call__"),),
          "runs_per_s, disk_bytes_per_run", "fleet", "sweep, journal"),
    Layer("telemetry.tsdb_sample",
          (("repro.telemetry", "TsdbSampler.sample"),),
          "runs_per_s, disk_bytes_per_run", "fleet", "sweep, journal"),
    Layer("telemetry.analyze", (("repro.telemetry", "analyze_trace_dir"),),
          "read_s", "fleet", "sweep, journal"),
)

#: Counts recorded beside the layer spans: name -> (unit, better).
EXTRA_COUNTS: Dict[str, Tuple[str, str]] = {
    "core.kernel.runs": ("count", "lower"),
    "parallel.first_result_s": ("s", "lower"),
    "parallel.parent_idle_s": ("s", "lower"),
    "parallel.chunks_retried": ("count", "lower"),
    "store.journal.append.bytes": ("B", "lower"),
    "store.journal.open.bytes": ("B", "lower"),
    "store.export.bytes": ("B", "lower"),
    "store.index.records": ("count", "lower"),
    "prediction.streaming.samples": ("count", "higher"),
    "telemetry.spans": ("count", "lower"),
    "telemetry.trace_bytes": ("B", "lower"),
    "telemetry.tsdb_samples": ("count", "lower"),
    "journal_bytes_per_run": ("B/run", "lower"),
    "harness.overhead_s": ("s", "lower"),
    "harness.unattributed_s": ("s", "lower"),
}


def per_layer_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, report order."""
    names: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        names.append((f"{layer.name}.calls", "count", "lower"))
        names.append((f"{layer.name}.s", "s", "lower"))
        if layer.self_time:
            names.append((f"{layer.name}.self_s", "s", "lower"))
    names.extend((name, unit, better)
                 for name, (unit, better) in EXTRA_COUNTS.items())
    return names


# -- recording ----------------------------------------------------------------


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in ``Recorder.spans``; -1 at top level.
    parent: int = -1


class Recorder:
    """In-memory span sink for one traced workload iteration."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    def _records_here(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def inside(self, layer: str) -> bool:
        return any(self.spans[i].layer == layer for i in self._stack)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer: str, hook: Optional["Hook"], fn: Callable[..., Any],
             args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
        # A call nested in a span of its own layer (a fleet call fanning
        # out to per-shard calls of the same layer) belongs to the outer
        # span, so totals never count the same interval twice.
        if not self._records_here() or self.inside(layer):
            return fn(*args, **kwargs)
        state = hook.before(args) if hook else None
        span = Span(layer, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook:
            hook.after(self, args, result, state)
        return result

    def dump(self, path: Path) -> None:
        """Write the spans out as JSONL (done once, after the workload)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": span.parent, "layer": span.layer,
                    "start": span.start, "end": span.end,
                }) + "\n")


# -- extra counts taken at the wrapped calls ----------------------------------


class Hook:
    """Counts read around a wrapped call, outside its timed span."""

    def before(self, args: Tuple[Any, ...]) -> Any:
        return None

    def after(self, rec: Recorder, args: Tuple[Any, ...], result: Any,
              state: Any) -> None:
        pass


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class _KernelRuns(Hook):
    def after(self, rec, args, result, state):
        _log, campaign = result
        rec.add("core.kernel.runs", len(campaign.records))


class _EngineRun(Hook):
    """Spies on progress events for the pool spin-up time."""

    def before(self, args):
        from repro.parallel import ProgressReporter

        engine = args[0]
        outer = engine.progress
        events: List[Tuple[float, int]] = []

        class Spy(ProgressReporter):
            def on_start(self, total):
                outer.on_start(total)

            def on_progress(self, event):
                events.append((time.perf_counter(), event.completed))
                outer.on_progress(event)

            def on_finish(self, event):
                outer.on_finish(event)

        engine.progress = Spy()
        return engine, outer, events, time.perf_counter()

    def after(self, rec, args, result, state):
        engine, outer, events, started = state
        engine.progress = outer
        rec.add("parallel.chunks_retried", result.chunks_retried)
        executed = [t for t, done in events if done > result.tasks_skipped]
        if result.tasks_run and executed:
            rec.add("parallel.first_result_s", executed[0] - started)


class _JournalAppend(Hook):
    def before(self, args):
        return _size(args[0].journal_path)

    def after(self, rec, args, result, state):
        rec.add("store.journal.append.bytes",
                _size(args[0].journal_path) - state)


class _JournalOpen(Hook):
    def after(self, rec, args, result, state):
        rec.add("store.journal.open.bytes", _size(result.journal_path))


class _ResultsWrite(Hook):
    def after(self, rec, args, result, state):
        paths = result if isinstance(result, list) else [result]
        if rec.inside("store.journal.export_csv"):
            rec.add("store.export.bytes", sum(_size(p) for p in paths))


class _IndexRecords(Hook):
    def after(self, rec, args, result, state):
        if result is None:  # StoreIndexes.__init__
            rec.add("store.index.records", args[0].records_indexed())
        else:  # FleetStore.indexes -> FleetIndexes
            rec.add("store.index.records", sum(
                bundle.records_indexed() for _, bundle in result.bundles()))


class _TrainerSamples(Hook):
    def before(self, args):
        return args[0].n_samples

    def after(self, rec, args, result, state):
        rec.add("prediction.streaming.samples", args[0].n_samples - state)


class _Count(Hook):
    def __init__(self, name: str) -> None:
        self.name = name

    def after(self, rec, args, result, state):
        rec.add(self.name, 1)


HOOKS: Dict[str, Hook] = {
    "core.kernel.execute": _KernelRuns(),
    "parallel.engine.run": _EngineRun(),
    "store.journal.append": _JournalAppend(),
    "store.journal.open": _JournalOpen(),
    "core.results.write": _ResultsWrite(),
    "store.index.build": _IndexRecords(),
    "prediction.streaming.consume": _TrainerSamples(),
    "telemetry.trace_write": _Count("telemetry.spans"),
    "telemetry.tsdb_sample": _Count("telemetry.tsdb_samples"),
}


# -- installing the wrappers ------------------------------------------------


class Installation:
    """The wrappers in place; :meth:`remove` puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _wrapper(rec: Recorder, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    hook = HOOKS.get(layer)

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        return rec.call(layer, hook, fn, args, kwargs)

    return wrapped


def install(rec: Recorder) -> Installation:
    """Wrap every call in :data:`LAYERS` so it records into ``rec``.

    A method is replaced on the class that defines it.  A module
    function is replaced in every loaded module that imported it by
    name, so callers holding ``from x import f`` see the wrapper too.
    """
    done = Installation()
    for layer in LAYERS:
        for module_name, qualname in layer.calls:
            target: Any = importlib.import_module(module_name)
            *owners, attr = qualname.split(".")
            for owner in owners:
                target = getattr(target, owner)
            if owners:
                cls = next(c for c in target.__mro__ if attr in c.__dict__)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    done.set(cls, attr, classmethod(
                        _wrapper(rec, layer.name, raw.__func__)))
                else:
                    done.set(cls, attr, _wrapper(rec, layer.name, raw))
            else:
                original = getattr(target, attr)
                replacement = _wrapper(rec, layer.name, original)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            done.set(module, key, replacement)
    return done


# -- reducing spans to per-layer metrics ------------------------------------


def layer_metrics(rec: Recorder, wall_s: float) -> Dict[str, float]:
    """Per-layer calls / total / self time plus the recorder's counts.

    ``wall_s`` is the traced iteration's wall time; the part of it no
    top-level span covers is ``harness.unattributed_s``.
    """
    child_time = [0.0] * len(rec.spans)
    append_time = [0.0] * len(rec.spans)
    for span in rec.spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    for index, span in enumerate(rec.spans):
        if span.layer != "store.journal.append":
            continue
        parent = span.parent
        while parent >= 0:
            append_time[parent] += span.end - span.start
            parent = rec.spans[parent].parent
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = 0
        out[f"{layer.name}.s"] = 0.0
        if layer.self_time:
            out[f"{layer.name}.self_s"] = 0.0
    idle = 0.0
    top = 0.0
    for index, span in enumerate(rec.spans):
        duration = span.end - span.start
        out[f"{span.layer}.calls"] += 1
        out[f"{span.layer}.s"] += duration
        if f"{span.layer}.self_s" in out:
            out[f"{span.layer}.self_s"] += duration - child_time[index]
        if span.layer == "parallel.engine.run":
            idle += duration - append_time[index]
        if span.parent < 0:
            top += duration
    for name in EXTRA_COUNTS:
        out[name] = rec.counts.get(name, 0)
    out["parallel.parent_idle_s"] = idle
    out["harness.unattributed_s"] = wall_s - top
    return out
