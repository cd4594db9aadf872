"""Fleet-wide campaign execution: one engine run per shard.

The fleet manifest pins the whole experiment -- grid, config, weights
and the machine spec behind every shard -- so running a fleet needs no
inputs beyond the fleet itself: each shard gets its own
:class:`~repro.parallel.engine.ParallelCampaignEngine` built from the
shard's spec, journaling into the shard with ``resume=True``.  Tasks
already journaled replay instead of re-executing, so
:func:`run_fleet` is idempotent and kill-safe at any point: a fleet of
N machines resumes bit-identically to N independent single-machine
runs (the shard journals are byte-identical either way).

Shards execute sequentially, each fanning its grid over the engine's
worker pool -- shard-level parallelism would stack pools without
adding throughput, since every shard already saturates ``jobs``
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..store import FleetManifest, FleetStore
from ..workloads.benchmark import Program
from .engine import EngineReport, ParallelCampaignEngine
from .progress import NULL_PROGRESS, ProgressReporter


@dataclass(frozen=True)
class FleetRunReport:
    """Outcome of one fleet run: per-shard reports plus totals."""

    #: Shard name -> that shard's engine report, in manifest order.
    reports: Dict[str, EngineReport]
    #: The fleet manifest after the post-run watermark refresh.
    manifest: FleetManifest
    #: Tasks executed across all shards this run.
    tasks_run: int
    #: Tasks replayed from shard journals instead of executed.
    tasks_skipped: int


def run_fleet(
    fleet: Union[str, Path, FleetStore],
    jobs: int = 1,
    progress: ProgressReporter = NULL_PROGRESS,
    shards: Optional[Sequence[str]] = None,
) -> FleetRunReport:
    """Run (or resume) every shard of a fleet to completion.

    ``shards`` restricts the run to the named shards -- the others are
    left untouched, to be run later or by another process; watermarks
    still refresh fleet-wide afterwards.
    """
    store = fleet if isinstance(fleet, FleetStore) else FleetStore.open(fleet)
    manifest = store.manifest
    programs: List[Program] = manifest_programs(manifest)
    selected = set(shards) if shards is not None else None
    if selected is not None:
        known = {entry.name for entry in manifest.shards}
        unknown = sorted(selected - known)
        if unknown:
            from ..errors import StoreError

            raise StoreError(
                f"unknown fleet shards {unknown}; known: {sorted(known)}"
            )
    reports: Dict[str, EngineReport] = {}
    for entry in manifest.shards:
        if selected is not None and entry.name not in selected:
            continue
        # Catch up with the journal first: it may have grown, been cut
        # or compacted on disk since this fleet object last read it.
        shard = store.refreshed_shard(entry)
        engine = ParallelCampaignEngine(
            shard.manifest.spec,
            manifest.config,
            jobs=jobs,
            progress=progress,
        )
        reports[entry.name] = engine.run(
            programs, manifest.cores, store=shard, resume=True
        )
    refreshed = store.refresh_watermarks()
    return FleetRunReport(
        reports=reports,
        manifest=refreshed,
        tasks_run=sum(r.tasks_run for r in reports.values()),
        tasks_skipped=sum(r.tasks_skipped for r in reports.values()),
    )


def manifest_programs(manifest: FleetManifest) -> List[Program]:
    """The fleet grid's workload names resolved to program objects."""
    from ..workloads import get_program

    return [get_program(name) for name in manifest.workloads]


__all__ = ["FleetRunReport", "manifest_programs", "run_fleet"]
