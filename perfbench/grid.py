"""The benchmark's workloads, driven only through the ``repro`` public API.

Every workload characterizes the same benchmark x core grid (the
ROADMAP ledger grid) and then runs the read path a user would run to
get from results to CSV.  One call of a workload function is one
*iteration*: it builds everything from the seed in a fresh directory,
times the grid phase and the read path, checks the outputs and returns
the exact counts it observed.

* ``sweep``   -- TTT, 3 campaigns, ``jobs=1``, no store, no telemetry;
  CSVs written from memory as ``repro grid --out`` does.
* ``journal`` -- the same grid at ``jobs=2`` (never more than the CPUs
  this process may use) into a ``CampaignStore``, then reopen, replay,
  index, train and export.
* ``fleet``   -- a 3-shard ``FleetStore`` (TTT, TFF, TSS), 1 campaign,
  ``jobs=1``, with tracing, metrics and the tsdb sampler on; shard 0
  runs, is cut back to half its journal lines (a simulated kill), and
  ``run_fleet`` resumes everything before the read path.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro import FrameworkConfig, MachineSpec, ParallelCampaignEngine
from repro.core import CharacterizationResult, ResultStore
from repro.data.calibration import vmin_mv
from repro.parallel import run_fleet
from repro.prediction import FleetStreamingTrainer, StreamingTrainer
from repro.store import CampaignStore, FleetStore, StoreIndexes
from repro.telemetry import (
    PARENT_SPAN_ID_BASE,
    MetricsRegistry,
    Tracer,
    TraceWriter,
    TsdbSampler,
    analyze_trace_dir,
    telemetry_session,
)
from repro.workloads import get_benchmark

BENCHMARKS = ("bwaves", "mcf", "gcc", "leslie3d", "namd", "milc")
CORES = (0, 2, 4, 6)
SWEEP_CHIP = "TTT"
FLEET_CHIPS = ("TTT", "TFF", "TSS")
SWEEP_CAMPAIGNS = 3
FLEET_CAMPAIGNS = 1
TRAIN_CORE = 0
#: The sweep's CSV write takes about 0.1 s, while the host's speed drifts
#: in phases of a few seconds, so a single write lands in one phase and
#: the samples come out bimodal.  Each sample averages a few writes.
SWEEP_WRITES = 4
#: The seed whose CSV digests are pinned in ``pins.json``.
PINNED_SEED = 2017


def config(campaigns: int) -> FrameworkConfig:
    """The ``repro grid`` defaults: start at 930 mV, 10 runs per level."""
    return FrameworkConfig(start_mv=930, campaigns=campaigns, runs_per_level=10)


def pool_jobs() -> int:
    """Two pool workers, or fewer if this process may use fewer CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def programs() -> List[object]:
    return [get_benchmark(name) for name in BENCHMARKS]


class Ops:
    """Operations attempted and failed; a failed check is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


@dataclass
class Iteration:
    """What one iteration measured, counted and produced."""

    grid_s: float
    read_s: float
    #: Runs simulated in the grid phase (a resumed task counts again).
    sim_runs: int
    #: Runs in the finished grid; the per-run denominators.
    grid_runs: int
    disk_bytes: int
    vmin_err_mv: float
    #: Exact counts that must repeat bit-for-bit for one seed.
    ledger: Dict[str, int]
    digests: Dict[str, str]
    journal_bytes: int = 0
    trace_bytes: int = 0
    #: ``repro analyze`` phase totals (fleet only).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Wall time of the whole iteration, checks included.
    total_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.grid_s + self.read_s


# -- helpers ------------------------------------------------------------------


def runs_in(results: Dict[Tuple[str, int], CharacterizationResult]) -> int:
    return sum(len(c.records) for r in results.values() for c in r.campaigns)


def vmin_error(results: Dict[Tuple[str, int], CharacterizationResult],
               chip: str, freq_mhz: int) -> List[float]:
    """|simulated cell Vmin - calibration anchor| per grid cell, in mV."""
    return [
        abs(result.highest_vmin_mv
            - vmin_mv(chip, core, get_benchmark(name).stress, freq_mhz))
        for (name, core), result in results.items()
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


def write_from_memory(results: Dict[Tuple[str, int], CharacterizationResult],
                      directory: Path) -> Dict[str, Path]:
    out = ResultStore(directory)
    return {
        "runs.csv": out.write_runs_csv(results.values()),
        "severity.csv": out.write_severity_csv(results.values()),
    }


# -- sweep ----------------------------------------------------------------------


def setup_sweep(seed: int, work: Path) -> None:
    engine = ParallelCampaignEngine(
        MachineSpec(chip=SWEEP_CHIP, seed=seed), config(SWEEP_CAMPAIGNS))
    engine.tasks_for(programs(), CORES)


def sweep(seed: int, work: Path, ops: Ops) -> Iteration:
    cfg = config(SWEEP_CAMPAIGNS)
    grid = len(BENCHMARKS) * len(CORES) * cfg.campaigns
    engine = ParallelCampaignEngine(MachineSpec(chip=SWEEP_CHIP, seed=seed), cfg)
    ops.attempt(grid)
    t0 = perf_counter()
    report = engine.run(programs(), CORES)
    t1 = perf_counter()
    ops.attempt(2 * SWEEP_WRITES)
    for _ in range(SWEEP_WRITES):
        paths = write_from_memory(report.results, work / "out")
    t2 = perf_counter()
    ops.check("sweep: tasks_run + tasks_skipped == grid",
              report.tasks_run + report.tasks_skipped == grid)
    runs = runs_in(report.results)
    return Iteration(
        grid_s=t1 - t0, read_s=(t2 - t1) / SWEEP_WRITES, sim_runs=runs,
        grid_runs=runs, disk_bytes=tree_bytes(work),
        vmin_err_mv=statistics.fmean(
            vmin_error(report.results, SWEEP_CHIP, cfg.freq_mhz)),
        ledger={"runs": runs, "campaigns": report.tasks_run},
        digests={name: sha256(path) for name, path in paths.items()},
    )


# -- journal --------------------------------------------------------------------


def setup_journal(seed: int, work: Path) -> None:
    spec = MachineSpec(chip=SWEEP_CHIP, seed=seed)
    cfg = config(SWEEP_CAMPAIGNS)
    CampaignStore.create(work / "store", spec, cfg, BENCHMARKS, CORES)
    engine = ParallelCampaignEngine(spec, cfg, jobs=pool_jobs())
    engine.tasks_for(programs(), CORES)


def journal(seed: int, work: Path, ops: Ops) -> Iteration:
    spec = MachineSpec(chip=SWEEP_CHIP, seed=seed)
    cfg = config(SWEEP_CAMPAIGNS)
    grid = len(BENCHMARKS) * len(CORES) * cfg.campaigns
    directory = work / "store"
    ops.attempt()
    store = CampaignStore.create(directory, spec, cfg, BENCHMARKS, CORES)
    engine = ParallelCampaignEngine(spec, cfg, jobs=pool_jobs())
    ops.attempt(grid)
    t0 = perf_counter()
    report = engine.run(programs(), CORES, store=store)
    t1 = perf_counter()
    ops.attempt(grid + 6)
    reopened = CampaignStore.open(directory)
    replay = engine.run(programs(), CORES, store=reopened, resume=True)
    indexes = StoreIndexes(reopened)
    indexes.serialize()
    trainer = StreamingTrainer(reopened, TRAIN_CORE)
    trainer.consume()
    trainer.fit()
    paths = reopened.export_csv()
    t2 = perf_counter()

    memory = write_from_memory(report.results, work / "memory")
    ops.check("journal: tasks_run + tasks_skipped == grid",
              report.tasks_run + report.tasks_skipped == grid
              and report.tasks_skipped == 0)
    ops.check("journal: resume of the complete store is pure replay",
              replay.tasks_skipped == grid and replay.tasks_run == 0)
    ops.check("journal: replayed results equal the first run's",
              replay.results == report.results
              and replay.raw_logs == report.raw_logs)
    ops.check("journal: export_csv equals the in-memory CSVs", all(
        paths[name.split(".")[0]].read_bytes() == path.read_bytes()
        for name, path in memory.items()))
    runs = runs_in(report.results)
    journal_bytes = reopened.journal_path.stat().st_size
    return Iteration(
        grid_s=t1 - t0, read_s=t2 - t1, sim_runs=runs, grid_runs=runs,
        disk_bytes=tree_bytes(directory),
        vmin_err_mv=statistics.fmean(
            vmin_error(report.results, SWEEP_CHIP, cfg.freq_mhz)),
        ledger={
            "runs": runs,
            "campaigns": report.tasks_run,
            "appends": len(reopened.campaigns()),
            "journal_bytes": journal_bytes,
            "index_records": indexes.records_indexed(),
            "trainer_samples": trainer.n_samples,
        },
        digests={name: sha256(paths[name.split(".")[0]]) for name in memory},
        journal_bytes=journal_bytes,
    )


# -- fleet ------------------------------------------------------------------------


def fleet_specs(seed: int) -> List[MachineSpec]:
    return [MachineSpec(chip=chip, seed=seed) for chip in FLEET_CHIPS]


def telemetry_on(trace_dir: Path):
    """The session ``--trace DIR --metrics FILE --tsdb`` installs."""
    tracer = Tracer(TraceWriter(trace_dir), first_id=PARENT_SPAN_ID_BASE)
    return telemetry_session(
        tracer=tracer, metrics=MetricsRegistry(), tsdb=TsdbSampler())


def setup_fleet(seed: int, work: Path) -> None:
    specs = fleet_specs(seed)
    cfg = config(FLEET_CAMPAIGNS)
    FleetStore.create(work / "fleet", specs, cfg, BENCHMARKS, CORES)
    with telemetry_on(work / "trace"):
        engine = ParallelCampaignEngine(specs[0], cfg)
        engine.tasks_for(programs(), CORES)


def cut_journal(path: Path) -> int:
    """Keep the first half of a journal's lines (a simulated kill);
    returns how many lines were kept."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = len(lines) // 2
    path.write_bytes(b"".join(lines[:kept]))
    return kept


def fleet(seed: int, work: Path, ops: Ops) -> Iteration:
    specs = fleet_specs(seed)
    cfg = config(FLEET_CAMPAIGNS)
    per_shard = len(BENCHMARKS) * len(CORES) * cfg.campaigns
    grid = per_shard * len(specs)
    directory = work / "fleet"
    trace_dir = work / "trace"
    ops.attempt()
    created = FleetStore.create(directory, specs, cfg, BENCHMARKS, CORES)
    first_shard = created.manifest.shards[0]
    with telemetry_on(trace_dir):
        ops.attempt(per_shard)
        t0 = perf_counter()
        first = run_fleet(created, shards=[first_shard.name])
        t1 = perf_counter()
        # One journal line per campaign, in append order; the resume
        # check below fails if that stops holding.
        shard0 = created.shard(first_shard)
        kept = cut_journal(shard0.journal_path)
        cut = {c.key for c in shard0.campaigns()[kept:]}
        ops.attempt(grid + 1)
        t2 = perf_counter()
        resumed = run_fleet(FleetStore.open(directory))
        t3 = perf_counter()
        ops.attempt(grid + 6)
        reopened = FleetStore.open(directory)
        replay = run_fleet(reopened)
        indexes = reopened.indexes()
        warm = indexes.serialize()
        trainer = FleetStreamingTrainer(reopened, TRAIN_CORE)
        trainer.consume()
        trainer.fit()
        exports = reopened.export_csv(work / "export")
    analysis = analyze_trace_dir(trace_dir)
    t4 = perf_counter()

    ops.check("fleet: warm index serialize() equals serialize_reparse()",
              warm == indexes.serialize_reparse())
    ops.check("fleet: shard 0 ran its whole grid",
              first.tasks_run == per_shard and first.tasks_skipped == 0)
    ops.check("fleet: resume tasks_run + tasks_skipped == grid",
              resumed.tasks_run + resumed.tasks_skipped == grid)
    ops.check("fleet: finished fleet replays without running",
              replay.tasks_skipped == grid and replay.tasks_run == 0)
    ops.check("fleet: resume re-ran exactly the cut tasks",
              resumed.reports[first_shard.name].tasks_run == len(cut)
              and resumed.tasks_run == grid - per_shard + len(cut))
    entries = reopened.manifest.shards
    ops.check("fleet: every shard watermark complete", reopened.is_complete())
    results = {e.name: resumed.reports[e.name].results for e in entries}
    grid_runs = sum(runs_in(r) for r in results.values())
    # The cut tasks ran twice: once before the kill, once on resume.
    first_results = first.reports[first_shard.name].results
    sim_runs = grid_runs + sum(
        len(c.records) for r in first_results.values() for c in r.campaigns
        if (c.benchmark, c.core, c.campaign_index) in cut)
    journal_bytes = sum(reopened.shard(e).journal_path.stat().st_size
                        for e in entries)
    errors: List[float] = []
    digests: Dict[str, str] = {}
    for chip, entry in zip(FLEET_CHIPS, entries):
        errors += vmin_error(results[entry.name], chip, cfg.freq_mhz)
        for kind, path in exports[entry.name].items():
            digests[f"{chip}/{kind}.csv"] = sha256(path)
    spans_written = sum(line_count(p) for p in trace_dir.glob("*.jsonl"))
    return Iteration(
        grid_s=(t1 - t0) + (t3 - t2), read_s=t4 - t3,
        sim_runs=sim_runs, grid_runs=grid_runs,
        disk_bytes=tree_bytes(work),
        vmin_err_mv=statistics.fmean(errors),
        ledger={
            "runs": sim_runs,
            "campaigns": first.tasks_run + resumed.tasks_run,
            "appends": first.tasks_run + resumed.tasks_run,
            "journal_bytes": journal_bytes,
            "spans": spans_written,
            "tsdb_samples": sum(line_count(reopened.tsdb_path(e))
                                for e in entries),
            "index_records": sum(b.records_indexed()
                                 for _, b in indexes.bundles()),
            "trainer_samples": trainer.n_samples,
        },
        digests=digests,
        journal_bytes=journal_bytes,
        trace_bytes=tree_bytes(trace_dir),
        phases=dict(analysis.phase_seconds),
    )


Workload = Callable[[int, Path, Ops], Iteration]

WORKLOADS: Dict[str, Tuple[Workload, Callable[[int, Path], None]]] = {
    "sweep": (sweep, setup_sweep),
    "journal": (journal, setup_journal),
    "fleet": (fleet, setup_fleet),
}
