"""The parallel campaign engine.

The paper's characterization took six months of wall-clock time because
thousands of (benchmark, core, voltage) runs execute serially on one
board.  In simulation that constraint disappears: campaigns are
embarrassingly parallel -- each owns its machine and its RNG stream --
so the engine fans the (workload, core, campaign) grid out over a
process pool.

Determinism is the design anchor.  Every task's machine seed is derived
from the parent seed and the task's stable coordinates (see
:mod:`repro.parallel.tasks`), so the engine produces **bit-identical**
results for any worker count or chunking -- ``jobs=4`` equals
``jobs=1`` equals any future run of the same grid.

There is one execution path.  The engine runs the grid serially
in-process when ``jobs == 1`` or too few tasks are pending to be worth
a pool, and over a process pool otherwise; if the pool cannot start it
warns and runs serially.  Either way chunks are committed by the same
step (journal, metrics, tsdb sample, progress).  Scheduling is chunked
(one pickle round-trip per chunk, not per campaign), a chunk lost to a
worker failure is retried once in-process, and a
:class:`~repro.parallel.progress.ProgressReporter` hook surfaces
completed/total/ETA to the CLI and examples.
"""

from __future__ import annotations

import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..core.campaign import CampaignResult, CharacterizationResult
from ..core.framework import FrameworkConfig, count_effects
from ..errors import CampaignError, ConfigurationError
from ..machines import MachineSpec, as_machine_spec
from ..store import (
    FLEET_MANIFEST_NAME,
    MANIFEST_NAME,
    CampaignStore,
    FleetStore,
)
from ..workloads.benchmark import as_program
from .progress import NULL_PROGRESS, ProgressReporter, ProgressTracker
from .tasks import (
    CampaignTask,
    CampaignTaskResult,
    derive_task_seed,
    run_campaign_chunk,
)

@dataclass(frozen=True)
class EngineReport:
    """Outcome of one engine run: the grid plus execution metadata."""

    #: (benchmark, core) -> the assembled characterization.
    results: Dict[Tuple[str, int], CharacterizationResult]
    #: Raw campaign logs keyed like
    #: :attr:`CharacterizationFramework.raw_logs`.
    raw_logs: Dict[Tuple[str, int, int, int], str]
    #: Total watchdog recoveries performed by the workers.
    interventions: int
    #: Number of campaign tasks executed.
    tasks_run: int
    #: Scheduling chunks retried in-process after a worker failure.
    chunks_retried: int
    #: How the grid executed: ``"serial"`` or ``"process"``.
    backend: str
    #: Worker count the grid ran with (1 when serial).
    jobs: int
    #: Tasks replayed from a campaign-store journal instead of executed
    #: (0 for runs without a store or with an empty journal).
    tasks_skipped: int = 0


class ParallelCampaignEngine:
    """Runs a characterization grid, serially or over a process pool.

    Parameters
    ----------
    spec:
        The machine blueprint every worker rebuilds: a
        :class:`~repro.machines.MachineSpec`, a chip name/chip, or a
        machine (captured via ``to_spec()``).  Specs cover every
        registered extension model, so droop/aging/adaptive-clocking
        machines parallelize like nominal ones.
    config:
        The framework configuration (schedule, runs per level,
        campaign count) applied to every grid cell.
    jobs:
        Worker count.  ``1`` executes serially in-process (the
        reference ordering); higher values use a process pool of that
        many workers when at least :attr:`MIN_POOL_TASKS` tasks are
        pending.  Chunks hold about a quarter of one worker's share of
        the pending tasks, which keeps the pool busy without paying
        one IPC round-trip per campaign.
    progress:
        Optional :class:`ProgressReporter`; the default is a no-op.
    """

    #: Grids with fewer pending tasks than this never spin up a pool.
    MIN_POOL_TASKS = 2

    def __init__(
        self,
        spec: MachineSpec,
        config: FrameworkConfig = FrameworkConfig(),
        jobs: int = 1,
        progress: ProgressReporter = NULL_PROGRESS,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.spec = as_machine_spec(spec)
        self.config = config
        self.jobs = int(jobs)
        self.progress = progress

    # -- task grid --------------------------------------------------------

    def tasks_for(
        self, workloads: Sequence[object], cores: Sequence[int]
    ) -> List[CampaignTask]:
        """The deterministic task list of a grid.

        Ordering is (workload, core, campaign) -- the same order the
        serial framework executes -- and each task carries its derived
        seed, so the list is independent of how it will be scheduled.
        """
        tasks: List[CampaignTask] = []
        for workload in workloads:
            program = as_program(workload)
            for core in cores:
                for campaign_index in range(1, self.config.campaigns + 1):
                    tasks.append(
                        CampaignTask(
                            program=program,
                            core=core,
                            campaign_index=campaign_index,
                            seed=derive_task_seed(
                                self.spec.seed, program.name, core,
                                campaign_index,
                            ),
                        )
                    )
        return tasks

    # -- execution --------------------------------------------------------

    def run(
        self,
        workloads: Sequence[object],
        cores: Sequence[int],
        store: Optional[Union[str, Path, CampaignStore, FleetStore]] = None,
        resume: bool = False,
    ) -> EngineReport:
        """Characterize every workload on every core.

        With ``store`` the run is journaled: each completed (workload,
        core, campaign) task is appended to the campaign store as it
        finishes, so a killed run loses at most the in-flight chunk.
        A :class:`~repro.store.FleetStore` routes the journal to the
        shard owning this engine's machine spec.
        With ``resume=True`` journaled tasks are replayed from the
        store (after verifying their seeds against a fresh derivation)
        and only the remainder executes -- the assembled report is
        bit-identical to an uninterrupted run of the same grid.
        """
        tasks = self.tasks_for(workloads, cores)
        if not tasks:
            raise ConfigurationError("empty grid: no workloads or no cores")
        journal = self._prepare_store(store, tasks, cores, resume)
        replayed = self._replay_journal(journal, tasks) if resume else []
        done = {(o.benchmark, o.core, o.campaign_index) for o in replayed}
        pending = [
            task for task in tasks
            if (task.program.name, task.core, task.campaign_index) not in done
        ]
        pool = None
        if self.jobs > 1 and len(pending) >= self.MIN_POOL_TASKS:
            pool = self._open_pool()
        backend = "serial" if pool is None else "process"
        collect = self._tracing_enabled()
        try:
            with telemetry.span(
                "engine.run",
                tasks=len(tasks),
                pending=len(pending),
                backend=backend,
                jobs=self.jobs,
            ):
                tracker = ProgressTracker(len(tasks), self.progress)
                if replayed:
                    tracker.advance(len(replayed))
                    telemetry.inc_counter(
                        telemetry.M_TASKS_SKIPPED, amount=len(replayed)
                    )
                    telemetry.event("engine.replay", tasks=len(replayed))
                self._sample_tsdb(journal)
                outcomes: List[CampaignTaskResult] = []
                retried = 0
                for chunk, chunk_outcomes, started, lost in self._executed(
                    self._chunk(pending), pool, collect
                ):
                    # The one commit step, whichever way the chunk ran.
                    retried += lost
                    telemetry.observe(
                        telemetry.M_CHUNK_SECONDS, telemetry.clock() - started
                    )
                    self._checkpoint(journal, chunk, chunk_outcomes)
                    self._record_outcomes(chunk_outcomes)
                    self._sample_tsdb(journal)
                    outcomes.extend(chunk_outcomes)
                    tracker.advance(len(chunk))
                tracker.finish()
                # Final snapshot after finish() so the run's published
                # throughput gauge lands in the time-series journal.
                self._sample_tsdb(journal)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return self._assemble(
            tasks, replayed + outcomes, backend, retried,
            tasks_skipped=len(replayed),
        )

    # -- checkpointing -----------------------------------------------------

    def _prepare_store(
        self,
        store: Optional[Union[str, Path, CampaignStore, FleetStore]],
        tasks: List[CampaignTask],
        cores: Sequence[int],
        resume: bool,
    ) -> Optional[CampaignStore]:
        """Open/create the journal for this grid and validate it.

        A :class:`FleetStore` (or a path holding a ``fleet.json``)
        routes by this engine's machine-spec digest to the fleet shard
        that owns it; everything downstream -- checkpointing, replay,
        resume -- then runs against that shard exactly as it would
        against a standalone store, which is why a fleet of N machines
        resumes bit-identically to N independent runs.
        """
        if store is None:
            if resume:
                raise ConfigurationError("resume=True requires a store")
            return None
        workload_names = list(dict.fromkeys(t.program.name for t in tasks))
        if isinstance(store, FleetStore):
            journal = store.shard_for(self.spec)
        elif isinstance(store, CampaignStore):
            journal = store
        else:
            directory = Path(store)
            if (directory / FLEET_MANIFEST_NAME).exists():
                journal = FleetStore.open(directory).shard_for(self.spec)
            elif (directory / MANIFEST_NAME).exists():
                journal = CampaignStore.open(directory)
            elif resume:
                raise CampaignError(f"no campaign store to resume at {directory}")
            else:
                journal = CampaignStore.create(
                    directory, self.spec, self.config, workload_names, cores
                )
        journal.validate_run(self.spec, self.config, workload_names, cores)
        if journal.completed_keys() and not resume:
            raise CampaignError(
                f"store at {journal.directory} already journals "
                f"{len(journal.completed_keys())} tasks; pass resume=True "
                f"(or run `repro resume`) to continue it"
            )
        return journal

    def _replay_journal(
        self, journal: Optional[CampaignStore], tasks: List[CampaignTask]
    ) -> List[CampaignTaskResult]:
        """Journaled campaigns as task results, seeds re-verified.

        Replayed lines must carry exactly the seed this engine would
        derive for the task today; anything else means the journal was
        recorded under different seed material and cannot be spliced
        into a bit-identical grid.
        """
        if journal is None:
            return []
        by_key = {
            (t.program.name, t.core, t.campaign_index): t for t in tasks
        }
        replayed: List[CampaignTaskResult] = []
        for stored in journal.campaigns():
            task = by_key[stored.key]
            if stored.seed != task.seed:
                raise CampaignError(
                    f"journaled task {stored.key!r} ran with seed "
                    f"{stored.seed}, but this grid derives {task.seed}; "
                    f"the store belongs to different seed material"
                )
            replayed.append(
                CampaignTaskResult(
                    benchmark=stored.benchmark,
                    core=stored.core,
                    campaign_index=stored.campaign_index,
                    result=stored.campaign_result(),
                    raw_log=stored.raw_log,
                    freq_mhz=stored.freq_mhz,
                    interventions=stored.interventions,
                )
            )
        return replayed

    @staticmethod
    def _checkpoint(
        journal: Optional[CampaignStore],
        chunk: Tuple[CampaignTask, ...],
        outcomes: Tuple[CampaignTaskResult, ...],
    ) -> None:
        """Journal a completed chunk's outcomes (no-op without a store)."""
        if journal is None:
            return
        for task, outcome in zip(chunk, outcomes):
            journal.append_campaign(
                outcome.result, outcome.raw_log, task.seed,
                outcome.interventions,
            )

    @staticmethod
    def _tracing_enabled() -> bool:
        """Whether workers should record spans for the ambient tracer."""
        session = telemetry.current_session()
        return session is not None and session.tracer is not None

    @staticmethod
    def _sample_tsdb(journal: Optional[CampaignStore]) -> None:
        """Snapshot the registry into the journal directory's tsdb.

        No-op without a journal or without an ambient tsdb sampler
        (``--tsdb``); sampling happens only after durable checkpoints,
        so the time-series journal never observes in-flight state.
        """
        if journal is not None:
            telemetry.sample_tsdb(journal.directory)

    @staticmethod
    def _record_outcomes(outcomes: Tuple[CampaignTaskResult, ...]) -> None:
        """Parent-side telemetry for freshly executed outcomes.

        Workers run under a local (or shielded) session, so all metric
        aggregation happens here, once per outcome, from the outcome
        payload itself -- identical for serial and pooled runs and any
        worker count.
        Replayed journal lines are *not* routed through this: metrics
        describe the current run; ``repro status`` covers the store.
        """
        for outcome in outcomes:
            telemetry.emit_spans(outcome.spans)
            if outcome.interventions:
                telemetry.inc_counter(
                    telemetry.M_INTERVENTIONS, amount=outcome.interventions
                )
            count_effects(outcome.result.records)

    def _chunk(self, tasks: List[CampaignTask]) -> List[Tuple[CampaignTask, ...]]:
        size = max(1, len(tasks) // (self.jobs * 4))
        return [
            tuple(tasks[i:i + size]) for i in range(0, len(tasks), size)
        ]

    def _open_pool(self) -> Optional[Executor]:
        """A started pool of ``jobs`` worker processes, or None (run
        serially) when this environment cannot start one."""
        pool = None
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=self.jobs)
            # Surface start-up failures (missing /dev/shm, seccomp'd
            # fork, ...) now rather than at submit time.
            pool.submit(int, 0).result()
            return pool
        except (ImportError, NotImplementedError, OSError, BrokenExecutor) as exc:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            warnings.warn(
                f"process pool unavailable ({exc!r}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _executed(
        self,
        chunks: List[Tuple[CampaignTask, ...]],
        pool: Optional[Executor],
        collect: bool,
    ) -> Iterator[Tuple[
        Tuple[CampaignTask, ...], Tuple[CampaignTaskResult, ...], float, int
    ]]:
        """Run the chunks; yield ``(chunk, outcomes, started, retried)``.

        Without a pool each chunk runs in-process, in grid order, and a
        failure propagates.  With one, chunks are yielded in completion
        order and ``started`` is the submit time, so the chunk latency
        includes queue wait -- the number that matters for pool sizing.
        """
        if pool is None:
            for chunk in chunks:
                started = telemetry.clock()
                yield chunk, run_campaign_chunk(
                    self.spec, self.config, chunk, collect
                ), started, 0
            return
        pending: Dict[Future, Tuple[Tuple[CampaignTask, ...], float]] = {
            pool.submit(
                run_campaign_chunk, self.spec, self.config, chunk, collect,
            ): (chunk, telemetry.clock())
            for chunk in chunks
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk, started = pending.pop(future)
                try:
                    outcomes = tuple(future.result())
                    retried = 0
                except Exception as exc:
                    # Retry-once policy: a lost worker (OOM kill,
                    # BrokenProcessPool, pickling trouble) must not
                    # lose the grid.  The chunk re-runs in-process;
                    # seeds are per-task, so the retry is bit-identical
                    # to what the worker would have produced.
                    warnings.warn(
                        f"worker chunk failed ({exc!r}); retrying in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    telemetry.inc_counter(telemetry.M_CHUNKS_RETRIED)
                    telemetry.event(
                        "engine.chunk_retry", tasks=len(chunk), error=repr(exc)
                    )
                    outcomes = run_campaign_chunk(
                        self.spec, self.config, chunk, collect,
                    )
                    retried = 1
                yield chunk, outcomes, started, retried

    # -- assembly ---------------------------------------------------------

    def _assemble(
        self,
        tasks: List[CampaignTask],
        outcomes: List[CampaignTaskResult],
        backend: str,
        retried: int,
        tasks_skipped: int = 0,
    ) -> EngineReport:
        """Deterministic grid assembly, independent of completion order."""
        by_task: Dict[Tuple[str, int, int], CampaignTaskResult] = {
            (o.benchmark, o.core, o.campaign_index): o for o in outcomes
        }
        grid: Dict[Tuple[str, int], List[CampaignResult]] = {}
        raw_logs: Dict[Tuple[str, int, int, int], str] = {}
        interventions = 0
        for task in tasks:  # reference order: (workload, core, campaign)
            outcome = by_task[(task.program.name, task.core, task.campaign_index)]
            grid.setdefault(outcome.grid_key, []).append(outcome.result)
            raw_logs[outcome.raw_log_key] = outcome.raw_log
            interventions += outcome.interventions
        results = {
            key: CharacterizationResult(campaigns=tuple(campaigns))
            for key, campaigns in grid.items()
        }
        return EngineReport(
            results=results,
            raw_logs=raw_logs,
            interventions=interventions,
            tasks_run=len(tasks) - tasks_skipped,
            chunks_retried=retried,
            backend=backend,
            jobs=1 if backend == "serial" else self.jobs,
            tasks_skipped=tasks_skipped,
        )
