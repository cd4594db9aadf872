"""The automated characterization framework (Figure 2).

Three phases, as in the paper:

1. **Initialization**: the user declares benchmarks and the
   characterization setups (voltage schedule, frequency, cores).
2. **Execution**: for every setup, the framework programs the machine
   through SLIMpro, pins the benchmark to the core under test with
   every other PMD parked at 300 MHz (the "reliable cores setup"),
   runs it, *restores nominal voltage to store the log files safely*,
   and lets the watchdog recover the board whenever a run hangs it.
   That per-run loop is :meth:`CampaignKernel.execute`
   (:mod:`repro.core.kernel`), the only campaign loop; the framework
   picks its outcome source per setup -- the machine's compiled
   voltage table when it compiles, ``machine.run_program`` otherwise.
3. **Parsing**: raw logs are parsed into classified runs, severity
   tables and region decompositions, exported as CSV.  The loop
   classifies each run as it logs it, through the same rules the
   parser applies, so a campaign's records are exactly what its raw
   log parses to.

The framework is deliberately restricted to the surfaces a real
harness has: SLIMpro calls, program launches, the serial console and
the watchdog's buttons.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .. import telemetry
from ..effects import EffectType
from ..errors import ConfigurationError
from ..units import (
    FREQ_MAX_MHZ,
    PMD_NOMINAL_MV,
    validate_frequency_mhz,
    voltage_sweep,
)
from ..workloads.benchmark import Program, as_program
from ..machines import Machine, machine_to_spec
from .campaign import CampaignResult, CharacterizationResult
from .kernel import CampaignKernel
from .parser import parse_log
from .runs import RunRecord
from .watchdog import WatchdogMonitor


@dataclass(frozen=True)
class FrameworkConfig:
    """User-declared configuration of a characterization (phase 1).

    The defaults mirror the paper: 10 runs per voltage level, 10
    campaign repetitions, 5 mV descending schedule.  ``start_mv`` of
    ``None`` starts at nominal; ``stop_mv`` of ``None`` sweeps until
    ``stop_after_crash_levels`` consecutive all-crash levels, which is
    how the study detects the "cannot operate" floor without a
    predeclared stop.
    """

    start_mv: Optional[int] = None
    stop_mv: Optional[int] = None
    freq_mhz: int = FREQ_MAX_MHZ
    runs_per_level: int = 10
    campaigns: int = 10
    stop_after_crash_levels: int = 2
    run_timeout_s: float = 3600.0

    def __post_init__(self) -> None:
        validate_frequency_mhz(self.freq_mhz)
        if self.runs_per_level <= 0:
            raise ConfigurationError("runs_per_level must be positive")
        if self.campaigns <= 0:
            raise ConfigurationError("campaigns must be positive")
        if self.stop_after_crash_levels <= 0:
            raise ConfigurationError("stop_after_crash_levels must be positive")


def count_effects(records: Sequence[RunRecord]) -> None:
    """Bump ``repro_effects_total`` once per effect class in ``records``."""
    totals = Counter(
        effect.value for record in records for effect in record.effects
    )
    for value, amount in totals.items():
        telemetry.inc_counter(telemetry.M_EFFECTS, effect=value, amount=amount)


class CharacterizationFramework:
    """Drives one machine through undervolting campaigns."""

    def __init__(
        self,
        machine: Machine,
        config: FrameworkConfig = FrameworkConfig(),
        watchdog: Optional[WatchdogMonitor] = None,
    ) -> None:
        self.machine = machine
        self.config = config
        self.watchdog = watchdog or WatchdogMonitor(machine)
        #: Which outcome source the most recent :meth:`run_campaign`
        #: took: ``"batch"`` (compiled voltage table), ``"scalar"``
        #: (``machine.run_program``), or None before any campaign.
        self.last_campaign_path: Optional[str] = None
        #: Raw log text of every campaign, keyed by
        #: (benchmark, core, freq, campaign_index).
        self.raw_logs: Dict[Tuple[str, int, int, int], str] = {}
        #: Parsed-run statistics per raw log, keyed by the raw-log key
        #: and fingerprinted against the text, so diagnostics never
        #: re-parse a log they have already seen:
        #: key -> (fingerprint, n_runs, n_abnormal).
        self._parsed_stats: Dict[
            Tuple[str, int, int, int], Tuple[Tuple[int, int], int, int]
        ] = {}
        #: Execution metadata of the last engine-backed
        #: :meth:`characterize_many` (None until one has run).
        self.last_engine_report = None
        #: Batch kernels compiled this characterization, keyed by
        #: (benchmark, core, freq) -> (surface token, kernel); see
        #: :meth:`_kernel_for`.
        self._kernel_cache: Dict[
            Tuple[str, int, int], Tuple[str, CampaignKernel]
        ] = {}

    # -- phase 2: execution -----------------------------------------------

    def run_campaign(
        self,
        workload: object,
        core: int,
        campaign_index: int = 1,
    ) -> CampaignResult:
        """Execute one campaign: the full voltage schedule once.

        Returns the :class:`CampaignResult`; the raw log text is kept in
        :attr:`raw_logs`.

        Every campaign runs through :meth:`CampaignKernel.execute`.  When
        the machine's components are table-compilable its runs are
        sampled from the compiled voltage table, an order of magnitude
        faster; otherwise they come from ``machine.run_program`` -- the
        records and raw logs are bit-identical either way.
        :attr:`last_campaign_path` and the
        ``repro_kernel_campaigns_total`` counter record which outcome
        source ran.
        """
        program = as_program(workload)
        cfg = self.config
        start = cfg.start_mv if cfg.start_mv is not None else PMD_NOMINAL_MV
        floor = cfg.stop_mv if cfg.stop_mv is not None else 700
        schedule = voltage_sweep(start, floor)

        with telemetry.span(
            "campaign",
            benchmark=program.name,
            core=core,
            campaign=campaign_index,
            freq_mhz=cfg.freq_mhz,
        ):
            kernel = self._kernel_for(program, core)
            self.last_campaign_path = (
                "batch" if kernel.table is not None else "scalar"
            )
            telemetry.inc_counter(
                telemetry.M_KERNEL_CAMPAIGNS, path=self.last_campaign_path
            )
            log_text, result = kernel.execute(schedule, campaign_index)
            key = (program.name, core, cfg.freq_mhz, campaign_index)
            self.raw_logs[key] = log_text
            with telemetry.span("parse", campaign=campaign_index):
                # The kernel already built the records.
                count_effects(result.records)
                telemetry.inc_counter(
                    telemetry.M_PARSER_RUNS, amount=len(result.records)
                )
            self._record_parsed_stats(key, log_text, result.records)
        return result

    def _kernel_for(self, program: Program, core: int) -> CampaignKernel:
        """The campaign kernel of one setup, with its outcome source.

        Backed by the machine's compiled fault surface when it has a
        ``compile_batch_table`` hook and the hook returns a table, else
        by ``machine.run_program``.

        Compiled kernels are cached across the campaigns of one
        characterization, keyed by setup coordinates and invalidated by
        the machine's ``batch_surface_token`` (a value snapshot of every
        component the table depends on), so attaching an injector or
        swapping an extension model between campaigns recompiles -- or
        falls back -- exactly as a fresh compile would.
        """
        compile_table = getattr(self.machine, "compile_batch_table", None)
        token_of = getattr(self.machine, "batch_surface_token", None)
        key = (program.name, core, self.config.freq_mhz)
        table = None
        if compile_table is not None:
            if token_of is not None:
                cached = self._kernel_cache.get(key)
                if cached is not None and cached[0] == token_of():
                    return cached[1]
            table = compile_table(program, core, self.config.freq_mhz)
        kernel = CampaignKernel(
            self.machine, program, core, self.config, self.watchdog, table
        )
        if table is None:
            self._kernel_cache.pop(key, None)
        elif token_of is not None:
            self._kernel_cache[key] = (token_of(), kernel)
        return kernel

    # -- orchestration ---------------------------------------------------------

    def characterize(self, workload: object, core: int) -> CharacterizationResult:
        """Run the configured number of campaign repetitions."""
        campaigns = tuple(
            self.run_campaign(workload, core, campaign_index=i)
            for i in range(1, self.config.campaigns + 1)
        )
        return CharacterizationResult(campaigns=campaigns)

    def characterize_many(
        self,
        workloads: Sequence[object],
        cores: Sequence[int],
        jobs: int = 1,
        progress=None,
        store=None,
        resume: bool = False,
    ) -> Dict[Tuple[str, int], CharacterizationResult]:
        """Full grid: every workload on every core (Figure 4's sweep).

        The grid runs on the :class:`~repro.parallel.ParallelCampaignEngine`:
        every (workload, core, campaign) task executes on a fresh
        machine rebuilt from this machine's spec, with a seed derived
        from this machine's seed and the task's coordinates, so the
        result is **bit-identical for any ``jobs``** -- ``jobs=1`` runs
        the same tasks serially in process; ``jobs>1`` fans them out
        over a worker pool.

        ``store`` journals the grid into a campaign store directory
        (:mod:`repro.store`) as tasks complete; ``resume=True`` replays
        the journaled prefix and executes only the remainder, ending in
        the same results as an uninterrupted run.

        Extension models (droop, aging, adaptive clocking, rollback,
        injectors) ride along: they round-trip through the machine's
        spec (see :mod:`repro.machines`).  Only machines carrying
        *unregistered* third-party component models raise
        :class:`~repro.errors.ConfigurationError`.
        """
        from ..parallel.engine import ParallelCampaignEngine
        from ..parallel.progress import NULL_PROGRESS

        spec = machine_to_spec(self.machine)
        engine = ParallelCampaignEngine(
            spec,
            self.config,
            jobs=jobs,
            progress=progress if progress is not None else NULL_PROGRESS,
        )
        report = engine.run(workloads, cores, store=store, resume=resume)
        self.raw_logs.update(report.raw_logs)
        for (name, core), result in report.results.items():
            for campaign in result.campaigns:
                key = (name, core, self.config.freq_mhz, campaign.campaign_index)
                self._record_parsed_stats(
                    key, report.raw_logs[key], campaign.records
                )
        self.last_engine_report = report
        return report.results

    # -- misc -----------------------------------------------------------------------

    @staticmethod
    def _log_fingerprint(text: str) -> Tuple[int, int]:
        """Cheap identity of a raw log (length + CRC-32 of the text).

        Deliberately *not* the builtin ``hash``: that one is salted by
        ``PYTHONHASHSEED``, so its fingerprints are process-local and
        would spuriously mismatch across worker restarts or resumed
        sessions.
        """
        return (len(text), zlib.crc32(text.encode("utf-8")))

    def _record_parsed_stats(
        self,
        key: Tuple[str, int, int, int],
        text: str,
        records: Sequence[object],
    ) -> None:
        """Cache run counts for :meth:`abnormal_run_fraction`."""
        normal = frozenset({EffectType.NO})
        abnormal = sum(
            1 for record in records if record.effects != normal
        )
        self._parsed_stats[key] = (
            self._log_fingerprint(text), len(records), abnormal
        )

    def abnormal_run_fraction(self) -> float:
        """Fraction of logged runs with any abnormal effect (diagnostics).

        Parsed-run statistics are cached per raw log (and validated
        against the log text), so repeated diagnostics calls never
        re-parse the raw text; a new campaign only parses its own log.
        """
        total = abnormal = 0
        for key, text in self.raw_logs.items():
            cached = self._parsed_stats.get(key)
            if cached is None or cached[0] != self._log_fingerprint(text):
                parsed = parse_log(text)
                count = sum(
                    1 for run in parsed
                    if run.effects != frozenset({EffectType.NO})
                )
                cached = (self._log_fingerprint(text), len(parsed), count)
                self._parsed_stats[key] = cached
            total += cached[1]
            abnormal += cached[2]
        return abnormal / total if total else 0.0
