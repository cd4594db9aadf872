"""The parallel characterization engine: determinism, fallbacks, caching."""

import concurrent.futures
import functools
import io
import os

import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import CampaignResult, CharacterizationResult
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import ConfigurationError
# reprolint: disable=RPR003 -- MachineSpec.from_machine round-trip tests
from repro.hardware import (
    AdaptiveClockingUnit,
    AgingModel,
    SupplyDroopModel,
    XGene2Machine,
)
from repro.parallel import (
    MachineSpec,
    ParallelCampaignEngine,
    ConsoleProgress,
    ProgressReporter,
    ProgressTracker,
    derive_task_seed,
)
from repro.parallel import engine as engine_mod
from repro.parallel.tasks import run_campaign_chunk
from repro.store import JOURNAL_NAME
from repro.workloads import get_benchmark

#: Small but watchdog-exercising configuration: the sweep starts right
#: below bwaves/mcf Vmin and descends into the crash region.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)


def grid_engine(**kwargs):
    return ParallelCampaignEngine(SPEC, CFG, **kwargs)


def run_grid(store=None, **kwargs):
    return grid_engine(**kwargs).run(
        [get_benchmark("bwaves")], [0, 4], store=store)


def fail_once_in_worker(flag, parent_pid, die, spec, config, tasks,
                        collect_spans=False):
    """A picklable chunk function: the first chunk a pool worker starts
    fails (``die``: the worker exits mid-chunk, else it raises); every
    other call, and any call in the parent process, runs normally.
    The ``O_EXCL`` flag file makes "first" hold across processes."""
    if os.getpid() != parent_pid:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            if die:
                os._exit(1)
            raise RuntimeError("simulated worker failure")
    return run_campaign_chunk(spec, config, tasks, collect_spans)


def journal_lines(store):
    return (store / JOURNAL_NAME).read_bytes().splitlines(keepends=True)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_task_seed(2017, "bwaves", 0, 1) == \
            derive_task_seed(2017, "bwaves", 0, 1)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_task_seed(seed, bench, core, campaign)
            for seed in (1, 2017)
            for bench in ("bwaves", "mcf")
            for core in (0, 4)
            for campaign in (1, 2, 3)
        }
        assert len(seeds) == 2 * 2 * 2 * 3

    def test_positive_63_bit(self):
        seed = derive_task_seed(2017, "bwaves", 7, 10)
        assert 0 <= seed < 2 ** 63


class TestMachineSpec:
    def test_from_machine_round_trip(self):
        machine = XGene2Machine("TFF", seed=42)
        spec = MachineSpec.from_machine(machine)
        assert spec.chip == "TFF" and spec.seed == 42
        rebuilt = spec.build()
        assert rebuilt.chip.name == "TFF"
        assert rebuilt.is_responsive()  # build() powers on

    def test_build_with_override_seed(self):
        machine = MachineSpec(chip="TTT", seed=1).build(seed=99)
        assert machine.seed == 99

    def test_captures_extension_models(self):
        machine = XGene2Machine("TTT", droop_model=SupplyDroopModel())
        spec = MachineSpec.from_machine(machine)
        assert spec.droop_model == SupplyDroopModel()
        rebuilt = spec.build()
        assert rebuilt.droop_model == SupplyDroopModel()
        assert rebuilt.to_spec() == spec

    def test_rejects_unregistered_third_party_models(self):
        class ExoticDroop(SupplyDroopModel):
            pass

        machine = XGene2Machine("TTT", droop_model=ExoticDroop())
        with pytest.raises(ConfigurationError, match="register_component"):
            MachineSpec.from_machine(machine)


class TestEngineEquivalence:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_grid(jobs=1)
        parallel = run_grid(jobs=4)
        assert serial.backend == "serial" and parallel.backend == "process"
        assert serial.results == parallel.results
        assert serial.raw_logs == parallel.raw_logs
        for key in serial.results:
            assert serial.results[key].severity_by_voltage() == \
                parallel.results[key].severity_by_voltage()
            assert serial.results[key].highest_vmin_mv == \
                parallel.results[key].highest_vmin_mv
            assert serial.results[key].highest_crash_mv == \
                parallel.results[key].highest_crash_mv
        # The sweep descends into the crash region, so the equivalence
        # covers the worker-side watchdog-recovery path.
        assert serial.interventions == parallel.interventions > 0

    def test_two_workers_match(self):
        parallel = run_grid(jobs=2)
        assert parallel.backend == "process" and parallel.jobs == 2
        assert run_grid(jobs=1).results == parallel.results

    def test_campaign_order_restored(self):
        report = run_grid(jobs=2)
        assert report.backend == "process"
        for result in report.results.values():
            indices = [c.campaign_index for c in result.campaigns]
            assert indices == sorted(indices)


class TestRetryPolicy:
    def _flaky(self, monkeypatch, tmp_path, die):
        monkeypatch.setattr(engine_mod, "run_campaign_chunk", functools.partial(
            fail_once_in_worker, str(tmp_path / "failed"), os.getpid(), die))

    def test_lost_chunk_retried_in_process(self, monkeypatch, tmp_path):
        self._flaky(monkeypatch, tmp_path, die=False)
        with pytest.warns(RuntimeWarning, match="retrying in-process"):
            report = run_grid(jobs=2)
        monkeypatch.undo()
        assert report.backend == "process"
        assert report.chunks_retried == 1
        assert report.results == run_grid(jobs=1).results

    def test_dead_worker_chunks_rerun_in_process(self, monkeypatch, tmp_path):
        serial = run_grid(store=tmp_path / "serial", jobs=1)
        self._flaky(monkeypatch, tmp_path, die=True)
        with pytest.warns(RuntimeWarning, match="retrying in-process"):
            report = run_grid(store=tmp_path / "pooled", jobs=2)
        monkeypatch.undo()
        assert report.backend == "process"
        assert report.chunks_retried >= 1
        assert report.results == serial.results
        assert report.raw_logs == serial.raw_logs
        assert sorted(journal_lines(tmp_path / "pooled")) == \
            sorted(journal_lines(tmp_path / "serial"))

    def test_pool_start_failure_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="running serially"):
            report = run_grid(jobs=2)
        monkeypatch.undo()
        assert report.backend == "serial" and report.jobs == 1
        serial = run_grid(jobs=1)
        assert report.results == serial.results
        assert report.raw_logs == serial.raw_logs


class TestEngineValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=1).run([], [])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_engine(jobs=0)


class TestFrameworkWiring:
    def _framework(self):
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        return CharacterizationFramework(machine, CFG)

    def test_characterize_many_jobs_equivalence(self):
        serial = self._framework().characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=1)
        parallel = self._framework().characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=4)
        assert serial == parallel

    def test_raw_logs_and_report_populated(self):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=2)
        assert len(framework.raw_logs) == CFG.campaigns
        assert framework.last_engine_report is not None
        assert framework.last_engine_report.tasks_run == CFG.campaigns
        assert framework.last_engine_report.interventions > 0

    def test_abnormal_fraction_served_from_cache(self, monkeypatch):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=1)
        first = framework.abnormal_run_fraction()
        assert 0.0 < first <= 1.0

        from repro.core import framework as framework_mod

        def exploding_parse(text):
            raise AssertionError("raw log was re-parsed")

        monkeypatch.setattr(framework_mod, "parse_log", exploding_parse)
        assert framework.abnormal_run_fraction() == first

    def test_abnormal_fraction_invalidates_on_log_change(self):
        framework = self._framework()
        framework.characterize_many([get_benchmark("bwaves")], [0], jobs=1)
        key = next(iter(framework.raw_logs))
        framework.raw_logs[key] = framework.raw_logs[key] * 2
        doubled = framework.abnormal_run_fraction()
        assert 0.0 < doubled <= 1.0

    def _extension_framework(self, config=CFG):
        machine = XGene2Machine(
            "TTT", seed=2017,
            droop_model=SupplyDroopModel(),
            aging_model=AgingModel(),
            adaptive_clock=AdaptiveClockingUnit(),
        )
        machine.age(2000.0)
        machine.power_on()
        return CharacterizationFramework(machine, config)

    def test_extension_machine_parallel_matches_serial(self):
        # The acceptance scenario: droop + aging + adaptive clocking,
        # jobs=4 bit-identical to jobs=1 (results AND raw logs).
        serial = self._extension_framework()
        serial_results = serial.characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=1)
        parallel = self._extension_framework()
        parallel_results = parallel.characterize_many(
            [get_benchmark("bwaves")], [0, 4], jobs=4)
        assert serial_results == parallel_results
        assert serial.raw_logs == parallel.raw_logs
        assert parallel.last_engine_report.backend != "serial"

    def test_extension_models_shift_the_characterization(self):
        # The rebuilt machines must actually carry the models: an aged,
        # droop-afflicted machine characterizes differently from a
        # nominal one.  The sweep starts at 930 mV because the shifted
        # Vmin climbs above the default 905 mV test start.
        cfg = FrameworkConfig(start_mv=930, campaigns=2, runs_per_level=3)
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        nominal = CharacterizationFramework(machine, cfg).characterize_many(
            [get_benchmark("bwaves")], [0], jobs=2)
        shifted = self._extension_framework(cfg).characterize_many(
            [get_benchmark("bwaves")], [0], jobs=2)
        assert shifted[("bwaves", 0)].highest_vmin_mv > \
            nominal[("bwaves", 0)].highest_vmin_mv


class TestProgress:
    def test_tracker_events(self):
        events = []

        class Recorder(ProgressReporter):
            def on_progress(self, event):
                events.append(event)

        tracker = ProgressTracker(4, Recorder())
        tracker.advance(1)
        tracker.advance(3)
        assert [e.completed for e in events] == [1, 4]
        assert all(e.total == 4 for e in events)
        assert events[0].eta_s is not None and events[0].eta_s >= 0.0
        assert events[-1].fraction == 1.0 and events[-1].eta_s == 0.0

    def test_engine_reports_progress(self):
        events = []

        class Recorder(ProgressReporter):
            def on_progress(self, event):
                events.append(event)

        engine = ParallelCampaignEngine(SPEC, CFG, jobs=1, progress=Recorder())
        engine.run([get_benchmark("bwaves")], [0])
        assert events[-1].completed == events[-1].total == CFG.campaigns

    def test_console_progress_renders(self):
        stream = io.StringIO()
        reporter = ConsoleProgress(stream=stream, label="tasks")
        tracker = ProgressTracker(2, reporter)
        tracker.advance(2)
        tracker.finish()
        text = stream.getvalue()
        assert "tasks: 2/2" in text and "100.0 %" in text
        assert text.endswith("\n")


def _record(voltage, effects, campaign=1, run=1):
    return RunRecord(
        chip="TTT", benchmark="bwaves",
        setup=CharacterizationSetup(voltage_mv=voltage, freq_mhz=2400, core=0),
        campaign_index=campaign, run_index=run,
        effects=frozenset(effects), exit_code=0, output_matches=True,
    )


class TestAggregationCaching:
    def _campaign(self):
        records = tuple(
            _record(v, {EffectType.SDC} if v < 910 else {EffectType.NO}, run=r)
            for v in (915, 910, 905) for r in range(1, 4)
        )
        return CampaignResult(chip="TTT", benchmark="bwaves", core=0,
                              freq_mhz=2400, campaign_index=1, records=records)

    def test_severity_is_single_pass(self, monkeypatch):
        campaign = self._campaign()

        def forbidden(self, voltage_mv):
            raise AssertionError("severity_by_voltage rescanned records")

        monkeypatch.setattr(CampaignResult, "runs_at", forbidden)
        severity = campaign.severity_by_voltage()
        assert severity[905] == pytest.approx(4.0 * 3 / 3)

    def test_counts_copy_is_isolated(self):
        campaign = self._campaign()
        mutated = campaign.counts_by_voltage()
        mutated[905][EffectType.SDC] = 999
        assert campaign.counts_by_voltage()[905][EffectType.SDC] == 3

    def test_run_counts_by_voltage(self):
        campaign = self._campaign()
        assert campaign.run_counts_by_voltage() == {915: 3, 910: 3, 905: 3}

    def test_characterization_severity_uses_pooled_cache(self):
        campaign = self._campaign()
        result = CharacterizationResult(campaigns=(campaign,))
        assert result.severity_by_voltage() == campaign.severity_by_voltage()
        # cached views are per-instance and never leak between objects
        assert result.pooled_counts() == campaign.counts_by_voltage()
