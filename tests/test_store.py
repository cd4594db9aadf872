"""The journaled campaign store: schema, crash-resume determinism, exports.

The acceptance scenario throughout: kill a journaled grid after *any*
prefix of its tasks, resume it, and get results -- and exported CSV
bytes -- identical to the uninterrupted run.
"""

import contextlib
import json

import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import CharacterizationResult
from repro.core.results import ResultStore
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import CampaignError, ConfigurationError, StoreError
from repro.machines import build_machine
from repro.parallel import (
    MachineSpec,
    ParallelCampaignEngine,
    ProgressReporter,
    derive_task_seed,
)
from repro.store import (
    CampaignManifest,
    CampaignStore,
    JOURNAL_NAME,
    MANIFEST_NAME,
    STORE_FORMAT,
    StoredCampaign,
)
from repro.telemetry import (
    M_EFFECTS,
    M_PARSER_RUNS,
    MetricsRegistry,
    telemetry_session,
)
from repro.workloads import get_benchmark

from .conftest import scalar_path

#: Same watchdog-exercising grid as test_parallel: the sweep starts
#: right below bwaves Vmin and descends into the crash region, so
#: resume equivalence covers the watchdog-recovery path too.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
CORES = [0, 4]
TOTAL_TASKS = 1 * len(CORES) * CFG.campaigns  # bwaves x {0,4} x 2


def engine(**kwargs):
    return ParallelCampaignEngine(SPEC, CFG, **kwargs)


def run_grid(store=None, resume=False, **kwargs):
    return engine(**kwargs).run(
        [get_benchmark("bwaves")], CORES, store=store, resume=resume)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted, storeless serial run every test compares to."""
    return run_grid(jobs=1)


@pytest.fixture(scope="module")
def full_store(tmp_path_factory):
    """A completed journaled run plus its exported CSV baseline."""
    directory = tmp_path_factory.mktemp("complete-store")
    run_grid(store=directory, jobs=1)
    baseline = tmp_path_factory.mktemp("baseline-export")
    CampaignStore.open(directory).export_csv(baseline)
    return directory, baseline


def truncated_copy(full_store_dir, tmp_path, keep):
    """A store directory whose journal holds only the first ``keep`` lines,
    simulating a run killed after that many completed tasks."""
    target = tmp_path / "killed"
    target.mkdir()
    manifest = (full_store_dir / MANIFEST_NAME).read_text()
    (target / MANIFEST_NAME).write_text(manifest)
    lines = (full_store_dir / JOURNAL_NAME).read_text().splitlines(keepends=True)
    (target / JOURNAL_NAME).write_text("".join(lines[:keep]))
    return target


class TestManifest:
    def manifest(self):
        return CampaignManifest(
            spec=SPEC, config=CFG, workloads=("bwaves",), cores=tuple(CORES))

    def test_json_round_trip(self):
        manifest = self.manifest()
        data = manifest.to_json_dict()
        assert data["format"] == STORE_FORMAT
        assert data["spec_digest"] == SPEC.digest()
        assert CampaignManifest.from_json_dict(data) == manifest

    def test_unknown_format_rejected(self):
        data = self.manifest().to_json_dict()
        data["format"] = "repro-campaign/v999"
        with pytest.raises(CampaignError, match="format"):
            CampaignManifest.from_json_dict(data)

    def test_tampered_spec_digest_rejected(self):
        data = self.manifest().to_json_dict()
        data["spec_digest"] = "0" * 64
        with pytest.raises(CampaignError, match="digest"):
            CampaignManifest.from_json_dict(data)

    def test_open_digest_mismatch_names_both_digests_and_path(self, tmp_path):
        """A tampered on-disk manifest is rejected with a message naming
        the pinned digest, the recomputed digest and the offending file
        -- the debugging handles a fleet operator needs to find which
        shard was edited."""
        CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        manifest_path = tmp_path / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["spec_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(CampaignError) as excinfo:
            CampaignStore.open(tmp_path)
        message = str(excinfo.value)
        assert "0" * 64 in message
        assert SPEC.digest() in message
        assert str(manifest_path) in message

    def test_expected_keys_in_reference_serial_order(self):
        manifest = CampaignManifest(
            spec=SPEC, config=CFG, workloads=("bwaves", "mcf"), cores=(0, 4))
        keys = manifest.expected_keys()
        assert keys[:4] == [
            ("bwaves", 0, 1), ("bwaves", 0, 2),
            ("bwaves", 4, 1), ("bwaves", 4, 2),
        ]
        assert len(keys) == 2 * 2 * CFG.campaigns

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignManifest(
                spec=SPEC, config=CFG, workloads=(), cores=tuple(CORES))


class TestRunRecordCodecs:
    def record(self, **overrides):
        fields = dict(
            chip="TTT", benchmark="bwaves",
            setup=CharacterizationSetup(voltage_mv=905, freq_mhz=2400, core=4),
            campaign_index=2, run_index=3,
            effects=frozenset({EffectType.SDC, EffectType.CE}),
            exit_code=None, output_matches=None,
            edac_ce=7, edac_ue=1, watchdog_intervened=True,
            detail={"mismatched_lines": 12},
        )
        fields.update(overrides)
        return RunRecord(**fields)

    def test_json_round_trip_is_exact(self):
        record = self.record()
        rebuilt = RunRecord.from_json_dict(record.to_json_dict())
        assert rebuilt == record
        assert rebuilt.detail == {"mismatched_lines": 12}

    def test_json_survives_serialization(self):
        record = self.record(exit_code=139, output_matches=False)
        payload = json.dumps(record.to_json_dict(), sort_keys=True)
        assert RunRecord.from_json_dict(json.loads(payload)) == record

    def test_malformed_json_dict_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            RunRecord.from_json_dict({"chip": "TTT"})

    def test_csv_row_round_trip(self):
        record = self.record(detail={})
        row = {key: str(value) for key, value in record.csv_row().items()}
        assert RunRecord.from_csv_row(row) == record

    def test_malformed_csv_row_rejected(self):
        with pytest.raises(CampaignError, match="malformed"):
            RunRecord.from_csv_row({"chip": "TTT", "core": "not-an-int"})


def raw_log_of(reference, campaign):
    """The raw log the reference run recorded for ``campaign``."""
    return reference.raw_logs[(campaign.benchmark, campaign.core,
                               campaign.freq_mhz, campaign.campaign_index)]


class TestStoredCampaign:
    def stored(self, reference):
        result = reference.results[("bwaves", 0)]
        campaign = result.campaigns[0]
        return StoredCampaign(
            benchmark="bwaves", core=0,
            campaign_index=campaign.campaign_index,
            seed=derive_task_seed(SPEC.seed, "bwaves", 0, 1),
            freq_mhz=campaign.freq_mhz, interventions=3,
            raw_log=raw_log_of(reference, campaign), records=campaign.records,
        )

    def test_json_round_trip(self, reference):
        stored = self.stored(reference)
        assert StoredCampaign.from_json_dict(stored.to_json_dict()) == stored

    def test_campaign_result_reconstruction(self, reference):
        stored = self.stored(reference)
        assert stored.campaign_result() == reference.results[
            ("bwaves", 0)].campaigns[0]

    def test_empty_records_rejected(self, reference):
        with pytest.raises(CampaignError):
            self.stored(reference).__class__(
                benchmark="bwaves", core=0, campaign_index=1, seed=1,
                freq_mhz=2400, interventions=0, raw_log="", records=())


class TestJournalIntegrity:
    def test_create_twice_rejected(self, tmp_path):
        CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        with pytest.raises(CampaignError, match="already exists"):
            CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign store"):
            CampaignStore.open(tmp_path / "nowhere")

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CampaignError, match="corrupt"):
            CampaignStore.open(tmp_path)

    def test_torn_trailing_line_tolerated(self, full_store, tmp_path):
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=2)
        full_line = (full_dir / JOURNAL_NAME).read_text().splitlines()[2]
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(full_line[: len(full_line) // 2])  # torn append
        store = CampaignStore.open(target)
        assert len(store.completed_keys()) == 2

    def test_torn_tail_truncated_before_next_append(
            self, reference, full_store, tmp_path):
        """A torn tail must not merge with the next appended record."""
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=1)
        full_line = (full_dir / JOURNAL_NAME).read_text().splitlines()[1]
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(full_line[: len(full_line) // 2])  # crash mid-append
        store = CampaignStore.open(target)
        campaign = reference.results[("bwaves", 0)].campaigns[1]
        store.append_campaign(campaign, raw_log_of(reference, campaign),
                              seed=1, interventions=0)
        lines = (target / JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 2
        for line in lines:  # the fragment is gone, every line parses
            json.loads(line)
        assert len(CampaignStore.open(target).completed_keys()) == 2

    def test_parseable_unterminated_tail_treated_as_torn(
            self, full_store, tmp_path):
        """A complete JSON line without its newline is still an
        interrupted append: it is dropped, not merged into."""
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=2)
        journal = target / JOURNAL_NAME
        journal.write_text(journal.read_text()[:-1])  # strip final newline
        store = CampaignStore.open(target)
        assert len(store.completed_keys()) == 1

    def test_mid_file_corruption_rejected(self, full_store, tmp_path):
        full_dir, _ = full_store
        target = truncated_copy(full_dir, tmp_path, keep=TOTAL_TASKS)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        lines[1] = "{torn mid-file line}\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(CampaignError, match="corrupt journal line 2"):
            CampaignStore.open(target)

    @pytest.mark.parametrize("edit", ["foreign raw log", "freq_mhz"])
    def test_raw_log_of_another_task_rejected_at_open(
            self, full_store, tmp_path, edit):
        """Records are derived from the raw log, so a line whose log
        names a different (benchmark, core, campaign, freq) than the
        line's own key must not open."""
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        data = json.loads(lines[1])
        if edit == "foreign raw log":
            data["raw_log"] = json.loads(lines[0])["raw_log"]
        else:
            data["freq_mhz"] = 1200
        lines[1] = json.dumps(data, sort_keys=True) + "\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(StoreError, match="journal line 2"):
            CampaignStore.open(target)

    def test_unparseable_raw_log_rejected_at_open(self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=TOTAL_TASKS)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        data = json.loads(lines[2])
        data["raw_log"] = data["raw_log"].replace("status=", "stat=")
        lines[2] = json.dumps(data, sort_keys=True) + "\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(StoreError, match="journal line 3.*status"):
            CampaignStore.open(target)

    def test_append_refuses_records_its_log_does_not_derive(
            self, reference, tmp_path):
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        first, second = reference.results[("bwaves", 0)].campaigns
        with pytest.raises(CampaignError, match="re-derive"):
            store.append_campaign(first, raw_log_of(reference, second),
                                  seed=1, interventions=0)
        with pytest.raises(CampaignError, match="does not parse"):
            store.append_campaign(first, "log\n", seed=1, interventions=0)
        assert not store.completed_keys()
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_open_and_replay_bump_no_parse_metrics(self, full_store):
        """Run and effect counters describe the parsing phase of
        campaigns executed now, not every re-derivation of a stored
        log."""
        registry = MetricsRegistry()
        with telemetry_session(metrics=registry):
            store = CampaignStore.open(full_store[0])
            report = run_grid(store=store, resume=True, jobs=1)
        assert report.tasks_skipped == TOTAL_TASKS
        assert registry.counter(M_PARSER_RUNS).value == 0
        for effect in EffectType:
            assert registry.counter(M_EFFECTS, effect=effect.value).value == 0

        machine = build_machine(SPEC)
        with telemetry_session(metrics=registry), scalar_path(machine):
            framework = CharacterizationFramework(machine, CFG)
            campaign = framework.run_campaign(get_benchmark("bwaves"), 0)
        assert registry.counter(M_PARSER_RUNS).value == len(campaign.records)

    def test_duplicate_append_rejected(self, reference, tmp_path):
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], CORES)
        campaign = reference.results[("bwaves", 0)].campaigns[0]
        store.append_campaign(campaign, raw_log_of(reference, campaign),
                              seed=1, interventions=0)
        # The duplicate check runs before the raw log is even parsed.
        with pytest.raises(CampaignError, match="already journaled"):
            store.append_campaign(campaign, "log\n", seed=1, interventions=0)

    def test_out_of_grid_append_rejected(self, reference, tmp_path):
        store = CampaignStore.create(tmp_path, SPEC, CFG, ["bwaves"], [0])
        stray = reference.results[("bwaves", 4)].campaigns[0]
        with pytest.raises(CampaignError, match="not part of this store"):
            store.append_campaign(stray, "log\n", seed=1, interventions=0)

    def test_validate_run_rejects_different_seed_material(self, full_store):
        store = CampaignStore.open(full_store[0])
        with pytest.raises(CampaignError, match="spec"):
            store.validate_run(
                MachineSpec(chip="TTT", seed=1), CFG, ["bwaves"], CORES)

    def test_validate_run_rejects_different_grid(self, full_store):
        store = CampaignStore.open(full_store[0])
        with pytest.raises(CampaignError, match="core grid"):
            store.validate_run(SPEC, CFG, ["bwaves"], [0])


class TestResumeDeterminism:
    """Acceptance: kill after any prefix, resume, get identical bytes."""

    @pytest.mark.parametrize("kill_point", range(TOTAL_TASKS))
    def test_resume_bit_identical_after_any_kill_point(
            self, reference, full_store, tmp_path, kill_point):
        full_dir, baseline = full_store
        target = truncated_copy(full_dir, tmp_path, keep=kill_point)
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.tasks_skipped == kill_point
        assert report.tasks_run == TOTAL_TASKS - kill_point
        assert report.results == reference.results
        assert report.raw_logs == reference.raw_logs
        assert report.interventions == reference.interventions > 0
        export = tmp_path / "export"
        CampaignStore.open(target).export_csv(export)
        for name in ("runs.csv", "severity.csv"):
            assert (export / name).read_bytes() == \
                (baseline / name).read_bytes()

    def test_torn_tail_then_resume_then_reopen(
            self, reference, full_store, tmp_path):
        """The reviewer scenario: crash mid-append leaves a torn tail,
        resume appends the remaining tasks, and the store must still
        open cleanly afterwards (no merged corrupt line)."""
        full_dir, baseline = full_store
        target = truncated_copy(full_dir, tmp_path, keep=1)
        lines = (full_dir / JOURNAL_NAME).read_text().splitlines()
        with (target / JOURNAL_NAME).open("a") as handle:
            handle.write(lines[1][: len(lines[1]) // 2])  # crash mid-append
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.tasks_skipped == 1
        assert report.results == reference.results
        store = CampaignStore.open(target)  # would raise pre-truncation
        assert store.is_complete()
        export = tmp_path / "export"
        store.export_csv(export)
        for name in ("runs.csv", "severity.csv"):
            assert (export / name).read_bytes() == \
                (baseline / name).read_bytes()

    def test_resume_of_complete_store_replays_everything(
            self, reference, full_store, tmp_path):
        report = run_grid(store=full_store[0], resume=True, jobs=1)
        assert report.tasks_skipped == TOTAL_TASKS
        assert report.tasks_run == 0
        assert report.results == reference.results

    def test_resume_with_parallel_backend_matches(
            self, reference, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=1)
        report = run_grid(store=target, resume=True, jobs=2)
        assert report.backend == "process"
        assert report.results == reference.results
        assert report.raw_logs == reference.raw_logs

    def test_journaled_store_without_resume_rejected(self, full_store):
        with pytest.raises(CampaignError, match="resume"):
            run_grid(store=full_store[0], resume=False, jobs=1)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_grid(store=None, resume=True, jobs=1)

    def test_foreign_seed_material_rejected_on_replay(
            self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=2)
        lines = (target / JOURNAL_NAME).read_text().splitlines(keepends=True)
        data = json.loads(lines[0])
        data["seed"] += 1
        lines[0] = json.dumps(data, sort_keys=True) + "\n"
        (target / JOURNAL_NAME).write_text("".join(lines))
        with pytest.raises(CampaignError, match="seed"):
            run_grid(store=target, resume=True, jobs=1)

    def test_real_interruption_then_resume(self, reference, full_store,
                                           tmp_path):
        """Not a simulated prefix: actually kill a running grid mid-way
        (via its progress stream), then resume the survivor directory."""

        class KillSwitch(ProgressReporter):
            def __init__(self, after):
                self.after = after
                self.seen = 0

            def on_progress(self, event):
                self.seen += 1
                if self.seen >= self.after:
                    raise RuntimeError("power loss")

        target = tmp_path / "interrupted"
        with pytest.raises(RuntimeError, match="power loss"):
            # jobs=1 runs this 4-task grid one task per chunk.
            engine(jobs=1, progress=KillSwitch(2)).run(
                [get_benchmark("bwaves")], CORES, store=target)
        survivor = CampaignStore.open(target)
        assert 0 < len(survivor.completed_keys()) < TOTAL_TASKS
        report = run_grid(store=target, resume=True, jobs=1)
        assert report.results == reference.results
        export = tmp_path / "export"
        CampaignStore.open(target).export_csv(export)
        for name in ("runs.csv", "severity.csv"):
            assert (export / name).read_bytes() == \
                (full_store[1] / name).read_bytes()


class TestStoreConsumers:
    def test_from_store_round_trips_severity_exactly(
            self, reference, full_store):
        result = CharacterizationResult.from_store(full_store[0], "bwaves", 0)
        original = reference.results[("bwaves", 0)]
        assert result.severity_by_voltage() == original.severity_by_voltage()
        assert result.highest_vmin_mv == original.highest_vmin_mv
        assert result.highest_crash_mv == original.highest_crash_mv

    def test_result_for_incomplete_cell_rejected(self, full_store, tmp_path):
        target = truncated_copy(full_store[0], tmp_path, keep=1)
        store = CampaignStore.open(target)
        with pytest.raises(CampaignError):
            store.result_for("bwaves", 4)

    def test_exported_runs_csv_reads_back_typed(self, full_store, tmp_path):
        CampaignStore.open(full_store[0]).export_csv(tmp_path)
        rows = ResultStore(tmp_path).read_runs_csv()
        assert rows and all(isinstance(row, RunRecord) for row in rows)
        assert {row.setup.core for row in rows} == set(CORES)

    def test_framework_characterize_many_journals_and_resumes(
            self, reference, tmp_path):
        machine = build_machine(SPEC)
        framework = CharacterizationFramework(machine, CFG)
        first = framework.characterize_many(
            [get_benchmark("bwaves")], CORES, jobs=1, store=tmp_path)
        assert (tmp_path / MANIFEST_NAME).exists()
        assert CampaignStore.open(tmp_path).is_complete()
        resumed = CharacterizationFramework(
            build_machine(SPEC), CFG).characterize_many(
            [get_benchmark("bwaves")], CORES, jobs=1,
            store=tmp_path, resume=True)
        assert first == resumed
        assert resumed[("bwaves", 0)].severity_by_voltage() == \
            reference.results[("bwaves", 0)].severity_by_voltage()


class TestKernelPathStoreEquivalence:
    """The batch source must journal byte-identical store contents.

    The acceptance scenario of this module rerun on both outcome
    sources (the scalar one selected through ``scalar_path``):
    persistence happens downstream of campaign execution, so the
    bit-identical RunRecord contract must survive all the way into the
    journal bytes on disk.
    """

    def test_journal_bytes_identical_across_paths(self, tmp_path):
        journals = {}
        for batch in (False, True):
            directory = tmp_path / ("kernel" if batch else "scalar")
            directory.mkdir()
            with contextlib.nullcontext() if batch else scalar_path():
                run_grid(store=directory, jobs=1)
            journals[batch] = (directory / JOURNAL_NAME).read_bytes()
        assert journals[False] == journals[True]

    def test_kernel_journal_resumes_on_scalar_path(self, tmp_path):
        # A journal written by the batch source must be resumable on
        # the scalar source (and vice versa): the store records
        # observables, not which outcome source produced them.
        run_grid(store=tmp_path, jobs=1)
        killed = truncated_copy(tmp_path, tmp_path, keep=2)
        with scalar_path():
            resumed = run_grid(store=killed, resume=True, jobs=1)
        full = run_grid(jobs=1)
        assert resumed.results == full.results
        assert (killed / JOURNAL_NAME).read_bytes() == \
            (tmp_path / JOURNAL_NAME).read_bytes()
