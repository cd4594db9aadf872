"""The fleet store: sharding, watermarks, compaction, warm indexes.

The acceptance contracts under test:

* a fleet of N machines journals bit-identically to N independent
  single-machine ``CampaignStore`` runs, including kill-and-resume;
* every warm index answer is byte-identical to a recompute through a
  full journal re-parse, at every kill point and under interleaved
  multi-process shard appends;
* compaction permutes journal line bytes into grid order and changes
  no answer.
"""

import dataclasses
import json
import multiprocessing
import os
import shutil
from collections import Counter

import pytest

from repro.core import FrameworkConfig
from repro.errors import CampaignError, StoreError
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine, run_fleet
from repro.prediction import FleetStreamingTrainer, StreamingTrainer
from repro.prediction.dataset import vmin_dataset_from_store
from repro.store import (
    FLEET_FORMAT,
    FLEET_MANIFEST_NAME,
    CampaignStore,
    FleetManifest,
    FleetStore,
    JOURNAL_NAME,
    ShardEntry,
    StoreIndexes,
    reparse_serialization,
)
from repro.workloads import get_benchmark

#: The same fast watchdog-exercising cell as test_store: mcf core 0
#: starting just under Vmin descends into the crash region quickly.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SEEDS = (2017, 2018, 2019)
SPECS = [MachineSpec(chip="TTT", seed=seed) for seed in SEEDS]
WORKLOADS = ["mcf"]
CORES = [0]
SHARD_TASKS = len(WORKLOADS) * len(CORES) * CFG.campaigns


def make_fleet(directory):
    return FleetStore.create(directory, SPECS, CFG, WORKLOADS, CORES)


def run_shard_standalone(spec, directory):
    """One machine's grid into a plain single-machine store."""
    engine = ParallelCampaignEngine(spec, CFG)
    engine.run([get_benchmark("mcf")], CORES, store=directory)
    return directory


@pytest.fixture(scope="module")
def complete_fleet(tmp_path_factory):
    """A fully characterized three-machine fleet."""
    directory = tmp_path_factory.mktemp("fleet")
    make_fleet(directory)
    run_fleet(directory)
    return directory


@pytest.fixture(scope="module")
def standalone_journals(tmp_path_factory):
    """Per-seed journal bytes from independent single-machine runs."""
    journals = {}
    for spec in SPECS:
        directory = tmp_path_factory.mktemp(f"solo-{spec.seed}")
        run_shard_standalone(spec, directory)
        journals[spec.seed] = (directory / JOURNAL_NAME).read_bytes()
    return journals


class TestFleetManifest:
    def manifest(self):
        return FleetManifest(
            config=CFG,
            workloads=tuple(WORKLOADS),
            cores=tuple(CORES),
            shards=tuple(
                ShardEntry(
                    name=f"m{i:02d}-{spec.digest()[:8]}",
                    spec_digest=spec.digest(),
                    path=f"shards/m{i:02d}-{spec.digest()[:8]}",
                    watermark=0,
                    total=SHARD_TASKS,
                )
                for i, spec in enumerate(SPECS)
            ),
        )

    def test_json_round_trip(self):
        manifest = self.manifest()
        data = manifest.to_json_dict()
        assert data["format"] == FLEET_FORMAT
        assert FleetManifest.from_json_dict(data) == manifest

    def test_unknown_format_rejected(self):
        data = self.manifest().to_json_dict()
        data["format"] = "repro-fleet/v999"
        with pytest.raises(StoreError, match="format"):
            FleetManifest.from_json_dict(data)

    def test_duplicate_shard_digests_rejected(self):
        manifest = self.manifest()
        with pytest.raises(StoreError, match="distinct"):
            dataclasses.replace(
                manifest, shards=(manifest.shards[0], manifest.shards[0])
            )

    def test_unknown_routing_digest_names_known_shards(self):
        manifest = self.manifest()
        with pytest.raises(StoreError, match=manifest.shards[0].name):
            manifest.entry_for("f" * 64)

    def test_task_totals(self):
        manifest = self.manifest()
        assert manifest.tasks_total() == len(SPECS) * SHARD_TASKS
        assert manifest.tasks_done() == 0


class TestFleetLifecycle:
    def test_create_layout(self, tmp_path):
        fleet = make_fleet(tmp_path)
        assert (tmp_path / FLEET_MANIFEST_NAME).exists()
        for entry, spec in zip(fleet.manifest.shards, SPECS):
            assert entry.spec_digest == spec.digest()
            assert entry.name.endswith(spec.digest()[:8])
            assert (tmp_path / entry.path / "manifest.json").exists()
            assert entry.total == SHARD_TASKS and entry.watermark == 0

    def test_create_refuses_existing(self, tmp_path):
        make_fleet(tmp_path)
        with pytest.raises(StoreError, match="already exists"):
            make_fleet(tmp_path)

    def test_create_refuses_duplicate_specs(self, tmp_path):
        with pytest.raises(StoreError, match="duplicates digest"):
            FleetStore.create(
                tmp_path, [SPECS[0], SPECS[0]], CFG, WORKLOADS, CORES
            )

    def test_open_missing_fleet(self, tmp_path):
        with pytest.raises(StoreError, match="no fleet store"):
            FleetStore.open(tmp_path / "nowhere")

    def test_shards_are_standalone_stores(self, tmp_path):
        fleet = make_fleet(tmp_path)
        for entry, store in fleet.shards():
            assert isinstance(store, CampaignStore)
            assert store.manifest.spec.digest() == entry.spec_digest

    def test_shard_routing_by_spec(self, tmp_path):
        fleet = make_fleet(tmp_path)
        store = fleet.shard_for(SPECS[1])
        assert store.manifest.spec == SPECS[1]

    def test_swapped_shard_names_both_digests_and_path(self, tmp_path,
                                                       capsys):
        """A shard directory swapped underneath the fleet is caught by
        every fleet reader, and the error names the expected digest, the
        actual digest and the offending shard path -- enough to fix the
        swap by hand."""
        fleet = make_fleet(tmp_path)
        first, second = fleet.manifest.shards[:2]
        # Holds shard 0 from before the swap; its first read of shard 1
        # comes after.
        trainer = FleetStreamingTrainer(FleetStore.open(tmp_path), core=0)
        path_a = tmp_path / first.path
        path_b = tmp_path / second.path
        swap = tmp_path / "swap"
        path_a.rename(swap)
        path_b.rename(path_a)
        swap.rename(path_b)

        def names_the_swap(message, path):
            assert first.spec_digest in message
            assert second.spec_digest in message
            assert str(path) in message

        reopened = FleetStore.open(tmp_path)
        readers = {
            "shard": lambda: reopened.shard(reopened.manifest.shards[0]),
            "indexes": lambda: FleetStore.open(tmp_path).indexes(),
            "compact": lambda: FleetStore.open(tmp_path).compact(),
            "refresh_watermarks":
                lambda: FleetStore.open(tmp_path).refresh_watermarks(),
        }
        for name, read in readers.items():
            with pytest.raises(StoreError) as excinfo:
                read()
            names_the_swap(str(excinfo.value), path_a)
        with pytest.raises(StoreError) as excinfo:
            trainer.consume()
        names_the_swap(str(excinfo.value), path_b)

        from repro.cli import main

        capsys.readouterr()
        assert main(["fleet", "status", str(tmp_path)]) == 2
        names_the_swap(capsys.readouterr().err, path_a)

    def test_swap_under_a_held_fleet_is_caught_on_refresh(self, tmp_path):
        """Shards already cached by a fleet object are re-checked when
        their journal stops extending what was parsed."""
        make_fleet(tmp_path)
        run_fleet(tmp_path, shards=[FleetStore.open(tmp_path).manifest
                                    .shards[0].name])
        fleet = FleetStore.open(tmp_path)
        fleet.indexes()
        first, second = fleet.manifest.shards[:2]
        path_a = tmp_path / first.path
        path_b = tmp_path / second.path
        swap = tmp_path / "swap"
        path_a.rename(swap)
        path_b.rename(path_a)
        swap.rename(path_b)
        with pytest.raises(StoreError) as excinfo:
            fleet.refresh_watermarks()
        message = str(excinfo.value)
        assert first.spec_digest in message
        assert second.spec_digest in message
        assert str(path_a) in message


class TestFleetEquivalence:
    def test_shards_byte_identical_to_standalone_runs(
            self, complete_fleet, standalone_journals):
        fleet = FleetStore.open(complete_fleet)
        for entry, spec in zip(fleet.manifest.shards, SPECS):
            shard_journal = (complete_fleet / entry.path / JOURNAL_NAME)
            assert shard_journal.read_bytes() == standalone_journals[spec.seed]

    def test_watermarks_converge_to_totals(self, complete_fleet):
        fleet = FleetStore.open(complete_fleet)
        manifest = fleet.refresh_watermarks()
        assert all(e.watermark == e.total for e in manifest.shards)
        assert fleet.is_complete()
        on_disk = json.loads((complete_fleet / FLEET_MANIFEST_NAME).read_text())
        assert FleetManifest.from_json_dict(on_disk) == manifest

    def test_killed_shard_resumes_bit_identically(
            self, complete_fleet, standalone_journals, tmp_path):
        """Kill one shard after its first task; the fleet resume ends
        byte-identical to the uninterrupted run, and only replays the
        untouched shards."""
        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        (fleet_dir / FLEET_MANIFEST_NAME).write_text(
            (complete_fleet / FLEET_MANIFEST_NAME).read_text())
        source = FleetStore.open(complete_fleet)
        for entry in source.manifest.shards:
            shard_dir = fleet_dir / entry.path
            shard_dir.mkdir(parents=True)
            for name in ("manifest.json", JOURNAL_NAME):
                (shard_dir / name).write_bytes(
                    (complete_fleet / entry.path / name).read_bytes())
        victim = source.manifest.shards[1]
        journal = fleet_dir / victim.path / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0])

        report = run_fleet(fleet_dir)
        assert report.tasks_run == SHARD_TASKS - 1
        assert report.tasks_skipped == len(SPECS) * SHARD_TASKS - report.tasks_run
        for entry, spec in zip(report.manifest.shards, SPECS):
            resumed = (fleet_dir / entry.path / JOURNAL_NAME).read_bytes()
            assert resumed == standalone_journals[spec.seed]

    def test_held_fleet_resumes_after_in_place_cut(
            self, complete_fleet, standalone_journals, tmp_path):
        """Cut a shard journal in place (same inode) under a fleet
        object that already parsed it: running that same object re-runs
        exactly the cut tasks, and its warm indexes land back on the
        pre-cut answers."""
        fleet_dir = tmp_path / "fleet"
        shutil.copytree(complete_fleet, fleet_dir)
        fleet = FleetStore.open(fleet_dir)
        before = fleet.indexes().serialize()
        entry = fleet.manifest.shards[0]
        journal = fleet_dir / entry.path / JOURNAL_NAME
        os.truncate(journal, len(journal.read_bytes().splitlines(True)[0]))

        report = run_fleet(fleet)
        assert report.tasks_run == SHARD_TASKS - 1
        assert journal.read_bytes() == standalone_journals[SPECS[0].seed]
        indexes = fleet.indexes()
        assert indexes.serialize() == before
        assert before == indexes.serialize_reparse()

    def test_run_fleet_is_idempotent(self, complete_fleet):
        report = run_fleet(complete_fleet)
        assert report.tasks_run == 0
        assert report.tasks_skipped == len(SPECS) * SHARD_TASKS

    def test_run_fleet_shard_subset_validated(self, complete_fleet):
        with pytest.raises(StoreError, match="unknown fleet shards"):
            run_fleet(complete_fleet, shards=["m99-deadbeef"])

    def test_engine_routes_through_fleet_directory(self, tmp_path,
                                                   standalone_journals):
        """``--store FLEET_DIR`` on a plain engine run lands the tasks
        in the right shard through the fleet manifest."""
        fleet = make_fleet(tmp_path)
        spec = SPECS[2]
        engine = ParallelCampaignEngine(spec, CFG)
        engine.run([get_benchmark("mcf")], CORES, store=tmp_path)
        entry = fleet.manifest.entry_for(spec.digest())
        journal = (tmp_path / entry.path / JOURNAL_NAME).read_bytes()
        assert journal == standalone_journals[spec.seed]


class TestParseOnce:
    def test_fleet_read_path_decodes_every_line_once(
            self, complete_fleet, tmp_path, decoded_lines):
        """Open, replay, index, train and export through one fleet
        object: every journal line is decoded exactly once.  The
        re-parse check then decodes every line again."""
        fleet_dir = tmp_path / "fleet"
        shutil.copytree(complete_fleet, fleet_dir)
        lines = sum(
            len((fleet_dir / entry.path / JOURNAL_NAME).read_bytes()
                .splitlines())
            for entry in FleetStore.open(fleet_dir).manifest.shards
        )

        fleet = FleetStore.open(fleet_dir)
        replay = run_fleet(fleet)
        assert replay.tasks_run == 0
        indexes = fleet.indexes()
        trainer = FleetStreamingTrainer(fleet, core=0)
        trainer.consume()
        fleet.export_csv(tmp_path / "out")
        assert len(decoded_lines) == lines
        assert len(set(decoded_lines)) == lines

        assert indexes.serialize() == indexes.serialize_reparse()
        assert len(decoded_lines) == 2 * lines
        assert set(Counter(decoded_lines).values()) == {2}

    def test_repeated_index_refresh_keeps_one_observer_per_shard(
            self, complete_fleet):
        fleet = FleetStore.open(complete_fleet)
        indexes = fleet.indexes()
        for _ in range(4):
            assert fleet.indexes() is indexes
            indexes.refresh()
        for _entry, store in fleet.shards():
            assert len(store._observers) == 1


class TestIndexEqualsReparse:
    def test_fleetwide_warm_equals_reparse_bytes(self, complete_fleet):
        indexes = FleetStore.open(complete_fleet).indexes()
        warm = indexes.serialize()
        assert warm == indexes.serialize_reparse()
        assert warm.count("# shard ") == len(SPECS)

    def test_every_kill_point_matches_reparse(self, complete_fleet, tmp_path):
        """Property-style: truncate one shard journal to every possible
        prefix; the warm bundle answers stay byte-identical to the
        classic re-parse read path at each kill point."""
        fleet = FleetStore.open(complete_fleet)
        entry = fleet.manifest.shards[0]
        manifest_bytes = (
            complete_fleet / entry.path / "manifest.json").read_bytes()
        lines = (complete_fleet / entry.path / JOURNAL_NAME).read_text(
            ).splitlines(keepends=True)
        for keep in range(len(lines) + 1):
            shard_dir = tmp_path / f"kill-{keep}"
            shard_dir.mkdir()
            (shard_dir / "manifest.json").write_bytes(manifest_bytes)
            (shard_dir / JOURNAL_NAME).write_text("".join(lines[:keep]))
            store = CampaignStore.open(shard_dir)
            warm = StoreIndexes(store).serialize()
            assert warm == reparse_serialization(
                CampaignStore.open(shard_dir))

    def test_incremental_appends_match_bulk_rebuild(self, complete_fleet,
                                                    tmp_path):
        """An index bundle attached before any append sees each record
        through the subscription path and still matches a cold rebuild."""
        source = FleetStore.open(complete_fleet)
        entry, complete_store = source.shards()[0]
        shard_dir = tmp_path / "incremental"
        store = CampaignStore.create(
            shard_dir, complete_store.manifest.spec, CFG, WORKLOADS, CORES)
        live = StoreIndexes(store)
        for stored in complete_store.campaigns():
            store.append_campaign(
                stored.campaign_result(),
                raw_log=stored.raw_log,
                seed=stored.seed,
                interventions=stored.interventions,
            )
        assert live.records_indexed() == SHARD_TASKS
        assert live.serialize() == StoreIndexes.from_reparse(
            CampaignStore.open(shard_dir)).serialize()

    def test_feature_index_matches_dataset_assembler(self, complete_fleet):
        fleet = FleetStore.open(complete_fleet)
        entry, store = fleet.shards()[0]
        bundle = fleet.indexes().bundle(entry)
        classic = vmin_dataset_from_store(store, 0)
        indexed = bundle.features.dataset(0)
        assert indexed.feature_names == classic.feature_names
        assert indexed.tags == classic.tags
        assert (indexed.x == classic.x).all()
        assert (indexed.y == classic.y).all()

    def test_vmin_index_answers(self, complete_fleet):
        bundle = FleetStore.open(complete_fleet).indexes().bundles()[0][1]
        assert bundle.vmin.cells() == [("mcf", 0)]
        assert bundle.vmin.vmin_mv("mcf", 0) == 890
        assert bundle.vmin.crash_mv("mcf", 0) == 880
        with pytest.raises(StoreError, match="no completed cell"):
            bundle.vmin.vmin_mv("mcf", 7)

    def test_severity_index_matches_result(self, complete_fleet):
        fleet = FleetStore.open(complete_fleet)
        entry, store = fleet.shards()[0]
        bundle = fleet.indexes().bundle(entry)
        expected = store.results()[("mcf", 0)].severity_by_voltage(
            store.manifest.weights)
        assert bundle.severity.severity_by_voltage("mcf", 0) == expected


def _append_shard_worker(fleet_dir, seed):
    """Child-process body: characterize one shard of a shared fleet."""
    from repro.machines import MachineSpec
    from repro.parallel import ParallelCampaignEngine
    from repro.store import FleetStore
    from repro.workloads import get_benchmark

    fleet = FleetStore.open(fleet_dir)
    spec = MachineSpec(chip="TTT", seed=seed)
    engine = ParallelCampaignEngine(spec, CFG)
    engine.run([get_benchmark("mcf")], CORES, store=fleet.shard_for(spec))
    fleet.refresh_watermarks()


class TestConcurrentShardAppends:
    def test_interleaved_multiprocess_appends(self, tmp_path):
        """One process per shard, all appending concurrently: no
        cross-shard lock contention, every process's concurrent
        ``refresh_watermarks`` converges on the journal facts, and the
        warm indexes still byte-match a re-parse."""
        make_fleet(tmp_path)
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_append_shard_worker, args=(str(tmp_path), seed))
            for seed in SEEDS
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
        assert all(worker.exitcode == 0 for worker in workers)

        fleet = FleetStore.open(tmp_path)
        # The manifest on disk came from whichever refresher wrote last,
        # but every writer derived it from the same journals.
        assert fleet.manifest.tasks_done() == len(SEEDS) * SHARD_TASKS
        manifest = fleet.refresh_watermarks()
        assert all(e.watermark == e.total for e in manifest.shards)
        indexes = fleet.indexes()
        assert indexes.serialize() == indexes.serialize_reparse()


class TestCompaction:
    @pytest.fixture()
    def fleet_copy(self, complete_fleet, tmp_path):
        target = tmp_path / "fleet"
        target.mkdir()
        (target / FLEET_MANIFEST_NAME).write_bytes(
            (complete_fleet / FLEET_MANIFEST_NAME).read_bytes())
        for entry in FleetStore.open(complete_fleet).manifest.shards:
            shard_dir = target / entry.path
            shard_dir.mkdir(parents=True)
            for name in ("manifest.json", JOURNAL_NAME):
                (shard_dir / name).write_bytes(
                    (complete_fleet / entry.path / name).read_bytes())
        return target

    def test_compaction_is_a_grid_order_permutation_of_line_bytes(
            self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        entry = fleet.manifest.shards[0]
        journal = fleet_copy / entry.path / JOURNAL_NAME
        before = journal.read_text().splitlines(keepends=True)
        answers_before = fleet.indexes().serialize()

        compacted = fleet.compact()
        assert compacted == [e.name for e in fleet.manifest.shards]
        after = journal.read_text().splitlines(keepends=True)
        assert sorted(after) == sorted(before)

        store = CampaignStore.open(fleet_copy / entry.path)
        assert [c.key for c in store.campaigns()] == store.expected_keys()
        assert fleet.indexes().serialize() == answers_before
        assert all(e.compacted for e in fleet.manifest.shards)

    def test_compaction_is_idempotent(self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        assert len(fleet.compact()) == len(SPECS)
        assert fleet.compact() == []

    def test_partial_shard_is_left_alone(self, fleet_copy):
        fleet = FleetStore.open(fleet_copy)
        victim = fleet.manifest.shards[0]
        journal = fleet_copy / victim.path / JOURNAL_NAME
        partial_lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(partial_lines[0])

        compacted = FleetStore.open(fleet_copy).compact()
        assert victim.name not in compacted
        assert len(compacted) == len(SPECS) - 1
        assert journal.read_text() == partial_lines[0]

    def test_live_model_cursor_blocks_compaction(self, tmp_path):
        """A shard needs at least two grid cells for a cursor to land
        mid-journal, so this test builds its own two-workload fleet."""
        fleet = FleetStore.create(
            tmp_path, SPECS[:1], CFG, ["mcf", "bwaves"], CORES)
        run_fleet(tmp_path)
        entry, store = fleet.shards()[0]
        total = len(store.expected_keys())
        trainer = StreamingTrainer(store, core=0, target="vmin")
        trainer.consume(stop=CFG.campaigns)
        store.model_store().save(trainer.fit())
        assert 0 < trainer.journal_offset < total

        with pytest.raises(StoreError, match="live journal cursor"):
            FleetStore.open(tmp_path).compact()
        forced = FleetStore.open(tmp_path).compact(force=True)
        assert entry.name in forced


class TestFleetModels:
    def test_fleet_digest_pins_population(self, complete_fleet, tmp_path):
        fleet = FleetStore.open(complete_fleet)
        digest = fleet.fleet_digest()
        assert digest.startswith("fleet:") and len(digest) == 6 + 16
        smaller = FleetStore.create(
            tmp_path, SPECS[:2], CFG, WORKLOADS, CORES)
        assert smaller.fleet_digest() != digest

    def test_fleet_trainer_spans_every_shard(self, complete_fleet):
        trainer = FleetStreamingTrainer(complete_fleet, core=0)
        trainer.consume()
        artifact = trainer.fit()
        fleet = FleetStore.open(complete_fleet)
        assert artifact.spec_digest == fleet.fleet_digest()
        assert artifact.n_samples == sum(
            len(vmin_dataset_from_store(store, 0))
            for _, store in fleet.shards()
        )
        assert trainer.cursors == {
            entry.name: SHARD_TASKS for entry in fleet.manifest.shards
        }

    def test_fleet_trainer_kill_and_resume_equivalence(
            self, complete_fleet, tmp_path):
        """Train on a one-shard-deep fleet, save, characterize the rest,
        resume: the final artifact matches one uninterrupted fleet-wide
        training run over identical data."""
        fleet_dir = tmp_path / "fleet"
        make_fleet(fleet_dir)
        first_name = FleetStore.open(fleet_dir).manifest.shards[0].name
        run_fleet(fleet_dir, shards=[first_name])

        partial = FleetStreamingTrainer(fleet_dir, core=0)
        assert partial.consume() == 1
        models = FleetStore.open(fleet_dir).model_store()
        saved = models.save(partial.fit())
        assert 0 < saved.journal_offset < len(SPECS) * SHARD_TASKS

        run_fleet(fleet_dir)
        resumed = FleetStreamingTrainer.resume(
            FleetStore.open(fleet_dir), models.load("vmin", 0))
        resumed.consume()
        final = resumed.fit()

        reference = FleetStreamingTrainer(complete_fleet, core=0)
        reference.consume()
        ref_artifact = reference.fit()
        assert final.train_digest == ref_artifact.train_digest
        assert final.n_samples == ref_artifact.n_samples
        assert final.coefficients == ref_artifact.coefficients

    def test_fleet_trainer_rejects_changed_population(
            self, complete_fleet, tmp_path):
        trainer = FleetStreamingTrainer(complete_fleet, core=0)
        trainer.consume()
        artifact = trainer.fit()
        other = FleetStore.create(tmp_path, SPECS[:2], CFG, WORKLOADS, CORES)
        from repro.errors import PredictionError

        with pytest.raises(PredictionError, match="population"):
            FleetStreamingTrainer.resume(other, artifact)


class TestFleetDerived:
    def test_fleet_status_serves_warm_vmin(self, complete_fleet):
        from repro import telemetry

        status = telemetry.fleet_status(complete_fleet)
        assert status.complete
        rendered = telemetry.render_fleet_status(status)
        assert f"({len(SPECS)} shards)" in rendered
        assert rendered.count("mcf c0: Vmin 890 mV, crash 880") == len(SPECS)

    def test_fleet_report_covers_every_shard(self, complete_fleet):
        from repro.analysis.report import fleet_report

        fleet = FleetStore.open(complete_fleet)
        text = fleet_report(fleet)
        assert "## Fleet campaign store" in text
        for entry in fleet.manifest.shards:
            assert f"### Shard {entry.name}" in text

    def test_fleet_export_matches_standalone_export(
            self, complete_fleet, tmp_path, standalone_journals):
        fleet = FleetStore.open(complete_fleet)
        exports = fleet.export_csv(tmp_path / "fleet-out")

        solo_dir = tmp_path / "solo"
        run_shard_standalone(SPECS[0], solo_dir)
        solo_exports = CampaignStore.open(solo_dir).export_csv(
            tmp_path / "solo-out")

        entry = fleet.manifest.shards[0]
        assert set(exports[entry.name]) == set(solo_exports)
        for key, path in solo_exports.items():
            assert exports[entry.name][key].read_bytes() == path.read_bytes()
