"""``repro migrate``: v1 campaign stores rewritten as v2.

A v1 store is built in-test from a v2 one: every journal line gets its
``records`` field back (the v1 codec) and the manifest its v1 tag.
Migration must then land on the v2 store's exact bytes, keep exports
and trainer cursors valid, refuse lines whose raw log does not
re-derive the stored records, and converge after a crash at any
durable-write point.
"""

import json
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.core import FrameworkConfig
from repro.core.parser import parse_records
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine, run_fleet
from repro.prediction import StreamingTrainer, vmin_dataset_from_store
from repro.store import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    STORE_FORMAT,
    CampaignStore,
    FleetStore,
    StoreError,
    migrate_store,
)
from repro.workloads import get_benchmark

from .test_durable import crash_at, crash_points

CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
BENCHES = ("bwaves", "mcf")
CORES = (0, 4)
V1_FORMAT = "repro-campaign/v1"


def to_v1(directory):
    """Rewrite the v2 store at ``directory`` the way v1 wrote it."""
    lines = (directory / JOURNAL_NAME).read_text().splitlines()
    v1_lines = []
    for line in lines:
        data = json.loads(line)
        data["records"] = [
            record.to_json_dict() for record in parse_records(data["raw_log"])
        ]
        v1_lines.append(json.dumps(data, sort_keys=True) + "\n")
    (directory / JOURNAL_NAME).write_text("".join(v1_lines))
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    manifest["format"] = V1_FORMAT
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def store_bytes(directory):
    return ((directory / MANIFEST_NAME).read_bytes(),
            (directory / JOURNAL_NAME).read_bytes())


@pytest.fixture(scope="module")
def v2_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("v2") / "store"
    ParallelCampaignEngine(SPEC, CFG).run(
        [get_benchmark(name) for name in BENCHES], CORES, store=directory)
    return directory


@pytest.fixture()
def v1_store(v2_store, tmp_path):
    directory = tmp_path / "v1"
    shutil.copytree(v2_store, directory)
    to_v1(directory)
    return directory


def exports(directory, out):
    CampaignStore.open(directory).export_csv(out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestMigrate:
    def test_v1_journal_carries_records_twice(self, v1_store, v2_store):
        v1 = (v1_store / JOURNAL_NAME).stat().st_size
        v2 = (v2_store / JOURNAL_NAME).stat().st_size
        assert v2 < 0.6 * v1
        assert b'"records"' not in (v2_store / JOURNAL_NAME).read_bytes()

    def test_open_names_the_migrate_verb(self, v1_store):
        with pytest.raises(StoreError, match=f"repro migrate {v1_store}"):
            CampaignStore.open(v1_store)

    def test_migrated_store_equals_v2_store(self, v1_store, v2_store,
                                            tmp_path):
        assert migrate_store(v1_store) == [v1_store]
        assert store_bytes(v1_store) == store_bytes(v2_store)
        assert json.loads((v1_store / MANIFEST_NAME).read_text())[
            "format"] == STORE_FORMAT
        assert exports(v1_store, tmp_path / "a") == \
            exports(v2_store, tmp_path / "b")
        assert migrate_store(v1_store) == []  # already v2: no-op

    def test_saved_trainer_cursor_resumes(self, v2_store, tmp_path):
        reference = StreamingTrainer(v2_store, core=0)
        reference.consume()
        expected = reference.fit()

        directory = tmp_path / "store"
        shutil.copytree(v2_store, directory)
        first = StreamingTrainer(directory, core=0)
        first.consume(stop=3)
        assert 0 < first.journal_offset < 8
        saved = CampaignStore.open(directory).model_store().save(first.fit())
        to_v1(directory)

        migrate_store(directory)
        store = CampaignStore.open(directory)
        resumed = StreamingTrainer.resume(
            store, store.model_store().load("vmin", 0))
        assert resumed.journal_offset == saved.journal_offset
        resumed.consume()
        final = resumed.fit()
        assert final.train_digest == expected.train_digest
        assert final.journal_offset == expected.journal_offset
        dataset = vmin_dataset_from_store(store, 0)
        assert np.allclose(final.predict_dataset(dataset),
                           expected.predict_dataset(dataset), rtol=1e-12)

    def test_mutated_v1_records_refused(self, v1_store):
        lines = (v1_store / JOURNAL_NAME).read_text().splitlines(True)
        data = json.loads(lines[2])
        data["records"][1]["edac_ce"] += 1
        lines[2] = json.dumps(data, sort_keys=True) + "\n"
        (v1_store / JOURNAL_NAME).write_text("".join(lines))
        before = store_bytes(v1_store)
        with pytest.raises(StoreError, match="line 3.*differ"):
            migrate_store(v1_store)
        assert store_bytes(v1_store) == before

    def test_crash_at_every_write_then_rerun_converges(
            self, monkeypatch, v1_store, v2_store, tmp_path):
        probe = tmp_path / "probe"
        shutil.copytree(v1_store, probe)
        points = crash_points(monkeypatch, lambda: migrate_store(probe))
        assert len(points) == 8  # journal, then manifest: 4 calls each
        for k in points:
            directory = tmp_path / f"k{k}"
            shutil.copytree(v1_store, directory)
            crash_at(monkeypatch, k, lambda: migrate_store(directory))
            migrate_store(directory)
            assert store_bytes(directory) == store_bytes(v2_store), k
            assert CampaignStore.open(directory).is_complete()
            assert sorted(p.name for p in directory.iterdir()) == \
                [JOURNAL_NAME, MANIFEST_NAME]

    def test_fleet_migrates_every_shard(self, tmp_path):
        fleet_dir = tmp_path / "fleet"
        specs = [MachineSpec(chip="TTT", seed=seed) for seed in (1, 2)]
        FleetStore.create(fleet_dir, specs, CFG, ["mcf"], [0])
        run_fleet(fleet_dir)
        fleet = FleetStore.open(fleet_dir)
        shards = [fleet.shard_path(entry) for entry in fleet.manifest.shards]
        v2 = [store_bytes(shard) for shard in shards]
        for shard in shards:
            to_v1(shard)
        assert migrate_store(fleet_dir) == shards
        assert [store_bytes(shard) for shard in shards] == v2
        assert FleetStore.open(fleet_dir).indexes().serialize() == \
            FleetStore.open(fleet_dir).indexes().serialize_reparse()


class TestMigrateCli:
    def test_migrate_then_nothing_to_do(self, v1_store, v2_store, capsys):
        assert main(["migrate", str(v1_store)]) == 0
        assert "migrated 1 campaign store" in capsys.readouterr().out
        assert store_bytes(v1_store) == store_bytes(v2_store)
        assert main(["migrate", str(v1_store)]) == 0
        assert "nothing to migrate" in capsys.readouterr().out

    def test_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["migrate", str(tmp_path / "nowhere")]) == 2
        assert "no campaign store" in capsys.readouterr().err
