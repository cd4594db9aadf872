"""``CampaignStore.refresh``: a verified tail decode, or a full re-parse.

A store remembers how many journal bytes it parsed and their SHA-256.
Refreshing decodes only the tail when that prefix is still the file's;
anything else -- truncation, compaction, a flipped byte -- falls back to
the full, validating parse ``CampaignStore.open`` does.  Either way the
refreshed store must equal a cold ``open`` of the same directory.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FrameworkConfig
from repro.errors import CampaignError
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine
from repro.prediction import StreamingTrainer
from repro.store import (
    JOURNAL_NAME,
    CampaignStore,
    FleetStore,
    StoreIndexes,
    reparse_serialization,
)
from repro.workloads import get_benchmark

#: The bwaves grid of test_store: 1 benchmark x 2 cores x 2 campaigns.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
WORKLOADS = ["bwaves"]
CORES = [0, 4]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The grid's journaled campaigns, in serial (grid) order."""
    directory = tmp_path_factory.mktemp("source")
    ParallelCampaignEngine(SPEC, CFG).run(
        [get_benchmark("bwaves")], CORES, store=directory)
    return CampaignStore.open(directory).campaigns()


def empty_store(directory):
    return CampaignStore.create(directory, SPEC, CFG, WORKLOADS, CORES)


def append(store, stored):
    store.append_campaign(
        stored.campaign_result(),
        raw_log=stored.raw_log,
        seed=stored.seed,
        interventions=stored.interventions,
    )


def line(stored):
    """The journal bytes of one record."""
    return (json.dumps(stored.to_json_dict(), sort_keys=True) + "\n").encode()


def assert_matches_open(store):
    assert store.campaigns() == CampaignStore.open(store.directory).campaigns()


class TestTailRefresh:
    def test_foreign_append_is_decoded_as_a_tail(self, records, tmp_path,
                                                 decoded_lines):
        writer = empty_store(tmp_path)
        append(writer, records[0])
        append(writer, records[1])
        reader = CampaignStore.open(tmp_path)
        append(writer, records[2])
        decoded_lines.clear()
        assert reader.refresh() == 1
        assert len(decoded_lines) == 1
        assert reader.generation == 0
        assert reader.campaigns() == records[:3]
        assert reader.refresh() == 0
        assert reader.generation == 0

    def test_own_appends_extend_the_verified_prefix(self, records, tmp_path,
                                                    decoded_lines):
        store = empty_store(tmp_path)
        for stored in records:
            append(store, stored)
        assert store.refresh() == 0
        assert decoded_lines == []
        assert store.generation == 0
        assert_matches_open(store)

    def test_in_place_truncation_reparses(self, records, tmp_path):
        store = empty_store(tmp_path)
        for stored in records[:3]:
            append(store, stored)
        journal = tmp_path / JOURNAL_NAME
        inode = journal.stat().st_ino
        os.truncate(journal, len(line(records[0])))
        assert journal.stat().st_ino == inode
        assert store.refresh() == 1
        assert store.generation == 1
        assert store.campaigns() == records[:1]
        assert_matches_open(store)
        # The cut tasks are pending again and re-append cleanly.
        append(store, records[1])
        assert store.refresh() == 0
        assert store.generation == 1
        assert_matches_open(store)

    @pytest.mark.parametrize("flip", ["undecodable", "duplicate"])
    def test_flipped_byte_in_prefix_raises_like_open(self, records, tmp_path,
                                                     flip):
        store = empty_store(tmp_path)
        for stored in records[:3]:
            append(store, stored)
        journal = tmp_path / JOURNAL_NAME
        payload = bytearray(journal.read_bytes())
        if flip == "undecodable":
            payload[0] = ord("#")  # line 1 no longer parses
        else:
            # Line 2 is campaign 2 of the first cell; make it campaign 1.
            start = len(line(records[0]))
            at = payload.index(b'"campaign": 2', start) + len('"campaign": ')
            payload[at] = ord("1")
        journal.write_bytes(bytes(payload))
        with pytest.raises(CampaignError) as cold:
            CampaignStore.open(tmp_path)
        with pytest.raises(type(cold.value)) as warm:
            store.refresh()
        assert str(warm.value) == str(cold.value)
        # A failed refresh commits nothing.
        assert store.campaigns() == records[:3]
        assert store.generation == 0

    def test_torn_tail_is_dropped_then_healed(self, records, tmp_path):
        store = empty_store(tmp_path)
        append(store, records[0])
        journal = tmp_path / JOURNAL_NAME
        torn = line(records[1])
        with journal.open("ab") as handle:
            handle.write(torn[: len(torn) // 2])
        assert store.refresh() == 0
        assert store.campaigns() == records[:1]
        append(store, records[1])
        assert journal.read_bytes() == line(records[0]) + line(records[1])
        assert store.refresh() == 0
        assert store.generation == 0
        assert_matches_open(store)

    def test_compaction_restores_canonical_order(self, records, tmp_path):
        fleet = FleetStore.create(tmp_path, [SPEC], CFG, WORKLOADS, CORES)
        entry = fleet.manifest.shards[0]
        shard = fleet.shard(entry)
        for stored in reversed(records):
            append(shard, stored)
        indexes = fleet.indexes()
        warm = indexes.serialize()
        assert fleet.compact() == [entry.name]
        assert fleet.shard(entry) is shard
        assert shard.generation == 1
        assert [c.key for c in shard.campaigns()] == shard.expected_keys()
        assert_matches_open(shard)
        assert fleet.indexes().serialize() == warm
        assert warm == indexes.serialize_reparse()

    def test_index_bundle_folds_refreshed_records_before_own(
            self, records, tmp_path):
        writer = empty_store(tmp_path)
        reader = CampaignStore.open(tmp_path)
        bundle = StoreIndexes(reader)
        append(writer, records[0])
        assert reader.refresh() == 1
        append(reader, records[1])  # fires the bundle's observer
        assert bundle.records_indexed() == 2
        assert bundle.serialize() == reparse_serialization(
            CampaignStore.open(tmp_path))

    def test_streaming_trainer_refresh_catches_up(self, records, tmp_path):
        writer = empty_store(tmp_path)
        append(writer, records[0])
        reader = CampaignStore.open(tmp_path)
        trainer = StreamingTrainer(reader, core=0)
        assert trainer.consume() == 0
        append(writer, records[1])
        trainer.refresh()
        assert trainer.store is reader
        assert trainer.consume() == 1


#: One step: (store 0 or 1, append the next record or refresh).
STEPS = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from(["append", "refresh"])),
    max_size=12,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=STEPS)
def test_any_interleaving_matches_a_cold_open(records, tmp_path_factory,
                                              steps):
    """Two store objects on one directory append and refresh in any
    order; each refresh leaves its store equal to a cold open."""
    directory = tmp_path_factory.mktemp("interleaved")
    stores = [empty_store(directory), CampaignStore.open(directory)]
    pending = list(records)
    for who, step in steps:
        if step == "append" and pending:
            append(stores[who], pending.pop(0))
        elif step == "refresh":
            stores[who].refresh()
            assert_matches_open(stores[who])
    for store in stores:
        store.refresh()
        assert_matches_open(store)
