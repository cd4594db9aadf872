"""The durable-file primitive: crash safety proven by fault injection.

Every durable write in the stack -- store and fleet manifests,
compaction, model artifacts, the campaign journal and the tsdb -- goes
through :mod:`repro.store.durable`, so one shim over the ``os`` calls
that module makes covers all of them: the k-th ``write`` / ``fsync`` /
``replace`` / ``truncate`` raises (a faulted ``write`` lands half its
bytes first, like a torn append), and every k is enumerated.
"""

import errno
import json
import multiprocessing
import os

import pytest

from repro.core import FrameworkConfig
from repro.machines import MachineSpec
from repro.parallel import ParallelCampaignEngine
from repro.store import (
    FLEET_MANIFEST_NAME,
    MANIFEST_NAME,
    CampaignStore,
    FleetStore,
    StoreIndexes,
    reparse_serialization,
)
from repro.store import durable
from repro.store.durable import AppendLog, CorruptLine, atomic_write
from repro.telemetry import MetricsRegistry
from repro.telemetry.tsdb import TSDB_NAME, TsdbCursor, TsdbWriter
from repro.workloads import get_benchmark

CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)


class FaultyOs:
    """Stand-in for the ``os`` module inside :mod:`repro.store.durable`."""

    FAULTY = frozenset({"write", "fsync", "replace", "truncate"})

    def __init__(self, crash_at=None):
        self.crash_at = crash_at
        self.calls = 0

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.FAULTY:
            return real

        def call(*args):
            self.calls += 1
            if self.calls != self.crash_at:
                return real(*args)
            if name == "write":
                fd, data = args
                real(fd, data[: len(data) // 2])
            raise OSError(errno.EIO, f"injected fault in os.{name}")

        return call


def crash_points(monkeypatch, operation):
    """Count the faultable calls ``operation`` makes on a clean run."""
    counter = FaultyOs()
    monkeypatch.setattr(durable, "os", counter)
    operation()
    monkeypatch.setattr(durable, "os", os)
    return range(1, counter.calls + 1)


def crash_at(monkeypatch, k, operation):
    """Run ``operation`` with the k-th durable ``os`` call faulted."""
    monkeypatch.setattr(durable, "os", FaultyOs(k))
    try:
        with pytest.raises(OSError, match="injected fault"):
            operation()
    finally:
        monkeypatch.setattr(durable, "os", os)


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------

NEW = json.dumps({"version": 2, "payload": list(range(200))}) + "\n"


@pytest.mark.parametrize("existed", [True, False])
def test_atomic_write_old_or_new_at_every_crash_point(
        monkeypatch, tmp_path, existed):
    points = crash_points(
        monkeypatch, lambda: atomic_write(tmp_path / "probe.json", NEW))
    assert len(points) == 4  # write, fsync, replace, directory fsync
    for k in points:
        directory = tmp_path / f"k{k}"
        directory.mkdir()
        target = directory / "manifest.json"
        if existed:
            target.write_text("old\n")
        crash_at(monkeypatch, k, lambda: atomic_write(target, NEW))
        allowed = {NEW, "old\n"} if existed else {NEW, None}
        found = target.read_text() if target.exists() else None
        assert found in allowed, f"partial target at crash point {k}"
        leftovers = [p.name for p in directory.iterdir() if p != target]
        assert leftovers == [], f"temp left behind at crash point {k}"


def test_atomic_write_keeps_plain_open_permissions(tmp_path):
    atomic_write(tmp_path / "a.json", "{}\n")
    (tmp_path / "b.json").write_text("{}\n")
    assert (tmp_path / "a.json").stat().st_mode == \
        (tmp_path / "b.json").stat().st_mode


# ---------------------------------------------------------------------------
# AppendLog
# ---------------------------------------------------------------------------

def _line(n):
    return json.dumps({"n": n, "pad": "x" * 40}, sort_keys=True)


def _decoded(path):
    return [data["n"] for _end, data in AppendLog(path, "test").lines()]


class TestAppendLogScan:
    def _scan(self, tmp_path, body):
        path = tmp_path / "log.jsonl"
        path.write_bytes(body)
        log = AppendLog(path, "test")
        return list(log.lines()), log.torn_at

    def test_offsets_and_blank_lines(self, tmp_path):
        body = (_line(1) + "\n\n" + _line(2) + "\n").encode()
        lines, torn = self._scan(tmp_path, body)
        assert [d["n"] for _, d in lines] == [1, 2]
        assert [end for end, _ in lines] == [len(_line(1)) + 1, len(body)]
        assert torn is None

    def test_unterminated_parseable_tail_is_torn(self, tmp_path):
        lines, torn = self._scan(
            tmp_path, (_line(1) + "\n" + _line(2)).encode())
        assert [d["n"] for _, d in lines] == [1]
        assert torn == len(_line(1)) + 1

    def test_terminated_garbage_tail_is_torn(self, tmp_path):
        lines, torn = self._scan(tmp_path, (_line(1) + "\ngarbage\n").encode())
        assert len(lines) == 1 and torn == len(_line(1)) + 1

    def test_mid_file_corruption_names_the_line(self, tmp_path):
        with pytest.raises(CorruptLine, match="corrupt test line 2"):
            self._scan(tmp_path, (_line(1) + "\ngarbage\n" + _line(3)
                                  + "\n").encode())

    def test_scan_from_offset_counts_absolute_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes((_line(1) + "\n" + _line(2) + "\nbad\n\n").encode())
        start = len(_line(1)) + 1
        log = AppendLog(path, "test")
        with pytest.raises(CorruptLine, match="line 3"):
            list(log.lines(start))

    def test_corrupt_line_is_a_store_and_value_error(self):
        from repro.errors import StoreError

        assert issubclass(CorruptLine, StoreError)
        assert issubclass(CorruptLine, ValueError)


@pytest.mark.parametrize("torn", [True, False])
def test_append_heals_at_every_crash_point(monkeypatch, tmp_path, torn):
    """A faulted append leaves a log that reopens to a clean prefix and
    whose next append -- by a reopened log or by the same object --
    starts a fresh line."""
    seed = (_line(1) + "\n" + _line(2) + "\n").encode()
    if torn:
        seed += _line(3)[:17].encode()

    def prepared(name):
        path = tmp_path / name
        path.write_bytes(seed)
        log = AppendLog(path, "test")
        assert len(list(log.lines())) == 2
        assert (log.torn_at is not None) == torn
        return path, log

    _probe_path, probe = prepared("probe.jsonl")
    points = crash_points(monkeypatch, lambda: probe.append(_line(3)))
    assert len(points) == (3 if torn else 2)  # [truncate,] write, fsync
    for k in points:
        for reopen in (True, False):
            path, log = prepared(f"k{k}-{reopen}.jsonl")
            crash_at(monkeypatch, k, lambda: log.append(_line(3)))
            survived = _decoded(path)
            assert survived in ([1, 2], [1, 2, 3]), f"crash point {k}"
            if reopen:
                log = AppendLog(path, "test")
                list(log.lines())
                expected = survived + [4]
            else:
                expected = [1, 2, 4]  # the failed line is cut away
            log.append(_line(4))
            assert _decoded(path) == expected, f"crash point {k}"
            assert path.read_bytes().endswith(b"\n")
            assert AppendLog(path, "test").torn_at is None


def test_new_log_syncs_its_directory(monkeypatch, tmp_path):
    counter = FaultyOs()
    monkeypatch.setattr(durable, "os", counter)
    log = AppendLog(tmp_path / "fresh.jsonl", "test")
    log.append(_line(1))
    first = counter.calls
    log.append(_line(2))
    assert (first, counter.calls - first) == (3, 2)  # + directory fsync


# ---------------------------------------------------------------------------
# CampaignStore: resume == uninterrupted, warm index == reparse
# ---------------------------------------------------------------------------

def _run(store, resume=False):
    return ParallelCampaignEngine(SPEC, CFG).run(
        [get_benchmark("mcf")], [0], store=store, resume=resume)


def _exported(directory, out):
    CampaignStore.open(directory).export_csv(out)
    return {name: (out / name).read_bytes()
            for name in ("runs.csv", "severity.csv")}


def test_store_resume_identical_at_every_crash_point(monkeypatch, tmp_path):
    reference = tmp_path / "reference"
    points = crash_points(monkeypatch, lambda: _run(reference))
    # manifest (write, fsync, replace, dir fsync) + two appends, the
    # first also syncing the directory that gained journal.jsonl
    assert len(points) == 9
    baseline = _exported(reference, tmp_path / "reference-csv")
    for k in points:
        directory = tmp_path / f"k{k}"
        crash_at(monkeypatch, k, lambda: _run(directory))
        if not (directory / MANIFEST_NAME).exists():
            _run(directory)  # creation never happened: start over
        else:
            store = CampaignStore.open(directory)
            warm = StoreIndexes(store)
            assert warm.serialize() == reparse_serialization(store)
            _run(store, resume=True)
            assert warm.serialize() == reparse_serialization(
                CampaignStore.open(directory)), f"crash point {k}"
        assert _exported(directory, tmp_path / f"k{k}-csv") == baseline, \
            f"crash point {k}"


def test_tsdb_resumes_at_every_crash_point(monkeypatch, tmp_path):
    registry = MetricsRegistry()

    def journal(directory):
        directory.mkdir()
        TsdbWriter(directory / TSDB_NAME).append(registry, 1.0)
        return TsdbWriter(directory / TSDB_NAME)

    probe = journal(tmp_path / "probe")
    for k in crash_points(monkeypatch, lambda: probe.append(registry, 2.0)):
        writer = journal(tmp_path / f"k{k}")
        crash_at(monkeypatch, k, lambda: writer.append(registry, 2.0))
        path = tmp_path / f"k{k}" / TSDB_NAME
        warm = TsdbCursor()
        warm.advance(path)
        resumed = TsdbWriter(path)
        seq = resumed.append(registry, 3.0)
        assert seq == warm.last_seq + 1, f"crash point {k}"
        warm.advance(path)
        assert warm.serialize() == TsdbCursor.from_reparse(path).serialize()


# ---------------------------------------------------------------------------
# concurrent fleet manifest rewrites
# ---------------------------------------------------------------------------

REFRESH_CALLS = 40


def _refresh_worker(fleet_dir, barrier, results):
    """Child-process body: hammer ``refresh_watermarks`` on one fleet."""
    barrier.wait()
    errors = []
    for _ in range(REFRESH_CALLS):
        try:
            FleetStore.open(fleet_dir).refresh_watermarks()
        except Exception as exc:  # every failure is reported, not raised
            errors.append(repr(exc))
    results.put(errors)


def test_concurrent_fleet_manifest_refresh(tmp_path):
    """Three processes rewriting ``fleet.json`` at once: no reader ever
    sees an empty or missing manifest, and the survivor agrees with the
    shard journals."""
    specs = [MachineSpec(chip="TTT", seed=seed) for seed in (2017, 2018)]
    fleet = FleetStore.create(
        tmp_path, specs, FrameworkConfig(start_mv=905, campaigns=1,
                                         runs_per_level=3), ["mcf"], [0])
    ParallelCampaignEngine(specs[0], fleet.manifest.config).run(
        [get_benchmark("mcf")], [0], store=fleet)
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(3)
    results = context.Queue()
    workers = [
        context.Process(target=_refresh_worker,
                        args=(str(tmp_path), barrier, results))
        for _ in range(3)
    ]
    for worker in workers:
        worker.start()
    reports = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=120)
    assert reports == [[], [], []]
    assert all(worker.exitcode == 0 for worker in workers)

    on_disk = json.loads((tmp_path / FLEET_MANIFEST_NAME).read_text())
    derived = [
        len(CampaignStore.open(fleet.shard_path(entry)).completed_keys())
        for entry in fleet.manifest.shards
    ]
    assert [s["watermark"] for s in on_disk["shards"]] == derived == [1, 0]
    assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []
