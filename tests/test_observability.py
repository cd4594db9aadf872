"""The observability plane: trace analytics, the ``repro-tsdb/v1``
snapshot journal, health rules and ``repro dash``.

Tentpole contracts asserted end to end:

* the tsdb sampler never perturbs the run -- journal and CSV bytes
  match a telemetry-off run, including killed-and-resumed;
* a warm :class:`TsdbCursor` serializes byte-equal to a from-scratch
  re-parse at *every* kill point of the journal file;
* ``repro analyze`` is deterministic (same dir -> same bytes) and its
  phase attribution sums to the total session span time;
* Prometheus label values round-trip through escaping, and every
  exported ``M_*`` metric is cataloged and documented.
"""

import json
import math
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.parallel import MachineSpec, ParallelCampaignEngine
from repro.core import FrameworkConfig
from repro.store import CampaignStore, FleetStore, JOURNAL_NAME
from repro.telemetry import (
    DEFAULT_BUCKETS,
    FSYNC_BUCKETS,
    METRIC_CATALOG,
    M_EFFECTS,
    M_INTERVENTIONS,
    M_JOURNAL_FSYNC_SECONDS,
    M_TASK_SECONDS,
    M_TASKS_COMPLETED,
    M_THROUGHPUT,
    M_TSDB_SNAPSHOTS,
    MetricsRegistry,
    MetricSpec,
    PARENT_SPAN_ID_BASE,
    PHASES,
    Dashboard,
    HealthRule,
    SpanRecord,
    TSDB_FORMAT,
    TSDB_NAME,
    TraceWriter,
    Tracer,
    TsdbCursor,
    TsdbSampler,
    TsdbWriter,
    analyze_trace_dir,
    default_health_rules,
    evaluate_rules,
    health_report,
    load_spans,
    overall_status,
    render_analysis,
    render_dash,
    render_health,
    serialize_health,
    telemetry_session,
)
from repro.telemetry.metrics import (
    _escape_help,
    _escape_label_value,
    _unescape_label_value,
)
from repro.workloads import get_benchmark

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Same watchdog-exercising sweep as test_telemetry: starts right below
#: bwaves Vmin so the journals cover recovery and drift signals too.
CFG = FrameworkConfig(start_mv=905, campaigns=2, runs_per_level=3)
SPEC = MachineSpec(chip="TTT", seed=2017)
CORES = [0]
TOTAL_TASKS = 1 * len(CORES) * CFG.campaigns

#: Serial sampling cadence: one snapshot after replay, one per chunk
#: (chunk_size = max(1, tasks//(jobs*4)) = 1 -> 2 chunks), one final.
EXPECTED_SNAPSHOTS = 1 + TOTAL_TASKS + 1


def run_grid(store=None, resume=False, **kwargs):
    engine = ParallelCampaignEngine(SPEC, CFG, **kwargs)
    return engine.run([get_benchmark("bwaves")], CORES,
                      store=store, resume=resume)


def observed_run(store, trace_dir=None, **kwargs):
    """A traced + metered + tsdb-sampled run (the full ``--tsdb`` path)."""
    reg = MetricsRegistry()
    tracer = None
    if trace_dir is not None:
        tracer = Tracer(TraceWriter(trace_dir), first_id=PARENT_SPAN_ID_BASE)
    with telemetry_session(tracer=tracer, metrics=reg, tsdb=TsdbSampler()):
        report = run_grid(store=store, **kwargs)
    return report, reg


@pytest.fixture(scope="module")
def baseline_store(tmp_path_factory):
    """The telemetry-off reference store + exported CSVs."""
    directory = tmp_path_factory.mktemp("baseline-store")
    run_grid(store=directory, jobs=1)
    CampaignStore.open(directory).export_csv()
    return directory


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One fully-observed run: store + trace dir + tsdb journal + CSVs."""
    root = tmp_path_factory.mktemp("observed")
    observed_run(root / "store", root / "trace", jobs=1)
    CampaignStore.open(root / "store").export_csv()
    return root


# ---------------------------------------------------------------------------
# satellite: label-value escaping in the Prometheus exposition
# ---------------------------------------------------------------------------

#: Escape-aware sample grammar: label values are any run of escaped
#: characters or literals that are neither '"' nor '\'.
_ESCAPED_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"((?:\\.|[^\"\\])*)\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)

NASTY_VALUES = [
    'back\\slash',
    'quo"te',
    'new\nline',
    'all\\of"the\nabove\\n',
    '\\',
    '"',
    '\n',
    'trailing\\',
]


class TestLabelEscaping:
    @pytest.mark.parametrize("value", NASTY_VALUES)
    def test_escape_round_trips(self, value):
        assert _unescape_label_value(_escape_label_value(value)) == value

    def test_escape_is_injective_on_the_nasty_set(self):
        escaped = {_escape_label_value(v) for v in NASTY_VALUES}
        assert len(escaped) == len(NASTY_VALUES)

    @pytest.mark.parametrize("value", NASTY_VALUES)
    def test_exposition_stays_line_oriented(self, value):
        reg = MetricsRegistry()
        reg.counter(M_EFFECTS, effect=value).inc()
        text = reg.render_prometheus()
        assert text.endswith("\n")
        sample_lines = [
            line for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert len(sample_lines) == 1  # a raw newline would split it
        match = _ESCAPED_SAMPLE_RE.match(sample_lines[0])
        assert match, f"unparseable sample line: {sample_lines[0]!r}"
        assert _unescape_label_value(match.group(2)) == value

    def test_grammar_rejects_unescaped_quote(self):
        # The grammar itself must not accept what escaping prevents.
        assert not _ESCAPED_SAMPLE_RE.match('m{l="a"b"} 1')

    def test_help_escapes_backslash_and_newline_only(self):
        assert _escape_help('a\\b\nc"d') == 'a\\\\b\\nc"d'


# ---------------------------------------------------------------------------
# satellite: torn-trailing-line tolerance in load_spans
# ---------------------------------------------------------------------------

def _span_line(span_id, name="task", trace_id="bwaves:c0:k1",
               start=0.0, end=1.0, parent=None, **attrs):
    record = SpanRecord(
        trace_id=trace_id, name=name, span_id=span_id, parent_id=parent,
        start_s=start, end_s=end, attributes=tuple(attrs.items()),
    )
    return json.dumps(record.to_json_dict(), sort_keys=True) + "\n"


class TestLoadSpansTornTail:
    def _write(self, path, body):
        path.write_bytes(body.encode("utf-8")
                         if isinstance(body, str) else body)
        return path

    def test_strict_raises_on_torn_tail(self, tmp_path):
        path = self._write(tmp_path / "t.jsonl",
                           _span_line(1) + '{"format": "repro-span/v1", "tr')
        with pytest.raises(ValueError):
            load_spans(path)

    def test_non_strict_drops_torn_tail(self, tmp_path):
        path = self._write(tmp_path / "t.jsonl",
                           _span_line(1) + _span_line(2)
                           + '{"format": "repro-span/v1", "tr')
        records = load_spans(path, strict=False)
        assert [r.span_id for r in records] == [1, 2]

    def test_non_strict_drops_unterminated_parseable_tail(self, tmp_path):
        # A last line that parses but lacks its newline is still a stub:
        # the writer was killed between write() and the final flush.
        path = self._write(tmp_path / "t.jsonl",
                           _span_line(1) + _span_line(2).rstrip("\n"))
        records = load_spans(path, strict=False)
        assert [r.span_id for r in records] == [1]

    @pytest.mark.parametrize("strict", [True, False])
    def test_mid_file_corruption_always_raises(self, tmp_path, strict):
        path = self._write(tmp_path / "t.jsonl",
                           _span_line(1) + "garbage\n" + _span_line(2))
        with pytest.raises(ValueError, match="corrupt trace line 2"):
            load_spans(path, strict=strict)

    def test_every_kill_point_loads_non_strict(self, tmp_path):
        """Truncate the file at every byte: non-strict never raises and
        recovers exactly the fully-terminated prefix lines."""
        lines = [_span_line(i, start=float(i), end=float(i) + 1.0)
                 for i in (1, 2, 3)]
        data = "".join(lines).encode("utf-8")
        path = tmp_path / "t.jsonl"
        offsets = [0]
        for line in lines:
            offsets.append(offsets[-1] + len(line.encode("utf-8")))
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            records = load_spans(path, strict=False)
            expected = sum(1 for off in offsets[1:] if cut >= off)
            assert len(records) == expected, f"kill point at byte {cut}"


# ---------------------------------------------------------------------------
# satellite: per-metric histogram bucket overrides
# ---------------------------------------------------------------------------

class TestBucketOverrides:
    def test_fsync_histogram_gets_catalog_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram(M_JOURNAL_FSYNC_SECONDS)
        assert hist.buckets == FSYNC_BUCKETS
        # The point of the override: sub-millisecond resolution.
        assert min(FSYNC_BUCKETS) < 0.001
        assert sum(1 for b in FSYNC_BUCKETS if b < 0.001) >= 3

    def test_explicit_buckets_beat_the_catalog(self):
        reg = MetricsRegistry()
        hist = reg.histogram(M_JOURNAL_FSYNC_SECONDS, buckets=(1.0, 2.0))
        assert hist.buckets == (1.0, 2.0)

    def test_uncataloged_metric_falls_back_to_defaults(self):
        reg = MetricsRegistry()
        assert reg.histogram("repro_adhoc_seconds").buckets == DEFAULT_BUCKETS

    def test_cataloged_histogram_without_override_uses_defaults(self):
        reg = MetricsRegistry()
        assert reg.histogram(M_TASK_SECONDS).buckets == DEFAULT_BUCKETS

    def test_catalog_rejects_buckets_on_non_histograms(self):
        spec = MetricSpec(kind="counter", help="x", buckets=(1.0,))
        assert spec.buckets == (1.0,)  # the spec itself is inert ...
        # ... the catalog validation loop is what rejects it: every
        # committed entry with buckets must be a histogram.
        for name, entry in METRIC_CATALOG.items():
            if entry.buckets is not None:
                assert entry.kind == "histogram", name


# ---------------------------------------------------------------------------
# satellite: catalog + docs drift guard
# ---------------------------------------------------------------------------

class TestCatalogDriftGuard:
    def _exported_metric_names(self):
        import repro.telemetry as telemetry

        return {
            getattr(telemetry, attr)
            for attr in dir(telemetry)
            if attr.startswith("M_")
        }

    def test_every_exported_metric_is_cataloged(self):
        exported = self._exported_metric_names()
        missing = exported - set(METRIC_CATALOG)
        assert not missing, f"exported M_* without catalog entry: {missing}"

    def test_catalog_has_no_orphan_entries(self):
        orphans = set(METRIC_CATALOG) - self._exported_metric_names()
        assert not orphans, f"cataloged but not exported as M_*: {orphans}"

    def test_every_cataloged_metric_is_documented(self):
        docs = (REPO_ROOT / "docs" / "observability.md").read_text()
        undocumented = [n for n in METRIC_CATALOG if n not in docs]
        assert not undocumented, (
            f"metrics missing from docs/observability.md: {undocumented}"
        )


# ---------------------------------------------------------------------------
# tentpole: tsdb writer durability
# ---------------------------------------------------------------------------

def _tiny_registry(tasks=1.0):
    reg = MetricsRegistry()
    reg.counter(M_TASKS_COMPLETED).inc(tasks)
    reg.histogram(M_TASK_SECONDS).observe(0.5)
    return reg


class TestTsdbWriter:
    def test_appends_are_self_describing(self, tmp_path):
        reg = _tiny_registry()
        writer = TsdbWriter(tmp_path / TSDB_NAME)
        assert writer.append(reg, 1.0) == 1
        assert writer.append(reg, 2.0) == 2
        for line in (tmp_path / TSDB_NAME).read_text().splitlines():
            data = json.loads(line)
            assert data["format"] == TSDB_FORMAT
            snap_counter = [m for m in data["metrics"]
                           if m["name"] == M_TSDB_SNAPSHOTS]
            assert len(snap_counter) == 1
            # Snapshot N reports N: the counter bumps before sampling.
            assert snap_counter[0]["samples"][0]["value"] == data["seq"]

    def test_reopen_resumes_sequence(self, tmp_path):
        reg = _tiny_registry()
        TsdbWriter(tmp_path / TSDB_NAME).append(reg, 1.0)
        assert TsdbWriter(tmp_path / TSDB_NAME).append(reg, 2.0) == 2

    def test_torn_tail_healed_on_next_append(self, tmp_path):
        reg = _tiny_registry()
        path = tmp_path / TSDB_NAME
        writer = TsdbWriter(path)
        writer.append(reg, 1.0)
        writer.append(reg, 2.0)
        with path.open("ab") as handle:
            handle.write(b'{"format": "repro-tsdb/v1", "seq": 3, "t_')
        healed = TsdbWriter(path)
        assert healed.append(reg, 3.0) == 3
        seqs = [json.loads(line)["seq"]
                for line in path.read_text().splitlines()]
        assert seqs == [1, 2, 3]

    def test_mid_file_corruption_rejected(self, tmp_path):
        reg = _tiny_registry()
        path = tmp_path / TSDB_NAME
        TsdbWriter(path).append(reg, 1.0)
        with path.open("ab") as handle:
            handle.write(b"garbage\n")
        TsdbWriter(path).append(reg, 2.0)  # garbage was the tail: healed
        body = path.read_bytes()
        first_end = body.index(b"\n") + 1
        path.write_bytes(body[:first_end] + b"garbage\n" + body[first_end:])
        with pytest.raises(ValueError, match="corrupt tsdb line"):
            TsdbWriter(path)

    def test_foreign_journal_rejected(self, tmp_path):
        path = tmp_path / TSDB_NAME
        path.write_text('{"format": "not-a-tsdb", "seq": 1}\n')
        with pytest.raises(ValueError, match="not a repro-tsdb/v1"):
            TsdbWriter(path)

    def test_sampler_lands_one_journal_per_directory(self, tmp_path):
        sampler = TsdbSampler(clock=lambda: 1.0)
        reg = _tiny_registry()
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            sampler.sample(reg, tmp_path / name)
        assert (tmp_path / "a" / TSDB_NAME).exists()
        assert (tmp_path / "b" / TSDB_NAME).exists()
        shard = json.loads((tmp_path / "b" / TSDB_NAME).read_text())["shard"]
        assert shard == "b"


# ---------------------------------------------------------------------------
# tentpole: warm cursor == re-parse at every kill point
# ---------------------------------------------------------------------------

class TestTsdbCursor:
    def _journal_bytes(self, tmp_path, snapshots=3, torn_tail=True):
        path = tmp_path / TSDB_NAME
        writer = TsdbWriter(path)
        reg = _tiny_registry()
        for i in range(snapshots):
            reg.counter(M_TASKS_COMPLETED).inc()
            writer.append(reg, float(i + 1))
        data = path.read_bytes()
        if torn_tail:
            data += b'{"format": "repro-tsdb/v1", "seq": 99, "t_'
        return data

    def test_warm_equals_reparse_at_every_kill_point(self, tmp_path):
        """The acceptance criterion, byte for byte: a cursor advanced
        incrementally over every prefix of the journal serializes
        identically to a from-scratch re-parse of that prefix."""
        data = self._journal_bytes(tmp_path)
        path = tmp_path / "grow" / TSDB_NAME
        path.parent.mkdir()
        warm = TsdbCursor()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            warm.advance(path)
            assert warm.serialize() == TsdbCursor.from_reparse(path).serialize(), (
                f"warm cursor diverged from re-parse at kill point {cut}"
            )

    def test_advance_is_idempotent(self, tmp_path):
        data = self._journal_bytes(tmp_path, torn_tail=False)
        path = tmp_path / "j" / TSDB_NAME
        path.parent.mkdir()
        path.write_bytes(data)
        cursor = TsdbCursor()
        assert cursor.advance(path) == 3
        assert cursor.advance(path) == 0
        assert cursor.snapshots == 3 and cursor.last_seq == 3

    def test_missing_file_is_not_an_error(self, tmp_path):
        cursor = TsdbCursor()
        assert cursor.advance(tmp_path / "absent.jsonl") == 0
        assert cursor.snapshots == 0

    def test_shrunk_file_rejected(self, tmp_path):
        data = self._journal_bytes(tmp_path, torn_tail=False)
        path = tmp_path / "j" / TSDB_NAME
        path.parent.mkdir()
        path.write_bytes(data)
        cursor = TsdbCursor.from_reparse(path)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="shrank"):
            cursor.advance(path)

    def test_non_monotonic_seq_rejected(self, tmp_path):
        data = self._journal_bytes(tmp_path, torn_tail=False)
        lines = data.splitlines(keepends=True)
        path = tmp_path / "bad.jsonl"
        path.write_bytes(lines[1] + lines[0])
        with pytest.raises(ValueError, match="not monotonic"):
            TsdbCursor.from_reparse(path)

    def test_queries_over_folded_series(self, tmp_path):
        data = self._journal_bytes(tmp_path, torn_tail=False)
        path = tmp_path / "q.jsonl"
        path.write_bytes(data)
        cursor = TsdbCursor.from_reparse(path)
        # _journal_bytes starts at 1 task and increments per snapshot.
        assert cursor.last_total(M_TASKS_COMPLETED) == 4.0
        assert cursor.last_total("repro_never_reported") is None
        assert cursor.mean(M_TASK_SECONDS) == pytest.approx(0.5)
        quantile = cursor.quantile(M_TASK_SECONDS, 0.99)
        assert quantile is not None and quantile >= 0.5
        totals = cursor.histogram_totals(M_TASK_SECONDS)
        assert totals is not None and totals[1] == 1
        assert math.isinf(totals[2][-1][0])


# ---------------------------------------------------------------------------
# tentpole: the sampler never perturbs the run
# ---------------------------------------------------------------------------

class TestSamplerNeutrality:
    def test_store_bytes_match_telemetry_off(self, observed, baseline_store):
        store = observed / "store"
        assert (store / TSDB_NAME).exists()
        for name in (JOURNAL_NAME, "runs.csv", "severity.csv"):
            assert (store / name).read_bytes() == \
                (baseline_store / name).read_bytes()

    def test_killed_and_resumed_with_sampler_matches(self, tmp_path,
                                                     baseline_store):
        store = tmp_path / "store"
        observed_run(store, jobs=1)
        lines = (store / JOURNAL_NAME).read_text().splitlines(keepends=True)
        (store / JOURNAL_NAME).write_text(lines[0])
        report, _reg = observed_run(store, jobs=1, resume=True)
        assert report.tasks_skipped == 1
        CampaignStore.open(store).export_csv()
        for name in (JOURNAL_NAME, "runs.csv", "severity.csv"):
            assert (store / name).read_bytes() == \
                (baseline_store / name).read_bytes()
        # The tsdb journal survived both sessions with monotonic seqs.
        cursor = TsdbCursor.from_reparse(store / TSDB_NAME)
        assert cursor.snapshots == cursor.last_seq

    def test_serial_sampling_cadence(self, observed):
        cursor = TsdbCursor.from_reparse(observed / "store" / TSDB_NAME)
        assert cursor.snapshots == EXPECTED_SNAPSHOTS
        assert cursor.last_total(M_TSDB_SNAPSHOTS) == EXPECTED_SNAPSHOTS
        # The final snapshot lands after finish(): throughput is there.
        throughput = cursor.last_total(M_THROUGHPUT)
        assert throughput is not None and throughput > 0
        assert cursor.last_total(M_TASKS_COMPLETED) == TOTAL_TASKS

    def test_no_sampler_no_journal(self, baseline_store):
        assert not (baseline_store / TSDB_NAME).exists()


# ---------------------------------------------------------------------------
# tentpole: trace analytics
# ---------------------------------------------------------------------------

class TestAnalytics:
    def test_same_directory_same_bytes(self, observed):
        first = analyze_trace_dir(observed / "trace").serialize()
        second = analyze_trace_dir(observed / "trace").serialize()
        assert first == second

    def test_phase_attribution_sums_to_session_time(self, observed):
        analysis = analyze_trace_dir(observed / "trace")
        total = analysis.total_session_s
        assert total > 0
        attributed = sum(s for _phase, s in analysis.phase_seconds)
        assert attributed == pytest.approx(total, abs=1e-9)
        assert tuple(p for p, _s in analysis.phase_seconds) == PHASES

    def test_real_phases_observed(self, observed):
        analysis = analyze_trace_dir(observed / "trace")
        phases = dict(analysis.phase_seconds)
        assert phases["voltage_step"] > 0
        assert phases["journal_append"] > 0
        assert analysis.backend == "serial" and analysis.jobs == 1
        assert len(analysis.tasks) == TOTAL_TASKS
        assert 0 < analysis.utilization <= 1.0

    def test_critical_path_walks_down_from_task(self, observed):
        analysis = analyze_trace_dir(observed / "trace")
        for task in analysis.tasks:
            path = task.critical_path
            assert path and path[0].name == "task"
            assert [step.depth for step in path] == list(range(len(path)))
            for step in path:
                assert 0 <= step.self_s <= step.duration_s + 1e-12

    def test_straggler_detection(self, tmp_path):
        # Three synthetic tasks: 1 s, 1 s and 10 s -> median 1 s, the
        # slow one crosses the 1.5x threshold.
        writer = TraceWriter(tmp_path)
        durations = {"a:c0:k1": 1.0, "b:c0:k1": 1.0, "c:c0:k1": 10.0}
        span_id = 1
        for trace_id, duration in sorted(durations.items()):
            writer(SpanRecord(
                trace_id=trace_id, name="task", span_id=span_id,
                parent_id=None, start_s=0.0, end_s=duration,
                attributes=(("benchmark", trace_id.split(":")[0]),
                            ("core", 0), ("campaign", 1)),
            ))
            span_id += 1
        analysis = analyze_trace_dir(tmp_path)
        assert analysis.stragglers == ("c:c0:k1",)

    def test_late_commit_is_not_a_straggler(self, tmp_path):
        # Three tasks execute for 1 s each; the first one's result is
        # journaled at 10 s, when its chunk commits.  That wait is
        # commit-wait, not work: no straggler, utilization from 3 s.
        writer = TraceWriter(tmp_path)
        for span_id, trace_id in enumerate(("a:c0:k1", "b:c0:k1", "c:c0:k1")):
            start = float(span_id)
            writer(SpanRecord(
                trace_id=trace_id, name="task", span_id=10 * span_id + 1,
                parent_id=None, start_s=start, end_s=start + 1.0,
                attributes=(("benchmark", trace_id.split(":")[0]),
                            ("core", 0), ("campaign", 1)),
            ))
        writer(SpanRecord(
            trace_id="a:c0:k1", name="journal.append", span_id=2,
            parent_id=None, start_s=9.5, end_s=10.0,
        ))
        analysis = analyze_trace_dir(tmp_path)
        first = analysis.tasks[0]
        assert first.duration_s == 10.0
        assert first.execute_s == 1.0 and first.commit_wait_s == 9.0
        assert analysis.stragglers == ()
        assert analysis.utilization == pytest.approx(3.0 / 10.0)

    def test_serial_grid_utilization_at_most_one_worker(self, tmp_path,
                                                        capsys):
        # Regression: this serial grid used to report ~165 % of 1
        # worker and flag its first task a straggler, because each
        # task's time ran to its append at chunk commit.
        assert main([
            "grid", "TTT", "--benchmarks", "bwaves,mcf,gcc",
            "--cores", "0,2", "--campaigns", "2",
            "--store", str(tmp_path / "S"), "--trace", str(tmp_path / "T"),
        ]) == 0
        capsys.readouterr()
        analysis = analyze_trace_dir(tmp_path / "T")
        assert analysis.jobs == 1 and len(analysis.tasks) == 12
        assert 0 < analysis.utilization <= 1.0
        for task in analysis.tasks:
            assert task.commit_wait_s >= 0
            assert task.execute_s + task.commit_wait_s == pytest.approx(
                task.duration_s)
        executes = sorted(task.execute_s for task in analysis.tasks)
        median = executes[len(executes) // 2]
        assert set(analysis.stragglers) == {
            task.trace_id for task in analysis.tasks
            if task.execute_s > 1.5 * median
        }

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace"):
            analyze_trace_dir(tmp_path)

    def test_render_is_deterministic_and_complete(self, observed):
        analysis = analyze_trace_dir(observed / "trace")
        text = render_analysis(analysis)
        assert text == render_analysis(analysis)
        assert "phase attribution:" in text
        for phase in PHASES:
            assert phase in text
        assert "critical path of slowest task" in text


# ---------------------------------------------------------------------------
# tentpole: health rules
# ---------------------------------------------------------------------------

def _cursor_with(tmp_path, build):
    """A cursor folded from one registry snapshot shaped by ``build``."""
    reg = MetricsRegistry()
    build(reg)
    path = tmp_path / TSDB_NAME
    TsdbWriter(path).append(reg, 1.0)
    return TsdbCursor.from_reparse(path)


class TestHealthRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="stat"):
            HealthRule(name="r", metric="m", stat="p50", bound=1.0)
        with pytest.raises(ValueError, match="op"):
            HealthRule(name="r", metric="m", stat="last", bound=1.0, op="<")
        with pytest.raises(ValueError, match="per_metric"):
            HealthRule(name="r", metric="m", stat="per", bound=1.0)
        with pytest.raises(ValueError, match="per_metric"):
            HealthRule(name="r", metric="m", stat="last", bound=1.0,
                       per_metric="n")

    def test_ok_fail_skip(self, tmp_path):
        cursor = _cursor_with(
            tmp_path, lambda reg: reg.counter(M_INTERVENTIONS).inc(4))
        rules = (
            HealthRule(name="ok", metric=M_INTERVENTIONS, stat="last",
                       bound=5.0),
            HealthRule(name="fail", metric=M_INTERVENTIONS, stat="last",
                       bound=3.0),
            HealthRule(name="floor-fail", metric=M_INTERVENTIONS,
                       stat="last", bound=10.0, op=">="),
            HealthRule(name="skip", metric="repro_absent", stat="last",
                       bound=1.0),
        )
        verdicts = evaluate_rules(cursor, rules)
        assert [v.status for v in verdicts] == ["ok", "fail", "fail", "skip"]
        assert verdicts[0].observed == 4.0
        assert verdicts[3].observed is None
        assert overall_status(verdicts) == "fail"

    def test_per_stat_ratio(self, tmp_path):
        def build(reg):
            reg.counter(M_INTERVENTIONS).inc(6)
            reg.counter(M_TASKS_COMPLETED).inc(3)

        cursor = _cursor_with(tmp_path, build)
        rule = HealthRule(name="rate", metric=M_INTERVENTIONS, stat="per",
                          per_metric=M_TASKS_COMPLETED, bound=2.0)
        (verdict,) = evaluate_rules(cursor, (rule,))
        assert verdict.status == "ok"
        assert verdict.observed == pytest.approx(2.0)

    def test_per_stat_skips_on_zero_denominator(self, tmp_path):
        cursor = _cursor_with(
            tmp_path, lambda reg: reg.counter(M_INTERVENTIONS).inc(6))
        rule = HealthRule(name="rate", metric=M_INTERVENTIONS, stat="per",
                          per_metric=M_TASKS_COMPLETED, bound=2.0)
        (verdict,) = evaluate_rules(cursor, (rule,))
        assert verdict.status == "skip"

    def test_overall_status_precedence(self):
        from repro.telemetry import HealthVerdict

        ok = HealthVerdict(rule="a", status="ok", bound=1.0, op="<=")
        skip = HealthVerdict(rule="b", status="skip", bound=1.0, op="<=")
        fail = HealthVerdict(rule="c", status="fail", bound=1.0, op="<=")
        assert overall_status(()) == "skip"
        assert overall_status((skip,)) == "skip"
        assert overall_status((skip, ok)) == "ok"
        assert overall_status((skip, ok, fail)) == "fail"

    def test_default_rules_gate_throughput_on_baseline(self):
        names = [r.name for r in default_health_rules()]
        assert names == ["watchdog-rate", "fsync-p99", "model-drift"]
        with_floor = default_health_rules({"campaign_min_s": 0.002})
        assert [r.name for r in with_floor][-1] == "throughput-floor"
        floor = with_floor[-1]
        assert floor.op == ">="
        assert floor.bound == pytest.approx(1.0 / (0.002 * 1000.0))
        committed = REPO_ROOT / "benchmarks" / "framework_baseline.json"
        assert len(default_health_rules(committed)) == 4

    def test_report_and_serialization_are_canonical(self, tmp_path):
        cursor = _cursor_with(
            tmp_path, lambda reg: reg.counter(M_INTERVENTIONS).inc())
        verdicts = evaluate_rules(cursor, default_health_rules())
        report = health_report(verdicts, source="s")
        assert report["format"] == "repro-health/v1"
        assert report["status"] == overall_status(verdicts)
        body = serialize_health(verdicts, source="s")
        assert body.endswith("\n")
        assert json.loads(body) == report
        text = render_health(verdicts)
        assert text.startswith("health: ")
        for verdict in verdicts:
            assert verdict.rule in text


# ---------------------------------------------------------------------------
# tentpole: the dashboard
# ---------------------------------------------------------------------------

class TestDashboard:
    def test_campaign_dash_over_observed_store(self, observed):
        dash = Dashboard(observed / "store")
        snapshot = dash.refresh()
        assert snapshot.kind == "campaign"
        assert snapshot.complete
        assert snapshot.tasks_completed == TOTAL_TASKS
        assert snapshot.snapshots == EXPECTED_SNAPSHOTS
        assert snapshot.journals == 1
        assert snapshot.throughput is not None
        assert snapshot.rows == (("bwaves c0", CFG.campaigns, CFG.campaigns),)
        assert snapshot.health in ("ok", "fail", "skip")

    def test_refresh_reuses_warm_cursors(self, observed):
        dash = Dashboard(observed / "store")
        first = dash.refresh()
        (cursor,) = dash._cursors.values()
        consumed = cursor.consumed_bytes
        second = dash.refresh()
        assert cursor.consumed_bytes == consumed  # nothing re-parsed
        assert second.snapshots == first.snapshots

    def test_dash_without_tsdb_still_reports_progress(self, baseline_store):
        snapshot = Dashboard(baseline_store).refresh()
        assert snapshot.complete and snapshot.snapshots == 0
        assert snapshot.eta_s is None
        assert all(v.status == "skip" for v in snapshot.verdicts)
        text = render_dash(snapshot)
        assert "no snapshots yet" in text

    def test_fleet_dash(self, tmp_path):
        fleet_dir = tmp_path / "fleet"
        FleetStore.create(fleet_dir, [SPEC], CFG, ["bwaves"], CORES)
        observed_run(fleet_dir, jobs=1)
        fleet = FleetStore.open(fleet_dir)
        (entry,) = fleet.manifest.shards
        assert fleet.tsdb_path(entry).exists()
        snapshot = Dashboard(fleet_dir).refresh()
        assert snapshot.kind == "fleet"
        assert snapshot.complete
        assert snapshot.journals == 1
        assert snapshot.rows == ((entry.name, TOTAL_TASKS, TOTAL_TASKS),)
        text = render_dash(snapshot)
        assert "[fleet store (1 shards)]" in text
        assert "shards:" in text

    def test_render_dash_layout(self, observed):
        snapshot = Dashboard(
            observed / "store",
            baseline=REPO_ROOT / "benchmarks" / "framework_baseline.json",
        ).refresh()
        text = render_dash(snapshot)
        assert text.startswith("repro dash -- ")
        assert "progress: [" in text and ", complete" in text
        assert "tsdb:" in text and "grid cells:" in text
        assert "health:" in text and "throughput-floor" in text


# ---------------------------------------------------------------------------
# CLI: repro analyze / repro dash / --tsdb
# ---------------------------------------------------------------------------

class TestCli:
    def test_analyze_json_is_deterministic(self, observed, capsys):
        assert main(["analyze", str(observed / "trace"), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(observed / "trace"), "--json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["format"] == "repro-analysis/v1"

    def test_analyze_renders_report(self, observed, capsys):
        assert main(["analyze", str(observed / "trace")]) == 0
        assert "phase attribution:" in capsys.readouterr().out

    def test_analyze_empty_dir_fails(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "no trace" in capsys.readouterr().err

    def test_dash_once(self, observed, capsys):
        assert main(["dash", str(observed / "store"), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro dash -- ")
        assert "health:" in out

    def test_dash_writes_health_report(self, observed, tmp_path, capsys):
        target = tmp_path / "health.json"
        assert main(["dash", str(observed / "store"), "--once",
                     "--health-out", str(target)]) == 0
        capsys.readouterr()
        report = json.loads(target.read_text())
        assert report["format"] == "repro-health/v1"
        assert report["source"] == str(observed / "store")

    def test_dash_missing_baseline_fails(self, observed, tmp_path, capsys):
        assert main(["dash", str(observed / "store"), "--once",
                     "--baseline", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_dash_missing_store_fails(self, tmp_path, capsys):
        assert main(["dash", str(tmp_path / "absent"), "--once"]) == 2
        capsys.readouterr()

    def test_grid_tsdb_flag_lands_journal(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "grid", "TTT", "--benchmarks", "bwaves", "--cores", "0",
            "--campaigns", "1", "--runs-per-level", "3",
            "--start-mv", "905", "--jobs", "1",
            "--store", str(store), "--tsdb",
        ]) == 0
        capsys.readouterr()
        cursor = TsdbCursor.from_reparse(store / TSDB_NAME)
        assert cursor.snapshots >= 2  # post-replay + chunks + final
        assert cursor.last_total(M_TSDB_SNAPSHOTS) == cursor.snapshots
