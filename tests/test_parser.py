"""Log round-trip: format -> parse -> classify."""

import pytest

from repro.core.parser import (
    ParsedRun,
    format_run_block,
    parse_log,
    parse_records,
)
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import ParseError


def block(**overrides):
    defaults = dict(
        chip="TTT", benchmark="bwaves", core=0, voltage_mv=905,
        freq_mhz=2400, campaign_index=1, run_index=3, exit_code=0,
        output="aaa", expected_output="aaa", edac_ce=0, edac_ue=0,
        responsive=True, watchdog_action="none",
    )
    defaults.update(overrides)
    return format_run_block(**defaults)


class TestRoundTrip:
    def test_normal_run(self):
        runs = parse_log(block())
        assert len(runs) == 1
        run = runs[0]
        assert run.effects == frozenset({EffectType.NO})
        assert run.chip == "TTT"
        assert run.voltage_mv == 905
        assert run.campaign_index == 1 and run.run_index == 3
        assert run.output_matches is True

    def test_sdc_run(self):
        runs = parse_log(block(output="bbb"))
        assert runs[0].effects == frozenset({EffectType.SDC})
        assert runs[0].output_matches is False

    def test_app_crash_run(self):
        runs = parse_log(block(exit_code=139, output=None))
        assert runs[0].effects == frozenset({EffectType.AC})
        assert runs[0].exit_code == 139
        assert runs[0].output_matches is None

    def test_system_crash_truncates_block(self):
        text = block(responsive=False, exit_code=None, output=None,
                     watchdog_action="reset")
        assert "exit_code" not in text
        assert "edac" not in text
        runs = parse_log(text)
        assert runs[0].effects == frozenset({EffectType.SC})
        assert runs[0].watchdog_action == "reset"

    def test_edac_effects(self):
        runs = parse_log(block(edac_ce=2, edac_ue=1))
        assert runs[0].effects == frozenset({EffectType.CE, EffectType.UE})
        assert runs[0].edac_ce == 2 and runs[0].edac_ue == 1

    def test_multi_block_log(self):
        text = block(run_index=1) + block(run_index=2, output="bad") + \
            block(run_index=3, responsive=False, exit_code=None, output=None)
        runs = parse_log(text)
        assert [r.run_index for r in runs] == [1, 2, 3]
        assert runs[1].effects == frozenset({EffectType.SDC})
        assert runs[2].effects == frozenset({EffectType.SC})

    def test_program_names_with_inputs(self):
        runs = parse_log(block(benchmark="gcc/200"))
        assert runs[0].benchmark == "gcc/200"


class TestRobustness:
    """Every case holds for both parse entry points (one scanner)."""

    def test_empty_log(self):
        assert parse_log("") == []
        assert parse_records("") == ()

    def test_garbage_before_header_rejected(self):
        for parse in (parse_log, parse_records):
            with pytest.raises(ParseError, match="random noise"):
                parse("random noise\n" + block())

    def test_malformed_header_rejected(self):
        for parse in (parse_log, parse_records):
            with pytest.raises(ParseError, match="malformed run header"):
                parse("=== RUN gibberish ===\nstatus=completed\n")

    def test_missing_status_rejected(self):
        text = block().replace("status=completed\n", "")
        for parse in (parse_log, parse_records):
            with pytest.raises(ParseError, match="missing status"):
                parse(text)

    def test_blank_lines_between_blocks_tolerated(self):
        text = block(run_index=1) + "\n\n" + block(run_index=2)
        assert len(parse_log(text)) == 2
        assert len(parse_records(text)) == 2


def as_record(run):
    """A :class:`ParsedRun` as the run record the framework builds."""
    return RunRecord(
        chip=run.chip,
        benchmark=run.benchmark,
        setup=CharacterizationSetup(
            voltage_mv=run.voltage_mv, freq_mhz=run.freq_mhz, core=run.core
        ),
        campaign_index=run.campaign_index,
        run_index=run.run_index,
        effects=run.effects,
        exit_code=run.exit_code,
        output_matches=run.output_matches,
        edac_ce=run.edac_ce,
        edac_ue=run.edac_ue,
        watchdog_intervened=run.watchdog_action != "none",
        detail=dict(run.edac_locations),
    )


class TestParseRecords:
    """parse_records is parse_log laid out as RunRecords."""

    def log(self):
        return (
            block(run_index=1)
            + block(run_index=2, output="bbb", edac_ce=1,
                    edac_locations={"ce_L2": 1})
            + block(run_index=3, exit_code=139, output=None)
            + block(run_index=4, responsive=False, exit_code=None,
                    output=None, watchdog_action="reset")
            + block(run_index=5)
            + block(run_index=1, voltage_mv=900, edac_ce=2, edac_ue=1,
                    edac_locations={"ue_L2": 1, "ce_L3": 2})
        )

    def test_matches_parse_log(self):
        text = self.log()
        records = parse_records(text)
        assert records == tuple(as_record(run) for run in parse_log(text))
        assert [r.run_index for r in records] == [1, 2, 3, 4, 5, 1]
        assert records[1].detail == {"ce_L2": 1}
        assert records[3].watchdog_intervened and records[3].crashed_system

    def test_repeated_bodies_get_their_own_detail(self):
        text = block(run_index=1, edac_ce=1, edac_locations={"ce_L2": 1}) \
            + block(run_index=2, edac_ce=1, edac_locations={"ce_L2": 1})
        first, second = parse_records(text)
        assert first.detail == second.detail == {"ce_L2": 1}
        assert first.detail is not second.detail

    def test_other_line_breaks_split_like_splitlines(self):
        text = self.log()
        for brk in ("\r\n", "\r", "\x0c", "\u2028"):
            spliced = text.replace("\n", brk)
            assert parse_records(spliced) == parse_records(text)
            assert parse_log(spliced) == parse_log(text)

    def test_header_tail_checked_on_a_known_prefix(self):
        good = block(run_index=1)
        bad = block(run_index=2).replace("run=2 ===", "run=2x ===")
        for parse in (parse_log, parse_records):
            with pytest.raises(ParseError, match="malformed run header"):
                parse(good + bad)

    def test_missing_status_names_the_failing_block(self):
        text = block(run_index=1) + block(run_index=2).replace(
            "status=completed\n", "")
        with pytest.raises(ParseError, match="run=2"):
            parse_records(text)
