"""Location-resolved error analytics through the full log round-trip."""

import pytest

from repro.analysis.error_locations import location_profiles, onset_table
from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.parser import format_run_block, parse_log, parse_records
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.errors import CampaignError, ParseError
from repro.machines import MachineSpec, build_machine
from repro.workloads import get_benchmark


class TestLogRoundTrip:
    def test_locations_survive_format_and_parse(self):
        text = format_run_block(
            chip="TTT", benchmark="bwaves", core=0, voltage_mv=880,
            freq_mhz=2400, campaign_index=1, run_index=1, exit_code=0,
            output="a", expected_output="a", edac_ce=3, edac_ue=1,
            responsive=True,
            edac_locations={"ce_L2": 2, "ce_L3": 1, "ue_L2": 1},
        )
        run = parse_log(text)[0]
        assert run.edac_locations == {"ce_L2": 2, "ce_L3": 1, "ue_L2": 1}
        assert parse_records(text)[0].detail == run.edac_locations

    def test_absent_locations_parse_as_empty(self):
        text = format_run_block(
            chip="TTT", benchmark="mcf", core=0, voltage_mv=900,
            freq_mhz=2400, campaign_index=1, run_index=1, exit_code=0,
            output="a", expected_output="a", edac_ce=0, edac_ue=0,
            responsive=True,
        )
        assert parse_log(text)[0].edac_locations == {}
        assert parse_records(text)[0].detail == {}

    def test_malformed_locations_rejected(self):
        text = format_run_block(
            chip="TTT", benchmark="mcf", core=0, voltage_mv=900,
            freq_mhz=2400, campaign_index=1, run_index=1, exit_code=0,
            output="a", expected_output="a", edac_ce=1, edac_ue=0,
            responsive=True, edac_locations={"ce_L2": 1},
        ).replace("ce_L2:1", "ce_L2:banana")
        for parse in (parse_log, parse_records):
            with pytest.raises(ParseError, match="edac_locations"):
                parse(text)


def _record(voltage, detail):
    return RunRecord(
        chip="TTT", benchmark="bwaves",
        setup=CharacterizationSetup(voltage_mv=voltage, freq_mhz=2400, core=0),
        campaign_index=1, run_index=1,
        effects=frozenset({EffectType.CE}), exit_code=0,
        output_matches=True, detail=detail,
    )


class TestProfiles:
    def test_aggregation(self):
        records = [
            _record(890, {"ce_L2": 2}),
            _record(885, {"ce_L2": 1, "ue_L2": 1}),
            _record(885, {"ce_L3": 3}),
        ]
        profiles = location_profiles(records)
        assert profiles["L2"].total_ce == 3
        assert profiles["L2"].total_ue == 1
        assert profiles["L2"].onset_voltage_mv == 890
        assert profiles["L3"].onset_voltage_mv == 885

    def test_onset_table_sorted(self):
        records = [
            _record(890, {"ce_L2": 1}),
            _record(870, {"ce_L1D": 1}),
        ]
        rows = onset_table(location_profiles(records))
        assert [row[0] for row in rows] == ["L2", "L1D"]

    def test_empty_rejected(self):
        with pytest.raises(CampaignError):
            location_profiles([])


class TestEndToEnd:
    def test_l2_reports_before_l1(self):
        """Through the full framework: the L2/L3 ECC arrays start
        correcting at higher voltages than the L1 parity arrays show
        anything (the fault model's SRAM depth ordering, observed via
        the parser's location extension)."""
        machine = build_machine(MachineSpec(chip="TTT", seed=12))
        framework = CharacterizationFramework(
            machine, FrameworkConfig(start_mv=920, campaigns=4,
                                     stop_after_crash_levels=3)
        )
        result = framework.characterize(get_benchmark("bwaves"), core=0)
        profiles = location_profiles(result.all_records())
        assert "L2" in profiles, sorted(profiles)
        l2_onset = profiles["L2"].onset_voltage_mv
        assert l2_onset is not None
        if "L1D" in profiles or "L1I" in profiles:
            l1_onset = max(
                profiles[name].onset_voltage_mv
                for name in ("L1D", "L1I") if name in profiles
            )
            assert l2_onset >= l1_onset
