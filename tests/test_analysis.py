"""Analysis: variation stats, tables, figures, ASCII plots, claims."""

import textwrap

import pytest

from repro.analysis import (
    PAPER_CLAIMS,
    bar_chart,
    chip_to_chip_summary,
    check_claims,
    core_to_core_spread,
    figure3_vmin_series,
    figure4_region_grid,
    figure5_severity_map,
    figure7_prediction_series,
    figure9_series,
    heatmap,
    scatter,
    table1_prior_work,
    table2_parameters,
    table3_effects,
    table4_weights,
    workload_ordering_consistency,
)
from repro.analysis import lint_source
from repro.analysis.figures import figure4_chip_averages
from repro.analysis.lint import all_rules, get_rule, lint_paths
from repro.analysis.report import render_claims
from repro.analysis.tables import render_table
from repro.core.regions import Region
from repro.errors import ConfigurationError
from repro.workloads import figure_benchmarks


class TestVariation:
    def test_core_spread_matches_paper(self):
        summary = core_to_core_spread("TTT", figure_benchmarks())
        assert summary.most_robust_core in (4, 5)
        assert summary.most_sensitive_core in (0, 1)
        assert summary.max_core_spread_fraction == pytest.approx(0.036, abs=0.001)

    def test_pmd2_smallest_mean_offset_on_all_chips(self):
        for chip, summary in chip_to_chip_summary(figure_benchmarks()).items():
            assert min(summary.pmd_mean_offset_mv) == \
                summary.pmd_mean_offset_mv[2], chip

    def test_chip_mean_ordering(self):
        summaries = chip_to_chip_summary(figure_benchmarks())
        assert summaries["TFF"].mean_vmin_mv < summaries["TTT"].mean_vmin_mv
        assert summaries["TSS"].mean_vmin_mv > summaries["TTT"].mean_vmin_mv

    def test_workload_ordering_fully_consistent(self):
        # "the workload-to-workload variation remains the same across
        # the 3 chips"
        assert workload_ordering_consistency(figure_benchmarks()) == 1.0

    def test_too_few_benchmarks_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_ordering_consistency(figure_benchmarks()[:1])


class TestTables:
    def test_table1_lists_this_work(self):
        headers, rows = table1_prior_work()
        assert headers[0] == "ISA"
        assert any("This work" in row for row in [r[-1] for r in rows])
        assert any("X-Gene 2" in r[1] for r in rows)

    def test_table2_matches_live_configuration(self):
        _headers, rows = table2_parameters()
        table = dict(rows)
        assert table["CPU"] == "8 cores"
        assert table["Core clock"] == "2.4 GHz"
        assert "32KB" in table["L1 Instr. cache"]
        assert "Parity" in table["L1 Data cache"]
        assert "256KB" in table["L2 cache"]
        assert "8MB" in table["L3 cache"]

    def test_table3_six_effects(self):
        _headers, rows = table3_effects()
        # reprolint: disable=RPR005 -- pins the rendered Table-3 row order
        assert [row[0] for row in rows] == ["NO", "SDC", "CE", "UE", "AC", "SC"]

    def test_table4_weights(self):
        _headers, rows = table4_weights()
        assert dict(rows) == {"W_SC": "16", "W_AC": "8", "W_SDC": "4",
                              "W_UE": "2", "W_CE": "1", "W_NO": "0"}

    def test_render_table_alignment(self):
        text = render_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1


class TestFigures:
    def test_figure3_from_anchors(self):
        series = figure3_vmin_series()
        assert set(series) == {"TTT", "TFF", "TSS"}
        assert series["TTT"]["leslie3d"] == 880
        assert series["TSS"]["zeusmp"] == 900

    def test_figure3_measured_overrides(self, bwaves_characterization):
        series = figure3_vmin_series(
            measured={("TTT", "bwaves"): bwaves_characterization})
        # Core 0's measurement replaces the robust-core anchor.
        assert series["TTT"]["bwaves"] == \
            bwaves_characterization.highest_vmin_mv

    def test_figure4_grid_shape(self):
        columns = figure4_region_grid()
        assert len(columns) == 3 * 10 * 8
        column = columns[0]
        assert column.regions[930] is Region.SAFE
        assert column.regions[850] is Region.CRASH

    def test_figure4_chip_averages(self):
        columns = figure4_region_grid()
        averages = figure4_chip_averages(columns)
        assert averages["TFF"][0] < averages["TTT"][0] < averages["TSS"][0]
        for chip in averages:
            mean_vmin, mean_crash = averages[chip]
            assert mean_crash < mean_vmin

    def test_figure5_matrix(self, bwaves_characterization):
        matrix = figure5_severity_map({0: bwaves_characterization})
        voltages = sorted(matrix, reverse=True)
        assert voltages  # non-empty
        values = [matrix[v][0] for v in voltages if matrix[v][0] is not None]
        assert max(values) > 15.0
        assert all(0.0 <= value <= 16.0 for value in values)

    def test_figure7_series_sorted(self):
        from repro.prediction import PredictionReport
        report = PredictionReport(
            target="severity", chip="TTT", core=0,
            selected_features=("VOLTAGE_MV",), r2=0.9,
            rmse_model=2.8, rmse_naive=6.4, n_train=80, n_test=3,
            test_points=(("a@900", 4.0, 3.5), ("b@890", 1.0, 1.2),
                         ("c@880", 9.0, 8.1)),
        )
        series = figure7_prediction_series(report)
        assert [truth for _tag, truth, _pred in series] == [1.0, 4.0, 9.0]

    def test_figure9_series(self):
        points = figure9_series()
        assert [p.chip_voltage_mv for p in points] == \
            [980, 915, 900, 885, 875, 760]


class TestAsciiPlots:
    def test_bar_chart(self):
        text = bar_chart({"TTT": 885, "TFF": 885, "TSS": 900}, unit="mV")
        assert "TSS" in text and "900" in text
        assert text.count("|") == 6

    def test_heatmap(self):
        text = heatmap({905: {0: 4.0, 4: 0.0}, 900: {0: 16.0, 4: 2.0}})
        assert "core0" in text and "core4" in text
        assert "16.0" in text
        assert "." in text  # zero cell placeholder

    def test_scatter(self):
        points = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.6)]
        text = scatter(points, width=20, height=5)
        assert text.count("o") >= 2

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart({})
        with pytest.raises(ConfigurationError):
            heatmap({})
        with pytest.raises(ConfigurationError):
            scatter([])


class TestClaims:
    def test_all_model_claims_pass(self):
        checks = check_claims()
        failing = [c.claim_id for c in checks if not c.passed]
        assert not failing, failing

    def test_claim_inventory_covers_headlines(self):
        assert "abstract.energy_saving_no_perf_loss" in PAPER_CLAIMS
        assert "fig9.step4_power_pct_figure_variant" in PAPER_CLAIMS
        assert len(PAPER_CLAIMS) >= 12

    def test_subset_selection(self):
        checks = check_claims(only=["s5.chip_wide_saving"])
        assert len(checks) == 1

    def test_render(self):
        text = render_claims(check_claims(only=["s5.chip_wide_saving"]))
        assert "OK" in text and "12.8" in text


# ---------------------------------------------------------------------------
# reprolint -- the RPR001-RPR013 invariant checker
# ---------------------------------------------------------------------------

SIM = "src/repro/core/fixture.py"


def lint_rules(source, path=SIM):
    """Rule ids reprolint reports for a dedented source fixture."""
    return [d.rule for d in lint_source(textwrap.dedent(source), path=path)]


class TestRPR001UnseededRandomness:
    def test_global_numpy_rng_flagged(self):
        assert lint_rules("""
            import numpy as np

            def draw():
                return np.random.normal(0.0, 1.0)
        """) == ["RPR001"]

    def test_unseeded_default_rng_flagged(self):
        assert lint_rules("""
            from numpy.random import default_rng

            rng = default_rng()
        """) == ["RPR001"]

    def test_seeded_generator_clean(self):
        assert lint_rules("""
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).normal(0.0, 1.0)
        """) == []

    def test_outside_repro_out_of_scope(self):
        assert lint_rules("""
            import random

            roll = random.random()
        """, path="tools/fixture.py") == []


class TestRPR002WallClockSource:
    def test_wall_clock_in_simulation_path_flagged(self):
        assert lint_rules("""
            import time

            def stamp():
                return time.time()
        """) == ["RPR002"]

    def test_entropy_source_flagged(self):
        assert lint_rules("""
            import uuid

            def run_id():
                return uuid.uuid4()
        """, path="src/repro/parallel/fixture.py") == ["RPR002"]

    def test_non_simulation_package_clean(self):
        assert lint_rules("""
            import time

            def stamp():
                return time.monotonic()
        """, path="src/repro/analysis/fixture.py") == []


class TestRPR003MachineProtocolBoundary:
    def test_concrete_import_outside_boundary_flagged(self):
        rules = lint_rules("""
            from repro.hardware.xgene2 import XGene2Machine
        """, path="src/repro/energy/fixture.py")
        assert "RPR003" in rules

    def test_name_binding_via_package_root_flagged(self):
        rules = lint_rules("""
            from repro.hardware import XGene2Machine

            machine = XGene2Machine("TTT")
        """, path="tests/fixture.py")
        assert rules == ["RPR003"]  # one finding per crossing: the import

    def test_machines_package_is_inside_boundary(self):
        assert lint_rules("""
            from repro.hardware.xgene2 import XGene2Machine
        """, path="src/repro/machines/fixture.py") == []

    def test_spec_layer_consumer_clean(self):
        assert lint_rules("""
            from repro.machines import MachineSpec, build_machine

            machine = build_machine(MachineSpec(chip="TTT", seed=1))
        """, path="examples/fixture.py") == []


class TestRPR004UnitSafety:
    def test_volt_scale_literal_in_mv_slot_flagged(self):
        assert lint_rules("vmin_mv = 0.98\n") == ["RPR004"]

    def test_manual_magnitude_conversion_flagged(self):
        assert lint_rules("""
            def to_volts(vmin_mv):
                return vmin_mv / 1000
        """) == ["RPR004"]

    def test_hardcoded_regulator_step_flagged(self):
        assert lint_rules("""
            def step_down(level_mv):
                return level_mv - 5
        """) == ["RPR004"]

    def test_mixed_unit_arithmetic_flagged(self):
        assert lint_rules("""
            def worst(limit_v, vmin_mv):
                return limit_v - vmin_mv
        """) == ["RPR004"]

    def test_integer_mv_and_named_step_clean(self):
        assert lint_rules("""
            from repro.units import VOLTAGE_STEP_MV

            vmin_mv = 980

            def step_down(level_mv):
                return level_mv - VOLTAGE_STEP_MV
        """) == []

    def test_mv_width_floats_are_ordinary(self):
        # widths/scales (no voltage-level stem) may be sub-volt floats
        assert lint_rules("scale_mv = 1.0\n") == []


class TestRPR005CanonicalEffectConstants:
    def test_weight_table_rehardcode_flagged(self):
        assert lint_rules("""
            WEIGHTS = {"SC": 16.0, "AC": 8.0, "SDC": 4.0,
                       "UE": 2.0, "CE": 1.0, "NO": 0.0}
        """) == ["RPR005"]

    def test_single_weight_constant_flagged(self):
        assert lint_rules("W_SDC = 4.0\n") == ["RPR005"]

    def test_vocabulary_rehardcode_flagged(self):
        assert lint_rules(
            'ORDER = ["NO", "SDC", "CE", "UE", "AC", "SC"]\n'
        ) == ["RPR005"]

    def test_run_count_tallies_clean(self):
        # effect -> observed-count dicts are not the weight table
        assert lint_rules('counts = {"SC": 2, "CE": 1, "SDC": 5}\n') == []

    def test_canonical_import_clean(self):
        assert lint_rules("""
            from repro.effects import SEVERITY_WEIGHTS, EffectType

            w = SEVERITY_WEIGHTS[EffectType.SC]
        """) == []


class TestRPR006ParallelSafety:
    def test_lambda_into_engine_flagged(self):
        assert lint_rules("""
            def run(engine, specs):
                return engine.submit(lambda: specs)
        """) == ["RPR006"]

    def test_closure_into_engine_flagged(self):
        assert lint_rules("""
            from repro.parallel import characterize_many

            def run(specs):
                def task(machine):
                    return machine

                return characterize_many(specs, task)
        """) == ["RPR006"]

    def test_global_mutation_in_repro_task_flagged(self):
        assert lint_rules("""
            COUNTER = 0

            def bump():
                global COUNTER
                COUNTER += 1
        """) == ["RPR006"]

    def test_module_level_task_clean(self):
        assert lint_rules("""
            from repro.parallel import characterize_many

            def task(machine):
                return machine

            def run(specs):
                return characterize_many(specs, task)
        """) == []

    def test_lambda_to_ordinary_call_clean(self):
        assert lint_rules("""
            def order(xs):
                return sorted(xs, key=lambda x: -x)
        """) == []


class TestRPR007SinglePersistencePath:
    def test_json_dump_of_run_records_flagged(self):
        assert lint_rules("""
            import json

            def save(records, handle):
                payload = [RunRecord.to_json_dict(r) for r in records]
                json.dump(payload, handle)
        """) == ["RPR007"]

    def test_csv_writer_of_run_rows_flagged(self):
        assert lint_rules("""
            import csv

            def dump(result, handle):
                writer = csv.writer(handle)
                for record in result.all_records():
                    writer.writerow(record.csv_row())
        """, path="src/repro/analysis/fixture.py") == ["RPR007"]

    def test_serializer_without_run_data_clean(self):
        assert lint_rules("""
            import csv

            def write(filename, header, rows):
                with open(filename, "w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(header)
                    writer.writerows(rows)
        """) == []

    def test_store_package_is_the_sanctioned_home(self):
        assert lint_rules("""
            import json

            def append(handle, campaign):
                handle.write(json.dumps(StoredCampaign.to_json_dict(campaign)))
        """, path="src/repro/store/fixture.py") == []

    def test_fleet_manifest_writer_outside_store_flagged(self):
        assert lint_rules("""
            import json

            def snapshot(fleet, handle):
                payload = FleetManifest.to_json_dict(fleet.manifest)
                json.dump(payload, handle)
        """) == ["RPR007"]

    def test_index_serialization_outside_store_flagged(self):
        assert lint_rules("""
            import json

            def answer(index):
                return json.dumps(VminIndex.to_json_dict(index))
        """, path="src/repro/analysis/fixture.py") == ["RPR007"]

    def test_watermark_rewrite_outside_store_flagged(self):
        assert lint_rules("""
            import json

            def rewrite(fleet, handle):
                manifest = fleet.refresh_watermarks()
                json.dump(manifest, handle)
        """) == ["RPR007"]

    def test_fleet_and_index_writers_sanctioned_in_store(self):
        assert lint_rules("""
            import json

            def write_manifest(manifest, handle):
                json.dump(FleetManifest.to_json_dict(manifest), handle)

            def serialize_index(index):
                return json.dumps(StoreIndexes.to_json_dict(index))
        """, path="src/repro/store/fixture.py") == []

    def test_index_reader_without_serializer_clean(self):
        assert lint_rules("""
            def answers(index):
                return [VminIndex.vmin_mv(index, b, c)
                        for b, c in VminIndex.cells(index)]
        """) == []

    def test_results_module_is_the_sanctioned_home(self):
        assert lint_rules("""
            import csv

            def write_runs(handle, records):
                writer = csv.writer(handle)
                for record in records:
                    writer.writerow(RunRecord.csv_row(record))
        """, path="src/repro/core/results.py") == []

    def test_run_data_without_serializer_clean(self):
        assert lint_rules("""
            def tally(result):
                return len(result.all_records())
        """) == []

    def test_outside_repro_out_of_scope(self):
        assert lint_rules("""
            import json

            def save(records, handle):
                json.dump([RunRecord.to_json_dict(r) for r in records], handle)
        """, path="tools/fixture.py") == []

    def test_hand_rolled_atomic_write_outside_store_flagged(self):
        assert lint_rules("""
            import os

            def save(path, text):
                temp = path + ".tmp"
                with open(temp, "w") as handle:
                    handle.write(text)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, path)
        """, path="src/repro/analysis/fixture.py") == ["RPR007", "RPR007"]

    def test_imported_rename_flagged_even_in_results(self):
        assert lint_rules("""
            from os import rename

            def publish(temp, path):
                rename(temp, path)
        """, path="src/repro/core/results.py") == ["RPR007"]

    def test_durable_calls_sanctioned_in_store(self):
        assert lint_rules("""
            import os

            def publish(fd, temp, path):
                os.fsync(fd)
                os.replace(temp, path)
        """, path="src/repro/store/durable.py") == []

    def test_durable_calls_outside_repro_out_of_scope(self):
        assert lint_rules("""
            import os

            def publish(temp, path):
                os.replace(temp, path)
        """, path="tools/fixture.py") == []

    def test_other_os_calls_clean(self):
        assert lint_rules("""
            import os

            def tidy(path):
                os.makedirs(path, exist_ok=True)
                os.unlink(path)
        """, path="src/repro/analysis/fixture.py") == []


class TestSuppressions:
    def test_trailing_justified_suppression_applies(self):
        src = "vmin_mv = 0.98  # reprolint: disable=RPR004 -- fixture\n"
        assert lint_rules(src) == []

    def test_standalone_comment_shields_next_line(self):
        assert lint_rules("""
            # reprolint: disable=RPR004 -- fixture
            vmin_mv = 0.98
        """) == []

    def test_unjustified_suppression_is_reported_not_applied(self):
        src = "vmin_mv = 0.98  # reprolint: disable=RPR004\n"
        rules = lint_rules(src)
        assert "RPR000" in rules and "RPR004" in rules

    def test_meta_rule_cannot_be_suppressed(self):
        src = "x = 1  # reprolint: disable=RPR000 -- nice try\n"
        assert lint_rules(src) == ["RPR000"]

    def test_unknown_rule_id_is_malformed(self):
        src = "x = 1  # reprolint: disable=BOGUS -- reason\n"
        assert lint_rules(src) == ["RPR000"]

    def test_suppressing_the_wrong_rule_hides_nothing(self):
        src = "vmin_mv = 0.98  # reprolint: disable=RPR001 -- wrong rule\n"
        assert lint_rules(src) == ["RPR004"]

    def test_syntax_error_is_a_meta_finding(self):
        assert lint_rules("def broken(:\n") == ["RPR000"]


class TestRPR008BarePrint:
    def test_print_in_library_module_flagged(self):
        assert lint_rules("""
            def report(result):
                print("vmin:", result)
        """) == ["RPR008"]

    def test_cli_module_allowed(self):
        assert lint_rules("""
            def main():
                print("hello")
        """, path="src/repro/cli.py") == []

    def test_lint_cli_module_allowed(self):
        assert lint_rules("""
            def render():
                print("findings")
        """, path="src/repro/analysis/lint/cli.py") == []

    def test_ascii_plots_allowed(self):
        assert lint_rules("""
            def draw():
                print("#" * 10)
        """, path="src/repro/analysis/ascii_plots.py") == []

    def test_console_progress_allowed(self):
        assert lint_rules("""
            def render():
                print("tasks: 1/2")
        """, path="src/repro/parallel/progress.py") == []

    def test_outside_repro_out_of_scope(self):
        assert lint_rules("""
            print("scripts may print")
        """, path="tools/fixture.py") == []

    def test_shadowed_print_method_not_flagged(self):
        assert lint_rules("""
            def render(doc):
                doc.print()
        """) == []


class TestRPR009CurveEvalInRunLoop:
    def test_curve_eval_in_run_loop_flagged(self):
        assert lint_rules("""
            def execute_runs(sampler, schedule, rng):
                for voltage_mv in schedule:
                    p = sampler.probability(voltage_mv)
                    if rng.random() < p:
                        yield voltage_mv
        """) == ["RPR009"]

    def test_table_method_in_while_loop_flagged(self):
        assert lint_rules("""
            def drain(stack, rng, levels):
                while levels:
                    rates = stack.poisson_rate_table(levels[:1])
                    levels = levels[1:]
                    rng.random()
                    yield rates
        """, path="src/repro/hardware/fixture.py") == ["RPR009"]

    def test_eval_hoisted_before_loop_clean(self):
        assert lint_rules("""
            def execute_runs(sampler, schedule, rng):
                table = sampler.probability_table(schedule)
                for i, voltage_mv in enumerate(schedule):
                    if rng.random() < table["sc"][i]:
                        yield voltage_mv
        """) == []

    def test_function_without_rng_is_setup_not_run_loop(self):
        # Per-campaign compilation legitimately loops over voltages.
        assert lint_rules("""
            def compile_table(sampler, voltages):
                return [sampler.effect_probabilities(v) for v in voltages]

            def compile_rows(stack, voltages):
                rows = []
                for v in voltages:
                    rows.append(stack.single_event_rate(v))
                return rows
        """) == []

    def test_analysis_package_out_of_scope(self):
        assert lint_rules("""
            def replot(curves, voltages, rng):
                for v in voltages:
                    yield curves.probability(v) + rng.random()
        """, path="src/repro/analysis/fixture.py") == []

    def test_unrelated_method_name_clean(self):
        assert lint_rules("""
            def execute(machine, schedule, rng):
                for voltage_mv in schedule:
                    machine.sample(voltage_mv, rng)
        """) == []


class TestRPR010SingleModelPath:
    def test_json_dump_of_model_artifact_flagged(self):
        assert lint_rules("""
            import json

            def save(artifact, handle):
                json.dump(ModelArtifact.to_json_dict(artifact), handle)
        """) == ["RPR010"]

    def test_pickle_of_fitted_estimator_flagged(self):
        assert lint_rules("""
            import pickle

            def stash(path, x, y):
                model = OrdinaryLeastSquares().fit(x, y)
                with open(path, "wb") as handle:
                    pickle.dump(model, handle)
        """, path="src/repro/prediction/fixture.py") == ["RPR010"]

    def test_json_dumps_of_coefficients_flagged(self):
        assert lint_rules("""
            import json

            def export(model):
                return json.dumps(model.coefficients_by_name())
        """, path="src/repro/analysis/fixture.py") == ["RPR010"]

    def test_models_module_is_the_sanctioned_home(self):
        assert lint_rules("""
            import json

            def serialize(artifact):
                return json.dumps(ModelArtifact.to_json_dict(artifact))
        """, path="src/repro/store/models.py") == []

    def test_serializer_without_model_state_clean(self):
        assert lint_rules("""
            import json

            def snapshot(metrics, handle):
                json.dump(metrics.to_json_dict(), handle)
        """) == []

    def test_model_state_without_serializer_clean(self):
        assert lint_rules("""
            def widest(artifact):
                return max(artifact.selected_features, key=len)
        """) == []

    def test_outside_repro_out_of_scope(self):
        assert lint_rules("""
            import pickle

            def stash(model, handle):
                pickle.dump(OrdinaryLeastSquares(), handle)
        """, path="tools/fixture.py") == []


class TestLintRegistry:
    def test_thirteen_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ["RPR001", "RPR002", "RPR003", "RPR004",
                       "RPR005", "RPR006", "RPR007", "RPR008",
                       "RPR009", "RPR010", "RPR011", "RPR012",
                       "RPR013"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rule("RPR999")

    def test_diagnostics_carry_location_and_render(self):
        (diag,) = lint_source("vmin_mv = 0.98\n", path="src/repro/x.py")
        assert (diag.path, diag.line) == ("src/repro/x.py", 1)
        assert "RPR004" in diag.render() and "unit-safety" in diag.render()

# ---------------------------------------------------------------------------
# reprolint v2 -- whole-program dataflow, cache, SARIF
# ---------------------------------------------------------------------------


def _write_tree(root, files):
    """Materialize a {relative path: dedented source} project tree."""
    for rel, src in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src))
    return root


def _project_rules(report):
    return [d.rule for d in report.diagnostics]


class TestRPR011SeedProvenance:
    def test_direct_literal_seed_flagged(self):
        assert "RPR011" in lint_rules("""
            import numpy as np

            def make_rng():
                return np.random.default_rng(42)
        """)

    def test_literal_laundered_through_two_modules_flagged(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/seedsrc.py": """
                def raw_seed():
                    return 1234
            """,
            "src/repro/seeduse.py": """
                import numpy as np

                from repro.seedsrc import raw_seed

                def launder():
                    return raw_seed()

                def build():
                    return np.random.default_rng(launder())
            """,
        })
        report = lint_paths([str(tmp_path / "src")])
        assert _project_rules(report) == ["RPR011"]
        (diag,) = report.diagnostics
        assert diag.path.endswith("seeduse.py")
        assert "literal" in diag.message

    def test_seedsequence_chain_is_clean(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/seedsrc.py": """
                import numpy as np

                def good_seed(root):
                    return np.random.SeedSequence(root).generate_state(1)[0]
            """,
            "src/repro/seeduse.py": """
                import numpy as np

                from repro.seedsrc import good_seed

                def build(root):
                    return np.random.default_rng(good_seed(root))
            """,
        })
        assert lint_paths([str(tmp_path / "src")]).diagnostics == []

    def test_sha256_keyed_seed_is_clean(self):
        assert lint_rules("""
            import hashlib

            import numpy as np

            def build(key):
                digest = hashlib.sha256(key.encode()).digest()
                return np.random.default_rng(
                    int.from_bytes(digest[:8], "little"))
        """) == []

    def test_wallclock_seed_flagged(self):
        findings = lint_rules("""
            import time

            import numpy as np

            def sloppy():
                return np.random.default_rng(int(time.time_ns()))
        """)
        assert "RPR011" in findings

    def test_unknown_provenance_not_flagged(self):
        assert lint_rules("""
            import numpy as np

            def build(seed_from_caller):
                return np.random.default_rng(seed_from_caller)
        """) == []


class TestRPR012CrossModuleUnitFlow:
    def test_volt_named_value_into_mv_param_flagged(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/sink.py": """
                def set_level(voltage_mv):
                    return voltage_mv
            """,
            "src/repro/source.py": """
                from repro.sink import set_level

                def run(supply_v):
                    return set_level(supply_v)
            """,
        })
        report = lint_paths([str(tmp_path / "src")])
        assert _project_rules(report) == ["RPR012"]
        (diag,) = report.diagnostics
        assert diag.path.endswith("source.py")
        assert "voltage_mv" in diag.message

    def test_volt_literal_into_level_named_mv_param_flagged(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/sink.py": """
                def set_level(voltage_mv):
                    return voltage_mv
            """,
            "src/repro/source.py": """
                from repro.sink import set_level

                def run():
                    return set_level(0.98)
            """,
        })
        assert _project_rules(
            lint_paths([str(tmp_path / "src")])
        ) == ["RPR012"]

    def test_integer_mv_value_is_clean(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/sink.py": """
                def set_level(voltage_mv):
                    return voltage_mv
            """,
            "src/repro/source.py": """
                from repro.sink import set_level

                def run(level_mv):
                    return set_level(level_mv)
            """,
        })
        assert lint_paths([str(tmp_path / "src")]).diagnostics == []

    def test_volt_literal_into_scale_param_is_clean(self, tmp_path):
        # Widths/scales are legitimately sub-volt: only *level*-named
        # mV parameters reject volt-scale literals (RPR004's refinement).
        _write_tree(tmp_path, {
            "src/repro/sink.py": """
                def curve(scale_mv):
                    return scale_mv
            """,
            "src/repro/source.py": """
                from repro.sink import curve

                def run():
                    return curve(1.0)
            """,
        })
        assert lint_paths([str(tmp_path / "src")]).diagnostics == []


class TestRPR013ParallelSharedState:
    WORKER_WRITE = {
        "src/repro/parallel/mytasks.py": """
            _CACHE = {}

            def _helper(key, value):
                _CACHE[key] = value

            def run_thing(key):
                _helper(key, 1)
                return key
        """,
    }

    def test_module_dict_write_via_helper_from_entry_flagged(self, tmp_path):
        _write_tree(tmp_path, self.WORKER_WRITE)
        report = lint_paths([str(tmp_path / "src")])
        assert _project_rules(report) == ["RPR013"]
        (diag,) = report.diagnostics
        assert "_CACHE" in diag.message
        assert "run_thing -> _helper" in diag.message

    def test_same_write_without_entry_point_is_clean(self, tmp_path):
        source = self.WORKER_WRITE[
            "src/repro/parallel/mytasks.py"
        ].replace("run_thing", "build_thing")
        _write_tree(
            tmp_path, {"src/repro/parallel/mytasks.py": source}
        )
        assert lint_paths([str(tmp_path / "src")]).diagnostics == []

    def test_submitted_function_is_an_entry_point(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/parallel/mytasks.py": """
                _SEEN = set()

                def record(task):
                    _SEEN.add(task)

                def dispatch(executor, tasks):
                    return [executor.submit(record, t) for t in tasks]
            """,
        })
        report = lint_paths([str(tmp_path / "src")])
        assert _project_rules(report) == ["RPR013"]
        assert "_SEEN" in report.diagnostics[0].message

    def test_contextvar_global_is_exempt(self):
        assert lint_rules("""
            from contextvars import ContextVar

            _SESSION = ContextVar("session")

            def _helper(value):
                _SESSION.set(value)

            def run_thing(value):
                _helper(value)
        """, path="src/repro/parallel/fixture.py") == []

    def test_local_shadow_is_clean(self):
        assert lint_rules("""
            _CACHE = {}

            def run_thing(key):
                _CACHE = {}
                _CACHE[key] = 1
                return _CACHE
        """, path="src/repro/parallel/fixture.py") == []


class TestIncrementalCache:
    CHAIN = {
        "src/repro/base.py": """
            def width():
                return 5
        """,
        "src/repro/mid.py": """
            from repro.base import width

            def mid_width():
                return width()
        """,
        "src/repro/top.py": """
            from repro.mid import mid_width

            def top_width():
                return mid_width()
        """,
        "src/repro/leaf.py": """
            def unrelated():
                return 1
        """,
    }

    def test_warm_run_analyzes_zero_files(self, tmp_path):
        _write_tree(tmp_path, self.CHAIN)
        cache = str(tmp_path / "cache.json")
        cold = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert cold.files_analyzed == 4 and cold.files_cached == 0
        warm = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert warm.files_analyzed == 0 and warm.files_cached == 4

    def test_edit_reanalyzes_reverse_dependency_cone_only(self, tmp_path):
        _write_tree(tmp_path, self.CHAIN)
        cache = str(tmp_path / "cache.json")
        lint_paths([str(tmp_path / "src")], cache_path=cache)
        base = tmp_path / "src/repro/base.py"
        base.write_text(base.read_text() + "\n# touched\n")
        # base changed; mid imports base, top imports mid -> all three
        # re-analyze; leaf is untouched by the cone.
        cone_run = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert cone_run.files_analyzed == 3
        assert cone_run.files_cached == 1
        leaf = tmp_path / "src/repro/leaf.py"
        leaf.write_text(leaf.read_text() + "\n# touched\n")
        leaf_run = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert leaf_run.files_analyzed == 1
        assert leaf_run.files_cached == 3

    def test_cached_findings_match_fresh_ones(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/dirty.py": """
                import numpy as np

                vmin_mv = 0.98

                def make_rng():
                    return np.random.default_rng(7)
            """,
        })
        cache = str(tmp_path / "cache.json")
        cold = lint_paths([str(tmp_path / "src")], cache_path=cache)
        warm = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert cold.diagnostics == warm.diagnostics
        assert warm.files_analyzed == 0
        assert {d.rule for d in warm.diagnostics} >= {"RPR004", "RPR011"}

    def test_select_bypasses_the_cache(self, tmp_path):
        _write_tree(tmp_path, self.CHAIN)
        cache = str(tmp_path / "cache.json")
        lint_paths([str(tmp_path / "src")], cache_path=cache)
        narrowed = lint_paths(
            [str(tmp_path / "src")], select=["RPR004"], cache_path=cache,
        )
        assert narrowed.files_cached == 0

    def test_cache_matches_across_path_spellings(self, tmp_path, monkeypatch):
        # A cache written under one spelling of a path (absolute) must
        # serve a run that spells it differently (relative), and the
        # suppression of an interprocedural finding must still register
        # as earned -- not stale -- on the cached run.
        _write_tree(tmp_path, {
            "src/repro/seedy.py": """
                import numpy as np

                def make():
                    # reprolint: disable=RPR011 -- fixture default
                    return np.random.default_rng(7)
            """,
        })
        cache = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)
        cold = lint_paths([str(tmp_path / "src")], cache_path=cache)
        assert cold.diagnostics == []
        warm = lint_paths(["src"], cache_path=cache)
        assert warm.files_analyzed == 0 and warm.files_cached == 1
        assert warm.diagnostics == []

    def test_torn_cache_degrades_to_full_analysis(self, tmp_path):
        _write_tree(tmp_path, self.CHAIN)
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path / "src")], cache_path=str(cache))
        cache.write_text("{ not json")
        rebuilt = lint_paths([str(tmp_path / "src")], cache_path=str(cache))
        assert rebuilt.files_analyzed == 4


class TestStaleSuppressions:
    def test_stale_suppression_reported_on_full_runs(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/probe.py": (
                "x = 1  # reprolint: disable=RPR004 -- shields nothing\n"
            ),
        })
        report = lint_paths([str(tmp_path / "src")])
        (diag,) = report.diagnostics
        assert diag.rule == "RPR000" and diag.name == "stale-suppression"
        assert "RPR004" in diag.message

    def test_no_stale_check_escape_hatch(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/probe.py": (
                "x = 1  # reprolint: disable=RPR004 -- shields nothing\n"
            ),
        })
        report = lint_paths([str(tmp_path / "src")], stale_check=False)
        assert report.diagnostics == []

    def test_earning_suppression_is_not_stale(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/probe.py": (
                "vmin_mv = 0.98  # reprolint: disable=RPR004 -- fixture\n"
            ),
        })
        assert lint_paths([str(tmp_path / "src")]).diagnostics == []

    def test_partially_stale_rule_list_reports_the_dead_id(self, tmp_path):
        _write_tree(tmp_path, {
            "src/repro/probe.py": (
                "vmin_mv = 0.98"
                "  # reprolint: disable=RPR004,RPR001 -- fixture\n"
            ),
        })
        report = lint_paths([str(tmp_path / "src")])
        (diag,) = report.diagnostics
        assert diag.name == "stale-suppression" and "RPR001" in diag.message

    def test_lint_source_stale_check_opt_in(self):
        src = "x = 1  # reprolint: disable=RPR004 -- shields nothing\n"
        assert lint_source(src, path=SIM) == []
        findings = lint_source(src, path=SIM, stale_check=True)
        assert [d.name for d in findings] == ["stale-suppression"]


class TestSuppressionEdgeCases:
    def test_multiple_rule_ids_in_one_clause(self):
        src = (
            "import numpy as np\n"
            "vmin_mv = 0.98; rng = np.random.default_rng()"
            "  # reprolint: disable=RPR001,RPR004,RPR011 -- fixture\n"
        )
        assert lint_source(src, path=SIM) == []

    def test_suppression_on_a_continuation_line(self):
        src = (
            "vmin_mv = \\\n"
            "    0.98  # reprolint: disable=RPR004 -- fixture\n"
        )
        assert lint_source(src, path=SIM) == []

    def test_continuation_line_without_suppression_still_flags(self):
        src = "vmin_mv = \\\n    0.98\n"
        (diag,) = lint_source(src, path=SIM)
        assert diag.rule == "RPR004" and diag.line == 2

    def test_empty_justification_after_dashes_is_unjustified(self):
        for tail in ("--", "-- "):
            src = f"vmin_mv = 0.98  # reprolint: disable=RPR004 {tail}\n"
            findings = lint_source(src, path=SIM)
            assert sorted(d.name for d in findings) == [
                "unit-safety", "unjustified-suppression",
            ]


class TestSarifOutput:
    #: The load-bearing core of the SARIF 2.1.0 schema: the required
    #: properties GitHub code scanning relies on, condensed from the
    #: OASIS schema (fetching the full one needs the network).
    SCHEMA = {
        "type": "object",
        "required": ["version", "runs"],
        "properties": {
            "version": {"const": "2.1.0"},
            "runs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["tool"],
                    "properties": {
                        "tool": {
                            "type": "object",
                            "required": ["driver"],
                            "properties": {
                                "driver": {
                                    "type": "object",
                                    "required": ["name"],
                                },
                            },
                        },
                        "results": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["message"],
                                "properties": {
                                    "ruleId": {"type": "string"},
                                    "message": {
                                        "type": "object",
                                        "required": ["text"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    }

    def _document(self, tmp_path):
        from repro.analysis.lint import render_sarif

        _write_tree(tmp_path, {
            "src/repro/dirty.py": "vmin_mv = 0.98\n",
        })
        report = lint_paths([str(tmp_path / "src")])
        return render_sarif(report.diagnostics)

    def test_document_validates_against_schema_core(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self._document(tmp_path), self.SCHEMA)

    def test_results_carry_rules_and_regions(self, tmp_path):
        doc = self._document(tmp_path)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"RPR000", "RPR004", "RPR011", "RPR013"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "RPR004"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("dirty.py")
        assert location["region"]["startLine"] == 1
