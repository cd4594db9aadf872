"""Property-based tests for the extension models and the generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.dynamics import (
    AdaptiveClockingUnit,
    AgingModel,
    SupplyDroopModel,
    TemperatureSensitivity,
)
from repro.hardware.variation import ChipGenerator
from repro.workloads.benchmark import (
    WorkloadTraits,
    solve_traits_for_stress,
    stress_from_traits,
)
from repro.workloads.generator import SyntheticWorkloadGenerator


class TestDroopProperties:
    @given(st.floats(min_value=0.3, max_value=2.4),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=60)
    def test_droop_bounded_by_max(self, ipc, fp_ratio):
        droop = SupplyDroopModel(max_droop_mv=20.0)
        traits = solve_traits_for_stress(
            WorkloadTraits(ipc=ipc, fp_ratio=fp_ratio), 0.4)
        for freq in (300, 1200, 1800, 2400):
            value = droop.droop_mv(traits, freq)
            # Resonance gain can push past max_droop at its peak, but
            # never past max * gain.
            assert 0.0 <= value <= 20.0 * droop.resonance_gain

    @given(st.floats(min_value=0.3, max_value=2.4))
    @settings(max_examples=60)
    def test_droop_monotone_in_fp_intensity(self, ipc):
        droop = SupplyDroopModel()
        low = solve_traits_for_stress(WorkloadTraits(ipc=ipc, fp_ratio=0.0), 0.4)
        high = solve_traits_for_stress(WorkloadTraits(ipc=ipc, fp_ratio=0.5), 0.4)
        assert droop.droop_mv(high) >= droop.droop_mv(low)


class TestAdaptiveClockProperties:
    @given(st.floats(min_value=700, max_value=980),
           st.floats(min_value=700, max_value=980))
    @settings(max_examples=100)
    def test_duty_in_unit_interval(self, voltage, onset):
        unit = AdaptiveClockingUnit()
        duty = unit.deployment_duty(voltage, onset)
        assert 0.0 <= duty <= 1.0
        factor = unit.runtime_factor(voltage, onset)
        assert 1.0 <= factor <= 1.0 + unit.stretch_penalty


class TestAgingProperties:
    @given(st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=100)
    def test_shift_monotone_in_time(self, a, b):
        aging = AgingModel()
        early, late = sorted((a, b))
        assert aging.shift_mv(early) <= aging.shift_mv(late)

    @given(st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=60)
    def test_exhaustion_inverse_of_shift(self, guardband):
        aging = AgingModel()
        hours = aging.hours_until_exhausted(guardband)
        assert aging.shift_mv(hours) <= guardband * 1.0001


class TestTemperatureProperties:
    @given(st.floats(min_value=-20, max_value=120),
           st.floats(min_value=-20, max_value=120))
    @settings(max_examples=100)
    def test_shift_monotone_and_floored(self, a, b):
        sens = TemperatureSensitivity()
        cool, hot = sorted((a, b))
        assert 0.0 <= sens.shift_mv(cool) <= sens.shift_mv(hot)


class TestVariationProperties:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40)
    def test_generated_chips_structurally_valid(self, serial):
        # ChipCalibration's own __post_init__ enforces the PMD-2
        # invariant; constructing without raising is the property.
        calibration = ChipGenerator("TFF", lot_seed=3).calibration(serial)
        assert calibration.base_vmin_2400_mv % 5 == 0
        assert min(calibration.core_offsets_mv) == 0
        assert max(calibration.core_offsets_mv) <= 60

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=30)
    def test_generation_deterministic(self, serial):
        first = ChipGenerator("TSS", lot_seed=9).calibration(serial)
        second = ChipGenerator("TSS", lot_seed=9).calibration(serial)
        assert first == second


class TestGeneratorProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_any_seed_yields_valid_workloads(self, seed):
        bench = SyntheticWorkloadGenerator(seed=seed).draw()
        assert 0.0 <= bench.stress <= 1.0
        assert 0.0 <= bench.smoothness <= 1.0
        assert bench.traits.instructions > 0

    @pytest.mark.parametrize("seed", [3130, 15147, 19411, 19959])
    def test_rounding_edge_seeds_draw(self, seed):
        """Every seed in 0..19999 that used to raise "stress ...
        unreachable from template": its fixed-rate target sat at an end
        of its range, and rounding the template's rates left a residual
        the stall and exception terms missed by a rounding error."""
        bench = SyntheticWorkloadGenerator(seed=seed).draw()
        # draw() spends its first uniform on the target stress.
        target = float(np.random.default_rng(seed).uniform(0.0, 1.0))
        assert bench.stress == pytest.approx(target, abs=1e-4)
        assert stress_from_traits(bench.traits) == pytest.approx(
            bench.stress, abs=1e-6)
