"""The vectorized batch kernel: bit-identity, RNG replay, fallback.

The kernel's contract (``repro.core.kernel``) is that a campaign run
through the compiled :class:`VoltageTable` produces **bit-identical**
observables to the scalar outcome source (``machine.run_program``,
selected through :func:`conftest.scalar_path`): the same
:class:`RunRecord` stream, the same raw log bytes, the same machine
state trajectory.  These tests pin that contract at every layer -- the
vectorized ``default_rng`` replay, the per-run sampling, whole
campaigns (property-swept over seeds, chips and schedules), the
per-extension fallback matrix of
:meth:`XGene2Machine.compile_batch_table` and the framework's kernel
cache.
"""

import contextlib
import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.kernel import RunGeneratorFactory, VoltageTable
from repro.core.parser import parse_records
from repro.faults.injection import FaultInjector, Injection
from repro.faults.models import FunctionalUnit
# reprolint: disable=RPR003 -- compile_batch_table is the concrete machine's hook
from repro.hardware import XGene2Machine
from repro.hardware.dynamics import (
    AdaptiveClockingUnit,
    AgingModel,
    RollbackUnit,
    SupplyDroopModel,
    TemperatureSensitivity,
)
from repro.units import VOLTAGE_STEP_MV
from repro.workloads import get_benchmark

from .conftest import scalar_path


def _scalar_reference_rng(key: bytes) -> np.random.Generator:
    """The exact generator :meth:`XGene2Machine._run_rng` builds."""
    digest = np.frombuffer(hashlib.sha256(key).digest(), dtype=np.uint64)
    return np.random.default_rng(digest)


def _assert_records_derive(framework, campaign):
    """The campaign's records are exactly what its raw log parses to --
    the derivation the campaign store relies on, ``detail`` and
    watchdog flags included."""
    key = (campaign.benchmark, campaign.core, campaign.freq_mhz,
           campaign.campaign_index)
    assert parse_records(framework.raw_logs[key]) == campaign.records


def _campaign_observables(machine, config, batch, bench="mcf", core=0):
    framework = CharacterizationFramework(machine, config)
    with contextlib.nullcontext() if batch else scalar_path(machine):
        result = framework.characterize(get_benchmark(bench), core=core)
    for campaign in result.campaigns:
        _assert_records_derive(framework, campaign)
    records = tuple(
        record.csv_row()
        for campaign in result.campaigns
        for record in campaign.records
    )
    state = (
        machine.tick,
        machine.run_counter,
        machine.state.value,
        len(machine.regulator.transactions),
        machine.regulator.transactions[-5:],
        len(machine.slimpro.i2c_log),
        machine.slimpro.i2c_log[-5:],
    )
    return framework, records, dict(framework.raw_logs), state


def _machine(chip="TTT", seed=55, **kwargs):
    machine = XGene2Machine(chip, seed=seed, **kwargs)
    machine.power_on()
    return machine


class TestRunGeneratorFactory:
    """The vectorized ``default_rng(sha256(key))`` replay."""

    def test_seed_states_match_default_rng(self):
        factory = RunGeneratorFactory()
        keys = [
            f"55|TTT|mcf|0|{920 - 5 * (i % 13)}|2400|{i}".encode()
            for i in range(150)
        ]
        states = factory.seed_states(keys)
        for key, state in zip(keys, states):
            expected = _scalar_reference_rng(key).random(7)
            got = factory.activate(state).random(7)
            assert np.array_equal(expected, got)

    def test_uniform_block_matches_generator_random(self):
        factory = RunGeneratorFactory()
        keys = [f"7|TFF|namd|3|905|2400|{i}".encode() for i in range(137)]
        block = factory.uniform_block(factory.seed_limbs(keys), 9)
        assert block.shape == (137, 9)
        for i, key in enumerate(keys):
            assert np.array_equal(_scalar_reference_rng(key).random(9), block[i])

    def test_uniform_block_prefix_property(self):
        # A wider block must agree with a narrower one on the shared
        # prefix -- what lets one over-drawn chunk width serve every
        # plan in the chunk.
        factory = RunGeneratorFactory()
        limbs = factory.seed_limbs([b"a", b"b", b"c"])
        assert np.array_equal(
            factory.uniform_block(limbs, 11)[:, :4],
            factory.uniform_block(limbs, 4),
        )

    @given(st.lists(st.binary(min_size=0, max_size=64), min_size=1,
                    max_size=8, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_keys_bit_identical(self, keys):
        factory = RunGeneratorFactory()
        states = factory.seed_states(keys)
        block = factory.uniform_block(factory.seed_limbs(keys), 5)
        for i, key in enumerate(keys):
            expected = _scalar_reference_rng(key).random(5)
            assert np.array_equal(expected, block[i])
            assert np.array_equal(
                expected, factory.activate(states[i]).random(5)
            )


class TestCampaignBitIdentity:
    """Whole campaigns: batch output == scalar output, byte for byte."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chip=st.sampled_from(["TTT", "TFF", "TSS"]),
        start_mv=st.sampled_from([920, 905, 895]),
        runs_per_level=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_records_logs_and_state_identical(
        self, seed, chip, start_mv, runs_per_level
    ):
        config = FrameworkConfig(
            start_mv=start_mv, campaigns=1, runs_per_level=runs_per_level
        )
        results = {}
        for batch in (False, True):
            machine = _machine(chip=chip, seed=seed)
            framework, records, logs, state = _campaign_observables(
                machine, config, batch
            )
            assert framework.last_campaign_path == (
                "batch" if batch else "scalar"
            )
            results[batch] = (records, logs, state)
        assert results[False] == results[True]

    def test_multi_campaign_characterization_identical(self):
        # Two campaigns back to back: the second campaign's RNG keys
        # continue from the first's run counter, which the kernel must
        # track without executing the scalar path.
        config = FrameworkConfig(start_mv=910, campaigns=2, runs_per_level=5)
        reference = _campaign_observables(_machine(), config, False)
        kernel = _campaign_observables(_machine(), config, True)
        assert reference[1:] == kernel[1:]

    def test_raw_log_formatting_parity(self):
        # A sweep through the crash region exercises all three block
        # shapes (completed, app-crash, system-crash); the parser must
        # see identical bytes from both outcome sources.
        config = FrameworkConfig(start_mv=900, campaigns=1, runs_per_level=8)
        _, _, scalar_logs, _ = _campaign_observables(_machine(), config, False)
        _, _, batch_logs, _ = _campaign_observables(_machine(), config, True)
        assert scalar_logs == batch_logs
        text = "".join(batch_logs.values())
        assert "status=system_crash" in text
        assert "status=completed" in text


class TestKernelFallbackMatrix:
    """compile_batch_table per built-in extension component."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"droop_model": SupplyDroopModel()},
            {"adaptive_clock": AdaptiveClockingUnit()},
            {"temperature_sensitivity": TemperatureSensitivity()},
            {"aging_model": AgingModel()},
            {"rollback_unit": RollbackUnit()},
            {
                "droop_model": SupplyDroopModel(max_droop_mv=22.0),
                "adaptive_clock": AdaptiveClockingUnit(recovery_mv=10.0),
                "rollback_unit": RollbackUnit(detection_coverage=0.5),
            },
        ],
        ids=["droop", "adaptive-clocking", "temperature", "aging",
             "rollback", "stacked"],
    )
    def test_builtin_extensions_stay_on_batch_path(self, kwargs):
        config = FrameworkConfig(start_mv=910, campaigns=1, runs_per_level=4)
        results = {}
        for batch in (False, True):
            machine = _machine(seed=99, **kwargs)
            framework, records, logs, state = _campaign_observables(
                machine, config, batch
            )
            results[batch] = (records, logs, state)
            if batch:
                assert framework.last_campaign_path == "batch"
        assert results[False] == results[True]

    def test_scripted_injector_falls_back_to_scalar(self):
        machine = _machine(
            seed=7,
            injector=FaultInjector(
                [Injection(unit=FunctionalUnit.L2_SRAM, bit_positions=(3,))]
            ),
        )
        config = FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=3)
        framework, records, logs, _ = _campaign_observables(
            machine, config, True
        )
        assert framework.last_campaign_path == "scalar"
        # The fallback is transparent: identical output to a machine
        # forced onto the scalar source.
        reference = _machine(
            seed=7,
            injector=FaultInjector(
                [Injection(unit=FunctionalUnit.L2_SRAM, bit_positions=(3,))]
            ),
        )
        _, ref_records, ref_logs, _ = _campaign_observables(
            reference, config, False
        )
        assert (records, logs) == (ref_records, ref_logs)

    def test_stateful_subclass_falls_back_to_scalar(self):
        # A subclass of a built-in dynamics model could legally mutate
        # across runs, which the compiled table cannot represent.
        class TrackedDroop(SupplyDroopModel):
            pass

        machine = _machine(seed=7, droop_model=TrackedDroop())
        framework = CharacterizationFramework(
            machine,
            FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=2),
        )
        campaign = framework.run_campaign(get_benchmark("mcf"), core=0)
        assert framework.last_campaign_path == "scalar"
        _assert_records_derive(framework, campaign)
        # The derivation above covered every block shape the parser
        # must get right: located EDAC errors, system crashes and
        # watchdog recoveries.
        assert any(record.detail for record in campaign.records)
        assert any(record.crashed_system for record in campaign.records)
        assert any(record.watchdog_intervened for record in campaign.records)

    def test_undervolted_soc_falls_back_to_scalar(self):
        machine = _machine(seed=7)
        machine.slimpro.set_soc_voltage_mv(
            machine.chip.calibration.soc_vmin_mv - VOLTAGE_STEP_MV
        )
        framework = CharacterizationFramework(
            machine,
            FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=2),
        )
        campaign = framework.run_campaign(get_benchmark("mcf"), core=0)
        assert framework.last_campaign_path == "scalar"
        _assert_records_derive(framework, campaign)

    def test_compile_returns_table_for_plain_machine(self):
        machine = _machine()
        table = machine.compile_batch_table(
            get_benchmark("mcf"), core=0, freq_mhz=2400
        )
        assert isinstance(table, VoltageTable)
        assert table.voltages == tuple(
            sorted(table.voltages, reverse=True)
        )
        assert table.index_of(table.voltages[3]) == 3


class TestKernelCache:
    """The framework reuses a compiled kernel only while the machine's
    batch surface token is unchanged: attaching an injector or mutating
    an extension model between campaigns must recompile -- or fall back
    -- exactly as a fresh compile would."""

    @staticmethod
    def _campaigns(machine, framework):
        """Plain, then with a scripted injector attached, then detached
        with the droop model mutated in place -- and once more mutated
        in place, so a cached batch kernel (the fallback dropped the
        first one) must notice the mutation by itself."""
        bench = get_benchmark("mcf")
        paths, results = [], []

        def run(campaign_index):
            results.append(framework.run_campaign(
                bench, core=0, campaign_index=campaign_index))
            paths.append(framework.last_campaign_path)

        run(1)
        machine.injector = FaultInjector(
            [Injection(unit=FunctionalUnit.L2_SRAM, bit_positions=(3,))]
        )
        run(2)
        machine.injector = None
        object.__setattr__(machine.droop_model, "max_droop_mv", 30.0)
        run(3)
        object.__setattr__(machine.droop_model, "max_droop_mv", 45.0)
        run(4)
        return paths, results

    def test_cache_follows_injector_and_in_place_mutation(self):
        config = FrameworkConfig(start_mv=905, campaigns=1, runs_per_level=3)
        machine = _machine(seed=11, droop_model=SupplyDroopModel())
        framework = CharacterizationFramework(machine, config)
        paths, results = self._campaigns(machine, framework)
        assert paths == ["batch", "scalar", "batch", "batch"]

        reference_machine = _machine(seed=11, droop_model=SupplyDroopModel())
        reference = CharacterizationFramework(reference_machine, config)
        with scalar_path(reference_machine):
            ref_paths, ref_results = self._campaigns(
                reference_machine, reference
            )
        assert ref_paths == ["scalar"] * 4
        assert framework.raw_logs == reference.raw_logs
        assert results == ref_results


class TestLogFingerprint:
    """Satellite regression: fingerprints must be process-stable."""

    def test_fingerprint_is_crc32_not_builtin_hash(self):
        text = "=== RUN chip=TTT benchmark=mcf core=0 ===\nstatus=completed\n"
        fingerprint = CharacterizationFramework._log_fingerprint(text)
        assert fingerprint == (len(text), zlib.crc32(text.encode("utf-8")))

    def test_fingerprint_known_value(self):
        # Pinned constant: a salted builtin hash() would differ between
        # processes (PYTHONHASHSEED), this value must never change.
        assert CharacterizationFramework._log_fingerprint("vmin") == (
            4,
            zlib.crc32(b"vmin"),
        )
        assert CharacterizationFramework._log_fingerprint("vmin")[1] == 824894622

    def test_fingerprint_distinguishes_texts(self):
        base = CharacterizationFramework._log_fingerprint("edac_ce=1")
        assert base != CharacterizationFramework._log_fingerprint("edac_ce=2")
