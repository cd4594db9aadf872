"""Scaling benchmarks: the parallel engine and the aggregation paths.

Tracks the perf trajectory this PR starts: run with

    PYTHONPATH=src python -m pytest benchmarks/test_framework_throughput.py \
        benchmarks/test_parallel_scaling.py \
        --benchmark-json=BENCH_parallel.json

The aggregation checks demonstrate that ``severity_by_voltage`` no
longer scales quadratically: its cost used to be
O(records x voltages) because every voltage level rescanned the whole
record list; the cached single-pass index makes it O(records).  The
speedup check demonstrates the engine's fan-out on multicore hosts and
is skipped (not weakened) on single-CPU runners.
"""

import os
import time

import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
from repro.core.campaign import CampaignResult, CharacterizationResult
from repro.core.runs import CharacterizationSetup, RunRecord
from repro.effects import EffectType
from repro.hardware import XGene2Machine
from repro.parallel import MachineSpec, ParallelCampaignEngine
from repro.workloads import get_benchmark

# -- synthetic characterizations for the aggregation benchmarks ----------


def _effects_for(voltage, run):
    if voltage >= 900:
        return {EffectType.NO}
    if voltage >= 850:
        return {EffectType.CE} if run % 2 else {EffectType.SDC}
    return {EffectType.SC}


def make_records(n_levels, runs_per_level, campaign):
    top = 980
    records = []
    for step in range(n_levels):
        voltage = top - 5 * step
        for run in range(1, runs_per_level + 1):
            records.append(RunRecord(
                chip="TTT", benchmark="synth",
                setup=CharacterizationSetup(
                    voltage_mv=voltage, freq_mhz=2400, core=0),
                campaign_index=campaign, run_index=run,
                effects=frozenset(_effects_for(voltage, run)),
                exit_code=0, output_matches=True,
            ))
    return tuple(records)


def make_characterization(n_campaigns=10, n_levels=50, runs_per_level=10):
    campaigns = tuple(
        CampaignResult(chip="TTT", benchmark="synth", core=0, freq_mhz=2400,
                       campaign_index=i,
                       records=make_records(n_levels, runs_per_level, i))
        for i in range(1, n_campaigns + 1)
    )
    return CharacterizationResult(campaigns=campaigns)


def severity_cost_s(n_levels, repeats=5):
    """Best-of-N cost of one cold severity_by_voltage aggregation."""
    record_sets = [
        tuple(
            CampaignResult(chip="TTT", benchmark="synth", core=0,
                           freq_mhz=2400, campaign_index=i,
                           records=make_records(n_levels, 10, i))
            for i in range(1, 11)
        )
        for _ in range(repeats)
    ]
    best = float("inf")
    for campaigns in record_sets:
        result = CharacterizationResult(campaigns=campaigns)
        start = time.perf_counter()
        result.severity_by_voltage()
        best = min(best, time.perf_counter() - start)
    return best


def test_severity_by_voltage_not_quadratic():
    """Doubling the voltage levels must not quadruple the cost.

    The old implementation rescanned every record once per voltage
    (cost ~ records x voltages: 4x when levels double, with runs per
    level fixed); the single-pass index costs ~ records (2x).  3.2x is
    the generous dividing line.
    """
    small = severity_cost_s(n_levels=25)
    large = severity_cost_s(n_levels=50)
    assert large < 3.2 * max(small, 1e-6), (
        f"severity_by_voltage scaled superlinearly: "
        f"{small * 1e6:.0f}us -> {large * 1e6:.0f}us"
    )


def test_severity_by_voltage_10x50x10(benchmark):
    """The acceptance-criteria aggregation: 10 campaigns x 50 levels x
    10 runs, cold cache every iteration."""
    campaigns = make_characterization().campaigns

    def aggregate():
        return CharacterizationResult(campaigns=campaigns).severity_by_voltage()

    severity = benchmark(aggregate)
    assert len(severity) == 50
    assert severity[980] == 0.0 and severity[735] == 16.0


def test_campaign_severity_warm_cache(benchmark):
    """Repeated severity queries on one instance (the daemon pattern)."""
    result = make_characterization()
    result.severity_by_voltage()  # prime
    severity = benchmark(result.severity_by_voltage)
    assert severity[735] == 16.0


# -- engine benchmarks ---------------------------------------------------

GRID_CFG = FrameworkConfig(start_mv=930, campaigns=2, runs_per_level=10)
GRID_BENCHMARKS = ("bwaves", "mcf")
GRID_CORES = (0, 4)


def run_grid(jobs):
    engine = ParallelCampaignEngine(
        MachineSpec(chip="TTT", seed=2017), GRID_CFG, jobs=jobs,
    )
    return engine.run([get_benchmark(b) for b in GRID_BENCHMARKS],
                      list(GRID_CORES))


def test_engine_serial_grid(benchmark):
    """Cost of the reference serial grid (2 benchmarks x 2 cores)."""
    report = benchmark.pedantic(lambda: run_grid(jobs=1), rounds=3,
                                iterations=1)
    assert report.tasks_run == 8


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs at least 2 CPUs",
)
def test_parallel_speedup_over_serial():
    """jobs=4 over the 2x2 grid must be >= 2x faster than serial."""
    run_grid(jobs=1)  # warm imports/caches outside the timed region

    start = time.perf_counter()
    serial = run_grid(jobs=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_grid(jobs=4)
    parallel_s = time.perf_counter() - start

    assert serial.results == parallel.results
    assert parallel_s < serial_s / 2, (
        f"speedup {serial_s / parallel_s:.2f}x < 2x "
        f"(serial {serial_s:.2f}s, parallel {parallel_s:.2f}s)"
    )


def test_characterize_many_parallel_matches_serial_aggregates():
    """End-to-end guard run on every host, CPU count regardless."""
    def fresh():
        machine = XGene2Machine("TTT", seed=2017)
        machine.power_on()
        return CharacterizationFramework(machine, GRID_CFG)

    benchmarks = [get_benchmark(b) for b in GRID_BENCHMARKS]
    serial = fresh().characterize_many(benchmarks, list(GRID_CORES), jobs=1)
    parallel = fresh().characterize_many(benchmarks, list(GRID_CORES), jobs=4)
    assert serial == parallel
    for key in serial:
        assert serial[key].severity_by_voltage() == \
            parallel[key].severity_by_voltage()
