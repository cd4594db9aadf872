"""Shared fixtures.

Heavy objects (characterization results, prediction pipelines) are
session-scoped: the simulator is deterministic, so sharing them across
tests loses nothing and keeps the suite fast.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import CharacterizationFramework, FrameworkConfig
# reprolint: disable=RPR003 -- compile_batch_table is the concrete machine's hook
from repro.hardware import XGene2Machine
from repro.machines import MachineSpec, build_machine
from repro.workloads import get_benchmark


@contextlib.contextmanager
def scalar_path(machine=None):
    """Campaigns run inside take the scalar outcome source.

    ``compile_batch_table`` declines (returns None) on ``machine``
    alone or, without one, on :class:`XGene2Machine` itself -- which
    reaches every machine a ``jobs=1`` engine grid builds in process.
    The campaign loop then draws each run from ``machine.run_program``,
    the reference the batch source must match bit for bit.
    """
    target = XGene2Machine if machine is None else machine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(target, "compile_batch_table",
                      lambda *args, **kwargs: None)
        yield


@pytest.fixture()
def machine():
    """A powered-on TTT machine with a fixed seed."""
    m = build_machine(MachineSpec(chip="TTT", seed=2017))
    return m


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


@pytest.fixture(scope="session")
def bwaves_characterization():
    """bwaves on TTT core 0: 10 campaigns, the paper's configuration."""
    m = build_machine(MachineSpec(chip="TTT", seed=42))
    framework = CharacterizationFramework(
        m, FrameworkConfig(start_mv=930, campaigns=10)
    )
    return framework.characterize(get_benchmark("bwaves"), core=0)


@pytest.fixture(scope="session")
def leslie3d_characterizations():
    """leslie3d on TTT cores 0 and 4 (the Section-5 example pair)."""
    m = build_machine(MachineSpec(chip="TTT", seed=8))
    framework = CharacterizationFramework(
        m, FrameworkConfig(start_mv=930, campaigns=10)
    )
    bench = get_benchmark("leslie3d")
    return {
        core: framework.characterize(bench, core) for core in (0, 4)
    }


@pytest.fixture()
def decoded_lines(monkeypatch):
    """Count journal-line decodes: patches
    ``StoredCampaign.from_json_dict`` and returns the list it appends
    each decoded line's (benchmark, core, campaign, seed) to."""
    from repro.store import StoredCampaign

    decoded = []
    original = StoredCampaign.from_json_dict.__func__

    def counting(cls, data):
        decoded.append(
            (data["benchmark"], data["core"], data["campaign"], data["seed"]))
        return original(cls, data)

    monkeypatch.setattr(StoredCampaign, "from_json_dict",
                        classmethod(counting))
    return decoded
