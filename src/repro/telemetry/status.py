"""Campaign status: journal progress + live metrics snapshot.

:func:`campaign_status` opens a campaign store read-only, tallies
completed tasks and per-effect run counts from the journal, and (when
given a metrics JSON snapshot written by ``--metrics``) derives an ETA
from the observed per-task latency histogram.  :func:`render_status`
formats the result for the ``repro status`` subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..effects import EFFECT_ORDER
from .metrics import METRICS_FORMAT, M_TASK_SECONDS


@dataclass(frozen=True)
class CampaignStatus:
    """Progress summary of one campaign store."""

    store_path: str
    chip: str
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    campaigns_per_cell: int
    tasks_total: int
    tasks_completed: int
    interventions: int
    #: (effect value, run count) pairs in severity order (Table 3).
    effect_tallies: Tuple[Tuple[str, int], ...]
    #: (benchmark, core, completed campaigns) per grid cell, grid order.
    cells: Tuple[Tuple[str, int, int], ...]
    #: Mean per-task seconds from a live metrics snapshot, if provided.
    mean_task_seconds: Optional[float] = None
    #: Whether a metrics snapshot was supplied at all -- distinguishes
    #: "no snapshot" (omit the ETA line) from "snapshot without task
    #: samples yet" (render "n/a").
    metrics_provided: bool = False

    @property
    def tasks_remaining(self) -> int:
        return self.tasks_total - self.tasks_completed

    @property
    def fraction(self) -> float:
        return self.tasks_completed / self.tasks_total if self.tasks_total else 1.0

    @property
    def complete(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to completion, when a task rate is known."""
        if self.mean_task_seconds is None:
            return None
        return self.mean_task_seconds * self.tasks_remaining


def _read_mean_task_seconds(path: Union[str, Path]) -> Optional[float]:
    """Mean task latency out of a ``repro-metrics/v1`` JSON snapshot."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != METRICS_FORMAT:
        raise ValueError(
            f"{path}: not a {METRICS_FORMAT} snapshot "
            "(pass the JSON file written by --metrics)"
        )
    for metric in data.get("metrics", []):
        if metric.get("name") != M_TASK_SECONDS:
            continue
        for sample in metric.get("samples", []):
            # An empty or just-initialized histogram has count 0 (or no
            # sum at all); that is "no rate known yet", never an error.
            count = sample.get("count", 0)
            total = sample.get("sum")
            if count and total is not None:
                return float(total) / float(count)
    return None


def campaign_status(
    store: Union[str, Path],
    metrics_path: Optional[Union[str, Path]] = None,
) -> CampaignStatus:
    """Summarize a store directory (and optional metrics snapshot)."""
    # Imported lazily: repro.store imports repro.telemetry at module
    # level to instrument journal appends, so the top-level import
    # would be circular.
    from ..store import CampaignStore

    opened = CampaignStore.open(store)
    manifest = opened.manifest
    completed = opened.completed_keys()

    tallies: Dict[str, int] = {effect.value: 0 for effect in EFFECT_ORDER}
    interventions = 0
    per_cell: Dict[Tuple[str, int], int] = {
        (name, core): 0 for name in manifest.workloads for core in manifest.cores
    }
    for stored in opened.campaigns():
        interventions += stored.interventions
        per_cell[(stored.benchmark, stored.core)] += 1
        for record in stored.records:
            for effect in record.effects:
                tallies[effect.value] += 1

    chip = manifest.spec.chip
    chip_name = chip if isinstance(chip, str) else getattr(chip, "name", str(chip))

    mean_task_seconds = (
        _read_mean_task_seconds(metrics_path) if metrics_path is not None else None
    )
    return CampaignStatus(
        store_path=str(store),
        chip=str(chip_name),
        workloads=manifest.workloads,
        cores=manifest.cores,
        campaigns_per_cell=manifest.config.campaigns,
        tasks_total=len(manifest.expected_keys()),
        tasks_completed=len(completed),
        interventions=interventions,
        effect_tallies=tuple((effect.value, tallies[effect.value]) for effect in EFFECT_ORDER),
        cells=tuple(
            (name, core, per_cell[(name, core)])
            for name in manifest.workloads
            for core in manifest.cores
        ),
        mean_task_seconds=mean_task_seconds,
        metrics_provided=metrics_path is not None,
    )


@dataclass(frozen=True)
class ModelStatus:
    """Summary of the latest model artifact of one (target, core)."""

    target: str
    core: int
    version: int
    journal_offset: int
    n_samples: int
    servable: bool
    selected_features: Tuple[str, ...]
    #: Prequential model RMSE at save time, when evaluated batches exist.
    rmse: Optional[float] = None
    #: Prequential model/naive RMSE ratio (1.0 = no better than naive).
    drift: Optional[float] = None


def model_statuses(store: Union[str, Path]) -> Tuple[ModelStatus, ...]:
    """Latest ``repro-model/v1`` artifact per (target, core) series."""
    from ..store import CampaignStore

    opened = CampaignStore.open(store)
    statuses = []
    for artifact in opened.model_store().latest_artifacts():
        statuses.append(
            ModelStatus(
                target=artifact.target,
                core=artifact.core,
                version=artifact.version,
                journal_offset=artifact.journal_offset,
                n_samples=artifact.n_samples,
                servable=artifact.is_servable,
                selected_features=artifact.selected_features,
                rmse=artifact.metrics.get("prequential_rmse"),
                drift=artifact.metrics.get("drift"),
            )
        )
    return tuple(statuses)


def render_model_status(statuses: Tuple[ModelStatus, ...]) -> str:
    """Human-readable ``repro status --models`` section."""
    lines: List[str] = ["model artifacts:"]
    if not statuses:
        lines.append("  (none -- run `repro train STORE` to fit one)")
        return "\n".join(lines) + "\n"
    for status in statuses:
        rmse = f"{status.rmse:.3f}" if status.rmse is not None else "--"
        drift = f"{status.drift:.3f}" if status.drift is not None else "--"
        servable = "servable" if status.servable else "not servable yet"
        lines.append(
            f"  {status.target} c{status.core}: v{status.version} "
            f"@offset {status.journal_offset}, {status.n_samples} samples, "
            f"{servable}, prequential RMSE {rmse}, drift {drift}"
        )
        if status.selected_features:
            lines.append(
                "    features: " + ", ".join(status.selected_features)
            )
    return "\n".join(lines) + "\n"


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.1f} s"


def render_status(status: CampaignStatus) -> str:
    """Human-readable report for ``repro status``."""
    lines: List[str] = []
    lines.append(f"store: {status.store_path} (chip {status.chip})")
    lines.append(
        f"progress: {status.tasks_completed}/{status.tasks_total} tasks "
        f"({status.fraction * 100:.1f} %)"
        + (", complete" if status.complete else f", {status.tasks_remaining} remaining")
    )
    if status.eta_s is not None and not status.complete:
        assert status.mean_task_seconds is not None
        lines.append(
            f"eta: {_format_eta(status.eta_s)} "
            f"at {status.mean_task_seconds:.3f} s/task"
        )
    elif status.metrics_provided and not status.complete:
        # A snapshot was supplied but holds no completed-task samples
        # (empty or just-initialized journal): the rate is unknowable,
        # which is an answer, not an error.
        lines.append("eta: n/a (no completed-task samples yet)")
    lines.append(f"watchdog interventions: {status.interventions}")
    lines.append("effect classes (runs):")
    for effect, count in status.effect_tallies:
        lines.append(f"  {effect:>4}: {count}")
    lines.append("grid cells (campaigns done of "
                 f"{status.campaigns_per_cell}):")
    for benchmark, core, done in status.cells:
        lines.append(f"  {benchmark} c{core}: {done}/{status.campaigns_per_cell}")
    return "\n".join(lines) + "\n"


# -- fleet status -----------------------------------------------------------


@dataclass(frozen=True)
class FleetShardStatus:
    """Progress + warm-index answers of one fleet shard."""

    name: str
    spec_digest: str
    chip: str
    tasks_total: int
    tasks_completed: int
    compacted: bool
    #: (benchmark, core, vmin_mv, crash_mv) per *completed* grid cell,
    #: in manifest grid order, served from the warm Vmin index.
    vmin_cells: Tuple[Tuple[str, int, int, Optional[int]], ...]

    @property
    def complete(self) -> bool:
        return self.tasks_completed >= self.tasks_total


@dataclass(frozen=True)
class FleetStatus:
    """Cross-shard progress summary of one fleet store."""

    fleet_path: str
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    campaigns_per_cell: int
    shards: Tuple[FleetShardStatus, ...]
    mean_task_seconds: Optional[float] = None
    metrics_provided: bool = False

    @property
    def tasks_total(self) -> int:
        return sum(shard.tasks_total for shard in self.shards)

    @property
    def tasks_completed(self) -> int:
        return sum(shard.tasks_completed for shard in self.shards)

    @property
    def tasks_remaining(self) -> int:
        return self.tasks_total - self.tasks_completed

    @property
    def fraction(self) -> float:
        return (
            self.tasks_completed / self.tasks_total if self.tasks_total else 1.0
        )

    @property
    def complete(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def eta_s(self) -> Optional[float]:
        if self.mean_task_seconds is None:
            return None
        return self.mean_task_seconds * self.tasks_remaining


def fleet_status(
    fleet: Union[str, Path],
    metrics_path: Optional[Union[str, Path]] = None,
) -> FleetStatus:
    """Summarize a fleet store, serving Vmin from the warm indexes.

    Progress is re-derived from the shard journals on disk (the fleet
    manifest's watermarks may lag a concurrent appender); the per-cell
    Vmin answers come from each shard's incremental
    :class:`~repro.store.VminIndex` -- the contract that the index is
    answer-identical to a re-parse is what makes this safe.
    """
    # Lazy for the same reason as campaign_status: repro.store imports
    # repro.telemetry at module level.
    from ..store import FleetStore

    opened = FleetStore.open(fleet)
    shards: List[FleetShardStatus] = []
    for entry, indexes in opened.indexes().bundles():
        store = indexes.store
        vmin = indexes.vmin
        chip = store.manifest.spec.chip
        chip_name = (
            chip if isinstance(chip, str) else getattr(chip, "name", str(chip))
        )
        shards.append(
            FleetShardStatus(
                name=entry.name,
                spec_digest=entry.spec_digest,
                chip=str(chip_name),
                tasks_total=entry.total,
                tasks_completed=len(store.completed_keys()),
                compacted=entry.compacted,
                vmin_cells=tuple(
                    (name, core, vmin.vmin_mv(name, core),
                     vmin.crash_mv(name, core))
                    for name, core in vmin.cells()
                ),
            )
        )
    mean_task_seconds = (
        _read_mean_task_seconds(metrics_path) if metrics_path is not None else None
    )
    return FleetStatus(
        fleet_path=str(fleet),
        workloads=opened.manifest.workloads,
        cores=opened.manifest.cores,
        campaigns_per_cell=opened.manifest.config.campaigns,
        shards=tuple(shards),
        mean_task_seconds=mean_task_seconds,
        metrics_provided=metrics_path is not None,
    )


def render_fleet_status(status: FleetStatus) -> str:
    """Human-readable report for ``repro fleet status``."""
    lines: List[str] = []
    lines.append(
        f"fleet: {status.fleet_path} ({len(status.shards)} shards)"
    )
    lines.append(
        f"progress: {status.tasks_completed}/{status.tasks_total} tasks "
        f"({status.fraction * 100:.1f} %)"
        + (", complete" if status.complete
           else f", {status.tasks_remaining} remaining")
    )
    if status.eta_s is not None and not status.complete:
        assert status.mean_task_seconds is not None
        lines.append(
            f"eta: {_format_eta(status.eta_s)} "
            f"at {status.mean_task_seconds:.3f} s/task"
        )
    elif status.metrics_provided and not status.complete:
        lines.append("eta: n/a (no completed-task samples yet)")
    for shard in status.shards:
        state = "complete" if shard.complete else "in progress"
        if shard.compacted:
            state += ", compacted"
        lines.append(
            f"  {shard.name} (chip {shard.chip}): "
            f"{shard.tasks_completed}/{shard.tasks_total} tasks, {state}"
        )
        for benchmark, core, vmin_mv, crash_mv in shard.vmin_cells:
            crash = "--" if crash_mv is None else f"{crash_mv} mV"
            lines.append(
                f"    {benchmark} c{core}: Vmin {vmin_mv} mV, "
                f"crash {crash}"
            )
    return "\n".join(lines) + "\n"


__all__ = [
    "CampaignStatus",
    "FleetShardStatus",
    "FleetStatus",
    "ModelStatus",
    "campaign_status",
    "fleet_status",
    "model_statuses",
    "render_fleet_status",
    "render_model_status",
    "render_status",
]
