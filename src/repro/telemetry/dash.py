"""The ``repro dash`` terminal dashboard.

A :class:`Dashboard` aggregates, for one campaign store or fleet
directory: task progress (re-derived from the journals, the same way
``repro status`` does), the metrics time-series journals written by
``--tsdb`` (read through warm :class:`~repro.telemetry.tsdb.TsdbCursor`
instances that persist across refreshes, so a ``--follow`` loop only
parses the bytes appended since the previous frame), an ETA from the
observed per-task latency histogram, and the health-rule verdicts.

Everything here is read-only over artifacts; the dashboard can watch a
live run from another process without perturbing it.

Because the metrics registry is session-global, every shard's tsdb
journal snapshots the *whole* registry: cross-shard scalar reads must
pick the freshest cursor, never sum across journals (that would
double-count the same counters).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .health import (
    HealthRule,
    HealthVerdict,
    default_health_rules,
    evaluate_rules,
    overall_status,
    render_health,
)
from .metrics import M_TASK_SECONDS, M_THROUGHPUT
from .status import _format_eta, campaign_status, fleet_status
from .tsdb import TSDB_NAME, TsdbCursor

if TYPE_CHECKING:
    from ..store import CampaignStore, FleetStore


@dataclasses.dataclass(frozen=True)
class DashSnapshot:
    """One rendered-ready frame of the dashboard."""

    store_path: str
    kind: str  # "campaign" | "fleet"
    tasks_total: int
    tasks_completed: int
    #: (label, done, of) progress rows -- shards for a fleet, grid
    #: cells for a single campaign store.
    rows: Tuple[Tuple[str, int, int], ...]
    #: tsdb journals found / snapshot lines consumed across them.
    journals: int
    snapshots: int
    mean_task_seconds: Optional[float]
    throughput: Optional[float]
    verdicts: Tuple[HealthVerdict, ...]

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
        if self.mean_task_seconds is None:
            return None
        return self.mean_task_seconds * self.tasks_remaining

    @property
    def health(self) -> str:
        return overall_status(self.verdicts)


def _freshest(cursors: Sequence[TsdbCursor]) -> TsdbCursor:
    """The cursor with the most recent snapshot (registry is global)."""
    best: Optional[TsdbCursor] = None
    for cursor in cursors:
        if cursor.last_t_s is None:
            continue
        if (
            best is None
            or best.last_t_s is None
            or (cursor.last_t_s, cursor.snapshots)
            > (best.last_t_s, best.snapshots)
        ):
            best = cursor
    return best if best is not None else TsdbCursor()


class Dashboard:
    """Warm-state aggregator behind ``repro dash``.

    Keep one instance alive across ``--follow`` refreshes: it holds
    one open store, caught up with its journals each frame, and tsdb
    cursors that advance incrementally, so a frame decodes only the
    journal lines and parses only the tsdb bytes appended since the
    previous one.
    """

    def __init__(
        self,
        store: Union[str, Path],
        rules: Optional[Sequence[HealthRule]] = None,
        baseline: Optional[Union[str, Path]] = None,
    ) -> None:
        self.store = Path(store)
        self.rules: Tuple[HealthRule, ...] = (
            tuple(rules) if rules is not None
            else default_health_rules(baseline)
        )
        self._cursors: Dict[str, TsdbCursor] = {}
        self._opened: Optional[Union["CampaignStore", "FleetStore"]] = None
        self._tsdb_paths: Tuple[Path, ...] = ()

    def _open(self) -> Union["CampaignStore", "FleetStore"]:
        """The store this dashboard reads, opened on the first frame,
        along with the paths of its tsdb journals."""
        if self._opened is None:
            # Lazy: repro.store imports repro.telemetry at module level.
            from ..store import FLEET_MANIFEST_NAME, CampaignStore, FleetStore

            if (self.store / FLEET_MANIFEST_NAME).exists():
                fleet = FleetStore.open(self.store)
                self._tsdb_paths = tuple(
                    fleet.tsdb_path(entry) for entry in fleet.manifest.shards
                )
                self._opened = fleet
            else:
                self._tsdb_paths = (self.store / TSDB_NAME,)
                self._opened = CampaignStore.open(self.store)
        return self._opened

    def _advance_cursors(self) -> List[TsdbCursor]:
        cursors: List[TsdbCursor] = []
        for path in self._tsdb_paths:
            key = str(path)
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = TsdbCursor()
                self._cursors[key] = cursor
            cursor.advance(path)
            cursors.append(cursor)
        return cursors

    def refresh(self) -> DashSnapshot:
        """Advance the cursors and assemble one dashboard frame."""
        from ..store import FleetStore

        opened = self._open()
        cursors = self._advance_cursors()
        freshest = _freshest(cursors)
        mean_task_seconds = freshest.mean(M_TASK_SECONDS)
        throughput = freshest.last_total(M_THROUGHPUT)
        verdicts = evaluate_rules(freshest, self.rules)

        rows: List[Tuple[str, int, int]] = []
        if isinstance(opened, FleetStore):
            fleet = fleet_status(opened)
            kind = "fleet"
            tasks_total = fleet.tasks_total
            tasks_completed = fleet.tasks_completed
            for shard in fleet.shards:
                rows.append(
                    (shard.name, shard.tasks_completed, shard.tasks_total)
                )
        else:
            status = campaign_status(opened)
            kind = "campaign"
            tasks_total = status.tasks_total
            tasks_completed = status.tasks_completed
            for benchmark, core, done in status.cells:
                rows.append(
                    (f"{benchmark} c{core}", done, status.campaigns_per_cell)
                )

        return DashSnapshot(
            store_path=str(self.store),
            kind=kind,
            tasks_total=tasks_total,
            tasks_completed=tasks_completed,
            rows=tuple(rows),
            journals=sum(1 for c in cursors if c.snapshots > 0),
            snapshots=sum(c.snapshots for c in cursors),
            mean_task_seconds=mean_task_seconds,
            throughput=throughput,
            verdicts=verdicts,
        )


def _progress_bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_dash(snapshot: DashSnapshot) -> str:
    """One terminal frame for ``repro dash``."""
    lines: List[str] = []
    shards = (
        f" ({len(snapshot.rows)} shards)" if snapshot.kind == "fleet" else ""
    )
    lines.append(
        f"repro dash -- {snapshot.store_path} "
        f"[{snapshot.kind} store{shards}]"
    )
    lines.append(
        f"progress: {_progress_bar(snapshot.fraction)} "
        f"{snapshot.tasks_completed}/{snapshot.tasks_total} tasks "
        f"({snapshot.fraction * 100:.1f} %)"
        + (", complete" if snapshot.complete
           else f", {snapshot.tasks_remaining} remaining")
    )
    if snapshot.complete:
        pass
    elif snapshot.eta_s is not None and snapshot.mean_task_seconds is not None:
        lines.append(
            f"eta: {_format_eta(snapshot.eta_s)} "
            f"at {snapshot.mean_task_seconds:.3f} s/task"
        )
    else:
        lines.append("eta: n/a (no completed-task samples in the tsdb yet)")
    if snapshot.throughput is not None:
        lines.append(f"throughput: {snapshot.throughput:.3f} tasks/s")
    if snapshot.snapshots:
        lines.append(
            f"tsdb: {snapshot.snapshots} snapshots across "
            f"{snapshot.journals} journal(s)"
        )
    else:
        lines.append("tsdb: no snapshots yet (run with --tsdb to record them)")
    label = "shards:" if snapshot.kind == "fleet" else "grid cells:"
    lines.append(label)
    for name, done, of in snapshot.rows:
        lines.append(f"  {name}: {done}/{of}")
    lines.append(render_health(snapshot.verdicts).rstrip("\n"))
    return "\n".join(lines) + "\n"


__all__ = [
    "DashSnapshot",
    "Dashboard",
    "render_dash",
]
