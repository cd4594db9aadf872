"""The append-only campaign journal (``repro-campaign/v1``).

A campaign store is a directory with exactly two files:

* ``manifest.json`` -- written once, atomically, when the store is
  created: the schema format tag, the full
  :class:`~repro.machines.MachineSpec` JSON (plus its content digest),
  the :class:`~repro.core.framework.FrameworkConfig`, the grid
  definition (workload names x cores), the parent seed material and
  the severity weights.  The manifest alone determines every task of
  the grid and every task's derived seed -- which is what makes a
  journal resumable bit-identically.
* ``journal.jsonl`` -- one line per completed (workload, core,
  campaign) task (see :class:`~repro.store.records.StoredCampaign`),
  appended as tasks finish through a
  :class:`~repro.store.durable.AppendLog`: a crash can leave at most a
  torn trailing line, which loading drops; corruption anywhere else is
  an error, never silently skipped.

The store is the single durable persistence path of the stack; the
paper's Section-2.2 CSV artifacts are *derived* from it via
:meth:`CampaignStore.export_csv`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import telemetry
from ..core.campaign import CampaignResult, CharacterizationResult
from ..core.framework import FrameworkConfig
from ..core.results import ResultStore
from ..core.severity import DEFAULT_WEIGHTS, SeverityWeights
from ..errors import CampaignError, ConfigurationError, StoreError
from ..machines import MachineSpec
from ..workloads import get_program
from ..workloads.benchmark import Program
from .durable import AppendLog, atomic_write
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .models import ModelStore

#: Format tag of the store schema, written into every manifest.
STORE_FORMAT = "repro-campaign/v1"
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Identity of one grid task: (benchmark name, core, campaign index).
TaskKey = Tuple[str, int, int]


@dataclasses.dataclass(frozen=True)
class CampaignManifest:
    """Everything that defines a campaign grid, JSON-round-trippable."""

    spec: MachineSpec
    config: FrameworkConfig
    #: Workload names in grid order (``"bench"`` or ``"bench/input"``).
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    weights: SeverityWeights = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not self.workloads or not self.cores:
            raise ConfigurationError(
                "a campaign manifest needs at least one workload and one core"
            )

    def expected_keys(self) -> List[TaskKey]:
        """Every task of the grid, in reference (serial) order."""
        return [
            (name, core, campaign)
            for name in self.workloads
            for core in self.cores
            for campaign in range(1, self.config.campaigns + 1)
        ]

    def programs(self) -> List[Program]:
        """The workload names resolved back to program objects."""
        return [get_program(name) for name in self.workloads]

    # -- JSON round-trip ---------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "machine_spec": self.spec.to_json_dict(),
            "spec_digest": self.spec.digest(),
            "seed": self.spec.seed,
            "config": dataclasses.asdict(self.config),
            "workloads": list(self.workloads),
            "cores": list(self.cores),
            "severity_weights": dataclasses.asdict(self.weights),
        }

    @classmethod
    def from_json_dict(
        cls,
        data: Mapping[str, Any],
        source: Optional[Union[str, Path]] = None,
    ) -> "CampaignManifest":
        """Inverse of :meth:`to_json_dict`.

        ``source`` names the manifest file (or shard path) the dict was
        read from, so integrity errors can point at the offending file.
        """
        where = "" if source is None else f" at {source}"
        fmt = data.get("format")
        if fmt != STORE_FORMAT:
            raise StoreError(
                f"unsupported campaign-store format {fmt!r}{where} "
                f"(expected {STORE_FORMAT!r})"
            )
        try:
            spec = MachineSpec.from_json_dict(data["machine_spec"])
            manifest = cls(
                spec=spec,
                config=FrameworkConfig(**dict(data["config"])),
                workloads=tuple(str(name) for name in data["workloads"]),
                cores=tuple(int(core) for core in data["cores"]),
                weights=SeverityWeights(**dict(data["severity_weights"])),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed store manifest{where}: {exc}")
        digest = data.get("spec_digest")
        if digest is not None and digest != spec.digest():
            raise StoreError(
                f"store manifest{where} pins spec_digest {digest}, but the "
                f"embedded machine spec digests to {spec.digest()} -- the "
                f"manifest was edited or corrupted"
            )
        return manifest


class CampaignStore:
    """A directory-backed, append-only journal of one campaign grid.

    Construct through :meth:`create` (new store) or :meth:`open`
    (existing store); the constructor itself is internal.
    """

    def __init__(self, directory: Path, manifest: CampaignManifest,
                 campaigns: List[StoredCampaign]) -> None:
        self.directory = directory
        self.manifest = manifest
        self._campaigns = campaigns
        # The grid is fixed at manifest time and appends are per-task,
        # so membership checks run off cached sets instead of rebuilding
        # the expected/completed sets O(grid) on every append.
        self._expected: Set[TaskKey] = set(manifest.expected_keys())
        self._completed: Set[TaskKey] = {c.key for c in campaigns}
        #: The journal file; it heals a torn tail on the next append.
        self._log = AppendLog(directory / JOURNAL_NAME, "journal")
        #: Callbacks fired after every durable append (see
        #: :meth:`subscribe`); the warm query indexes hang off this.
        self._observers: List[Callable[[StoredCampaign], None]] = []

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        spec: MachineSpec,
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> "CampaignStore":
        """Create a fresh store: directory + atomically written manifest."""
        path = Path(directory)
        if (path / MANIFEST_NAME).exists():
            raise CampaignError(
                f"campaign store already exists at {path}; open it with "
                f"CampaignStore.open (or resume it) instead of recreating"
            )
        manifest = CampaignManifest(
            spec=spec,
            config=config,
            workloads=tuple(workloads),
            cores=tuple(cores),
            weights=weights,
        )
        path.mkdir(parents=True, exist_ok=True)
        # A crash during creation leaves either no manifest (not a
        # store) or a complete one a later open can read.
        payload = json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True)
        atomic_write(path / MANIFEST_NAME, payload + "\n")
        return cls(path, manifest, [])

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "CampaignStore":
        """Open an existing store and load its journal."""
        path = Path(directory)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise CampaignError(f"no campaign store at {path}")
        try:
            manifest_data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store manifest {manifest_path}: {exc}")
        manifest = CampaignManifest.from_json_dict(
            manifest_data, source=manifest_path
        )
        store = cls(path, manifest, [])
        store._campaigns = store._load_journal()
        store._completed = {c.key for c in store._campaigns}
        return store

    def _load_journal(self) -> List[StoredCampaign]:
        """Parse the journal; a torn last line is dropped (its task
        reruns) and cut away by the next :meth:`append_campaign`."""
        if not self.journal_path.exists():
            return []
        campaigns: List[StoredCampaign] = []
        seen: Set[TaskKey] = set()
        for number, (_end, data) in enumerate(self._log.lines(), 1):
            campaign = StoredCampaign.from_json_dict(data)
            if campaign.key not in self._expected:
                raise CampaignError(
                    f"journal line {number} records task "
                    f"{campaign.key!r}, which is not in the manifest grid"
                )
            if campaign.key in seen:
                raise CampaignError(
                    f"journal line {number} duplicates task "
                    f"{campaign.key!r}"
                )
            seen.add(campaign.key)
            campaigns.append(campaign)
        return campaigns

    # -- append side -------------------------------------------------------

    def append_campaign(
        self,
        result: CampaignResult,
        raw_log: str,
        seed: int,
        interventions: int,
    ) -> StoredCampaign:
        """Journal one completed campaign (flush + fsync before return)."""
        stored = StoredCampaign(
            benchmark=result.benchmark,
            core=result.core,
            campaign_index=result.campaign_index,
            seed=seed,
            freq_mhz=result.freq_mhz,
            interventions=interventions,
            raw_log=raw_log,
            records=result.records,
        )
        if stored.key not in self._expected:
            raise CampaignError(
                f"task {stored.key!r} is not part of this store's grid"
            )
        if stored.key in self._completed:
            raise CampaignError(f"task {stored.key!r} is already journaled")
        line = json.dumps(stored.to_json_dict(), sort_keys=True)
        fsync_started = telemetry.clock()
        # A real span (not a point event) so trace analytics can
        # attribute the write+fsync time to the journal_append phase.
        with telemetry.span(
            "journal.append",
            trace_id=telemetry.task_trace_id(
                stored.benchmark, stored.core, stored.campaign_index
            ),
            benchmark=stored.benchmark,
            core=stored.core,
            campaign=stored.campaign_index,
            bytes=len(line) + 1,
        ):
            self._log.append(line)
        telemetry.observe(
            telemetry.M_JOURNAL_FSYNC_SECONDS, telemetry.clock() - fsync_started
        )
        telemetry.inc_counter(telemetry.M_JOURNAL_APPENDS)
        self._campaigns.append(stored)
        self._completed.add(stored.key)
        for observer in tuple(self._observers):
            observer(stored)
        return stored

    def subscribe(self, observer: Callable[[StoredCampaign], None]) -> None:
        """Call ``observer`` after every durable append.

        Observers run once the record is fsynced and accounted, so an
        incremental index updated from here can never get ahead of the
        journal.  They see appends through *this* store object only --
        another process appending to the same directory is picked up by
        re-opening (or by an index's cursor-based ``refresh``).
        """
        self._observers.append(observer)

    # -- progress ----------------------------------------------------------

    def campaigns(self) -> List[StoredCampaign]:
        """Journaled campaigns, in append order."""
        return list(self._campaigns)

    def completed_keys(self) -> Set[TaskKey]:
        return set(self._completed)

    def expected_keys(self) -> List[TaskKey]:
        return self.manifest.expected_keys()

    def pending_keys(self) -> List[TaskKey]:
        """Grid tasks not yet journaled, in reference order."""
        done = self.completed_keys()
        return [key for key in self.expected_keys() if key not in done]

    def is_complete(self) -> bool:
        return not self.pending_keys()

    def validate_run(
        self,
        spec: MachineSpec,
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
    ) -> None:
        """Reject appends/resumes under a different grid definition.

        A journal is only meaningful against the exact machine
        blueprint, configuration and grid it was recorded for; anything
        else would splice incompatible results into one store.
        """
        manifest = self.manifest
        if spec.digest() != manifest.spec.digest():
            raise CampaignError(
                "machine spec does not match the store manifest "
                "(different blueprint or seed material)"
            )
        if config != manifest.config:
            raise CampaignError(
                "framework configuration does not match the store manifest"
            )
        if tuple(workloads) != manifest.workloads:
            raise CampaignError(
                f"workload grid {tuple(workloads)!r} does not match the "
                f"store manifest {manifest.workloads!r}"
            )
        if tuple(cores) != manifest.cores:
            raise CampaignError(
                f"core grid {tuple(cores)!r} does not match the store "
                f"manifest {manifest.cores!r}"
            )

    # -- read side ---------------------------------------------------------

    def _grid(self) -> Dict[Tuple[str, int], List[StoredCampaign]]:
        """Journaled campaigns grouped by grid cell, in manifest order."""
        grid: Dict[Tuple[str, int], List[StoredCampaign]] = {}
        for campaign in self._campaigns:
            grid.setdefault((campaign.benchmark, campaign.core), []).append(
                campaign
            )
        ordered: Dict[Tuple[str, int], List[StoredCampaign]] = {}
        for name in self.manifest.workloads:
            for core in self.manifest.cores:
                cell = grid.get((name, core))
                if cell:
                    ordered[(name, core)] = sorted(
                        cell, key=lambda c: c.campaign_index
                    )
        return ordered

    def results(self) -> Dict[Tuple[str, int], CharacterizationResult]:
        """Reconstruct every *complete* grid cell, in manifest order."""
        campaigns_per_cell = self.manifest.config.campaigns
        return {
            key: CharacterizationResult(
                campaigns=tuple(c.campaign_result() for c in cell)
            )
            for key, cell in self._grid().items()
            if len(cell) == campaigns_per_cell
        }

    def result_for(self, benchmark: str, core: int) -> CharacterizationResult:
        """Reconstruct one grid cell, requiring it to be complete."""
        cell = self._grid().get((benchmark, core))
        if cell is None:
            raise CampaignError(
                f"store has no journaled campaigns for "
                f"({benchmark!r}, core {core})"
            )
        missing = self.manifest.config.campaigns - len(cell)
        if missing:
            raise CampaignError(
                f"({benchmark!r}, core {core}) is incomplete: {missing} of "
                f"{self.manifest.config.campaigns} campaigns still pending"
            )
        return CharacterizationResult(
            campaigns=tuple(c.campaign_result() for c in cell)
        )

    def raw_logs(self) -> Dict[Tuple[str, int, int, int], str]:
        """Raw campaign logs keyed like the framework's log mapping."""
        logs: Dict[Tuple[str, int, int, int], str] = {}
        for name in self.manifest.workloads:
            for core in self.manifest.cores:
                for campaign in self._grid().get((name, core), []):
                    logs[campaign.raw_log_key] = campaign.raw_log
        return logs

    def interventions(self) -> int:
        """Total watchdog recoveries across all journaled campaigns."""
        return sum(campaign.interventions for campaign in self._campaigns)

    # -- model artifacts ---------------------------------------------------

    def model_store(self) -> "ModelStore":
        """The versioned model-artifact store under this directory.

        Artifacts are bound to this store's machine-spec digest:
        loading or saving one fitted against a different spec raises.
        """
        from .models import ModelStore

        return ModelStore(
            self.directory,
            expected_spec_digest=self.manifest.spec.digest(),
        )

    # -- derived exports ---------------------------------------------------

    def export_csv(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Dict[str, Path]:
        """Write the paper's Section-2.2 CSV artifacts from the journal.

        Results are emitted in manifest grid order regardless of the
        order tasks were journaled in, so an interrupted-and-resumed
        grid exports byte-identical files to an uninterrupted one.
        """
        store = ResultStore(self.directory if directory is None else directory)
        results = list(self.results().values())
        paths = {
            "runs": store.write_runs_csv(results),
            "severity": store.write_severity_csv(
                results, weights=self.manifest.weights
            ),
        }
        store.write_all_raw_logs(self.raw_logs())
        return paths
