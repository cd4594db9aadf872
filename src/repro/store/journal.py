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
import hashlib
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


def _read_manifest(path: Path) -> CampaignManifest:
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise CampaignError(f"no campaign store at {path}")
    try:
        manifest_data = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt store manifest {manifest_path}: {exc}")
    return CampaignManifest.from_json_dict(manifest_data, source=manifest_path)


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
        #: Journal bytes accounted in ``_campaigns`` and their SHA-256
        #: (``None`` once an append lands anywhere but ``_parsed``):
        #: :meth:`refresh` decodes only what follows a prefix that
        #: still hashes the same.
        self._parsed = 0
        self._digest: Optional["hashlib._Hash"] = hashlib.sha256()
        #: Bumped each time :meth:`refresh` re-parses from byte 0;
        #: state derived from record offsets must rebuild when it moves.
        self.generation = 0
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
        store = cls(path, _read_manifest(path), [])
        store._decode(store._read_journal(), None)
        return store

    def _read_journal(self) -> bytes:
        path = self.journal_path
        return path.read_bytes() if path.exists() else b""

    def _decode(
        self, payload: bytes, digest: Optional["hashlib._Hash"]
    ) -> int:
        """Account the journal lines of ``payload`` past the parsed
        prefix whose SHA-256 is ``digest`` -- or, with ``None``, every
        line from byte 0; returns how many.

        A torn last line is dropped (its task reruns) and cut away by
        the next :meth:`append_campaign`.  Nothing is committed unless
        every new line passes the grid and duplicate checks.
        """
        start, known = 0, 0
        completed: Set[TaskKey] = set()
        if digest is not None:
            start, known = self._parsed, len(self._campaigns)
            completed = self._completed
        fresh: List[StoredCampaign] = []
        seen: Set[TaskKey] = set()
        end = start
        for end, data in self._log.lines(start, payload):
            campaign = StoredCampaign.from_json_dict(data)
            number = known + len(fresh) + 1
            if campaign.key not in self._expected:
                raise CampaignError(
                    f"journal line {number} records task "
                    f"{campaign.key!r}, which is not in the manifest grid"
                )
            if campaign.key in completed or campaign.key in seen:
                raise CampaignError(
                    f"journal line {number} duplicates task "
                    f"{campaign.key!r}"
                )
            seen.add(campaign.key)
            fresh.append(campaign)
        if digest is None:
            digest = hashlib.sha256()
            self._campaigns, self._completed = [], set()
        digest.update(memoryview(payload)[start:end])
        self._digest, self._parsed = digest, end
        self._campaigns.extend(fresh)
        self._completed.update(seen)
        return len(fresh)

    def refresh(self) -> int:
        """Catch up with the journal on disk; returns lines decoded.

        If the bytes parsed so far are still the file's prefix (same
        length and SHA-256), only the tail past them is decoded, under
        the same checks as :meth:`open`.  Otherwise -- the journal was
        truncated, compacted or edited -- it is re-parsed from byte 0
        and :attr:`generation` is bumped, after checking that the
        manifest on disk still pins this store's machine spec (a
        swapped store directory raises :class:`StoreError`).
        """
        payload = self._read_journal()
        parsed, digest = self._parsed, self._digest
        if (
            digest is not None
            and len(payload) >= parsed
            and hashlib.sha256(memoryview(payload)[:parsed]).digest()
            == digest.digest()
        ):
            return self._decode(payload, digest)
        held = self.manifest.spec.digest()
        on_disk = _read_manifest(self.directory).spec.digest()
        if on_disk != held:
            raise StoreError(
                f"store manifest {self.manifest_path} digests to "
                f"{on_disk}, but this open store holds {held} -- the "
                f"store directory was swapped or edited"
            )
        decoded = self._decode(payload, None)
        self.generation += 1
        return decoded

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
            start = self._log.append(line)
        written = (line + "\n").encode("utf-8")
        if self._digest is not None and start == self._parsed:
            self._digest.update(written)
            self._parsed += len(written)
        else:
            # Someone else's bytes precede ours: only a re-parse can
            # tell what this store is missing.
            self._digest = None
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
        records another process appended are accounted by
        :meth:`refresh`, which fires no observer.
        """
        self._observers.append(observer)

    # -- progress ----------------------------------------------------------

    def campaigns(self, start: int = 0) -> List[StoredCampaign]:
        """Journaled campaigns from record ``start`` on, in append order."""
        return self._campaigns[start:]

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
