"""The fleet store (``repro-fleet/v1``): one journal shard per machine.

The paper frames Vmin characterization as something a datacenter
operator runs *continuously across many machines* (Section 5); a fleet
store is the on-disk shape of that: a directory owning one
``repro-campaign/v2`` :class:`~repro.store.journal.CampaignStore`
shard per :class:`~repro.machines.MachineSpec`, under an atomically
written fleet manifest (``fleet.json``)::

    fleet-root/
      fleet.json                    <- format tag, grid, shard table
      shards/
        m00-5a3f2b1c/               <- one full repro-campaign/v2 store
          manifest.json
          journal.jsonl
        m01-9e0d4c77/
          ...

``fleet.json`` records, per shard: the machine-spec digest (the
routing key for writes), the shard path, and a completion watermark
(journaled tasks out of the grid total).  Watermarks are *derived*
state -- :meth:`FleetStore.refresh_watermarks` recomputes them from
the shard journals on disk (each cached shard store catches up through
:meth:`CampaignStore.refresh`) and rewrites the manifest through
:func:`~repro.store.durable.atomic_write`, so concurrent appenders in
different processes converge on the same manifest without any
cross-shard locking: each shard journal has exactly one writer, and
the manifest is last-writer-wins over facts read from disk.

Shards stay bit-identical to standalone single-machine stores: the
fleet layer adds routing, aggregation and compaction *around*
:class:`CampaignStore`, never a different write path through it.
Compaction (:meth:`FleetStore.compact`) folds healed, complete shards
into canonical grid-order journal segments -- a pure permutation of
byte-identical lines, refused while versioned model artifacts hold
live mid-journal cursors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.framework import FrameworkConfig
from ..core.severity import DEFAULT_WEIGHTS, SeverityWeights
from ..errors import StoreError
from ..machines import MachineSpec
from .durable import atomic_write
from .index import StoreIndexes
from .journal import CampaignStore, TaskKey
from .records import StoredCampaign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .models import ModelStore

#: Format tag of the fleet schema, written into every fleet manifest.
FLEET_FORMAT = "repro-fleet/v1"
FLEET_MANIFEST_NAME = "fleet.json"
#: Subdirectory of the fleet root holding the per-machine shards.
SHARDS_DIR = "shards"


@dataclasses.dataclass(frozen=True)
class ShardEntry:
    """One machine's row in the fleet manifest shard table."""

    #: Stable shard name, also its directory name under ``shards/``.
    name: str
    #: Digest of the shard's :class:`MachineSpec` -- the routing key.
    spec_digest: str
    #: Shard directory, relative to the fleet root.
    path: str
    #: Journaled tasks (completion watermark), out of :attr:`total`.
    watermark: int
    #: Grid size of the shard (``len(expected_keys())``).
    total: int
    #: True once :meth:`FleetStore.compact` rewrote the shard journal
    #: into canonical grid order.
    compacted: bool = False

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec_digest": self.spec_digest,
            "path": self.path,
            "watermark": self.watermark,
            "total": self.total,
            "compacted": self.compacted,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ShardEntry":
        return cls(
            name=str(data["name"]),
            spec_digest=str(data["spec_digest"]),
            path=str(data["path"]),
            watermark=int(data["watermark"]),
            total=int(data["total"]),
            compacted=bool(data.get("compacted", False)),
        )


@dataclasses.dataclass(frozen=True)
class FleetManifest:
    """Everything that defines a fleet, JSON-round-trippable.

    The grid definition (config, workloads, cores, weights) is shared
    by every shard; only the machine spec varies per shard.  Shard
    manifests re-state the grid independently, so a shard remains a
    valid standalone store even if the fleet manifest is lost.
    """

    config: FrameworkConfig
    workloads: Tuple[str, ...]
    cores: Tuple[int, ...]
    shards: Tuple[ShardEntry, ...]
    weights: SeverityWeights = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not self.shards:
            raise StoreError("a fleet manifest needs at least one shard")
        digests = [shard.spec_digest for shard in self.shards]
        if len(set(digests)) != len(digests):
            raise StoreError(
                "fleet shards must have distinct machine-spec digests; "
                "duplicate specs would make write routing ambiguous"
            )

    def entry_for(self, digest: str) -> ShardEntry:
        for shard in self.shards:
            if shard.spec_digest == digest:
                return shard
        raise StoreError(
            f"no fleet shard routes machine-spec digest {digest}; known "
            f"shards: {[s.name for s in self.shards]}"
        )

    def entry_named(self, name: str) -> ShardEntry:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise StoreError(
            f"no fleet shard named {name!r}; known shards: "
            f"{[s.name for s in self.shards]}"
        )

    def tasks_total(self) -> int:
        return sum(shard.total for shard in self.shards)

    def tasks_done(self) -> int:
        return sum(shard.watermark for shard in self.shards)

    # -- JSON round-trip ---------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": FLEET_FORMAT,
            "config": dataclasses.asdict(self.config),
            "workloads": list(self.workloads),
            "cores": list(self.cores),
            "severity_weights": dataclasses.asdict(self.weights),
            "shards": [shard.to_json_dict() for shard in self.shards],
        }

    @classmethod
    def from_json_dict(
        cls,
        data: Mapping[str, Any],
        source: Optional[Union[str, Path]] = None,
    ) -> "FleetManifest":
        where = "" if source is None else f" at {source}"
        fmt = data.get("format")
        if fmt != FLEET_FORMAT:
            raise StoreError(
                f"unsupported fleet-store format {fmt!r}{where} "
                f"(expected {FLEET_FORMAT!r})"
            )
        try:
            return cls(
                config=FrameworkConfig(**dict(data["config"])),
                workloads=tuple(str(name) for name in data["workloads"]),
                cores=tuple(int(core) for core in data["cores"]),
                weights=SeverityWeights(**dict(data["severity_weights"])),
                shards=tuple(
                    ShardEntry.from_json_dict(entry)
                    for entry in data["shards"]
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise StoreError(f"malformed fleet manifest{where}: {exc}")


class FleetStore:
    """A directory of per-machine campaign shards under one manifest.

    Construct through :meth:`create` or :meth:`open`.  Shard stores
    open lazily and are cached per fleet-store object; every shard is
    a full, standalone :class:`CampaignStore`.  The fleet's readers
    share that one cached store per shard and bring it up to date with
    :meth:`CampaignStore.refresh`, so each journal line is parsed once
    per fleet object.
    """

    def __init__(self, directory: Path, manifest: FleetManifest) -> None:
        self.directory = directory
        self.manifest = manifest
        self._stores: Dict[str, CampaignStore] = {}
        self._indexes: Dict[str, "FleetIndexes"] = {}

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / FLEET_MANIFEST_NAME

    def shard_path(self, entry: ShardEntry) -> Path:
        return self.directory / entry.path

    def tsdb_path(self, entry: ShardEntry) -> Path:
        """Where ``--tsdb`` sampling lands for this shard (may not exist)."""
        from ..telemetry.tsdb import TSDB_NAME

        return self.shard_path(entry) / TSDB_NAME

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        specs: Sequence[MachineSpec],
        config: FrameworkConfig,
        workloads: Sequence[str],
        cores: Sequence[int],
        weights: SeverityWeights = DEFAULT_WEIGHTS,
    ) -> "FleetStore":
        """Create a fleet: one fresh shard per spec + atomic manifest.

        Shards are created *before* the fleet manifest, so a crash
        mid-create leaves either no fleet (no ``fleet.json``) or a
        complete one -- orphan shard directories without a manifest are
        not a fleet and :meth:`open` will not see them.
        """
        path = Path(directory)
        if (path / FLEET_MANIFEST_NAME).exists():
            raise StoreError(
                f"fleet store already exists at {path}; open it with "
                f"FleetStore.open instead of recreating"
            )
        if not specs:
            raise StoreError("a fleet needs at least one machine spec")
        entries: List[ShardEntry] = []
        seen: Dict[str, MachineSpec] = {}
        for position, spec in enumerate(specs):
            digest = spec.digest()
            if digest in seen:
                raise StoreError(
                    f"machine spec #{position} duplicates digest {digest}; "
                    f"every fleet shard needs a distinct spec"
                )
            seen[digest] = spec
            name = f"m{position:02d}-{digest[:8]}"
            shard_dir = Path(SHARDS_DIR) / name
            store = CampaignStore.create(
                path / shard_dir, spec, config, workloads, cores, weights
            )
            entries.append(
                ShardEntry(
                    name=name,
                    spec_digest=digest,
                    path=str(shard_dir),
                    watermark=0,
                    total=len(store.expected_keys()),
                )
            )
        manifest = FleetManifest(
            config=config,
            workloads=tuple(workloads),
            cores=tuple(cores),
            weights=weights,
            shards=tuple(entries),
        )
        fleet = cls(path, manifest)
        fleet._write_manifest()
        return fleet

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "FleetStore":
        """Open an existing fleet; shard journals load lazily."""
        path = Path(directory)
        manifest_path = path / FLEET_MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no fleet store at {path}")
        try:
            data = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt fleet manifest {manifest_path}: {exc}")
        manifest = FleetManifest.from_json_dict(data, source=manifest_path)
        return cls(path, manifest)

    def _write_manifest(self) -> None:
        """Atomic rewrite: readers see old or new ``fleet.json``, never
        a torn one."""
        payload = json.dumps(
            self.manifest.to_json_dict(), indent=2, sort_keys=True
        )
        atomic_write(self.manifest_path, payload + "\n")

    # -- shard routing -----------------------------------------------------

    def open_shard(self, entry: ShardEntry) -> CampaignStore:
        """A fresh, uncached full parse of the shard behind an entry.

        The shard's own manifest must agree with the fleet entry on the
        machine-spec digest; a mismatch means the shard directory was
        swapped or edited underneath the fleet.
        """
        store = CampaignStore.open(self.shard_path(entry))
        actual = store.manifest.spec.digest()
        if actual != entry.spec_digest:
            raise StoreError(
                f"fleet manifest routes digest {entry.spec_digest} to shard "
                f"{self.shard_path(entry)}, but that shard's manifest "
                f"digests to {actual} -- the shard was swapped or edited"
            )
        return store

    def shard(self, entry: ShardEntry) -> CampaignStore:
        """The cached shard store behind a manifest entry (opened and
        digest-checked by :meth:`open_shard` on first use)."""
        cached = self._stores.get(entry.spec_digest)
        if cached is None:
            cached = self._stores[entry.spec_digest] = self.open_shard(entry)
        return cached

    def refreshed_shard(self, entry: ShardEntry) -> CampaignStore:
        """:meth:`shard`, caught up with its journal on disk."""
        store = self.shard(entry)
        store.refresh()
        return store

    def shard_for(self, spec: MachineSpec) -> CampaignStore:
        """Route a machine spec to its shard store (the write path)."""
        return self.shard(self.manifest.entry_for(spec.digest()))

    def shard_named(self, name: str) -> CampaignStore:
        return self.shard(self.manifest.entry_named(name))

    def shards(self) -> List[Tuple[ShardEntry, CampaignStore]]:
        """Every (entry, open store) pair, in manifest order, each store
        caught up with its journal on disk (:meth:`refreshed_shard`)."""
        return [
            (entry, self.refreshed_shard(entry))
            for entry in self.manifest.shards
        ]

    # -- progress ----------------------------------------------------------

    def refresh_watermarks(self) -> FleetManifest:
        """Re-derive every watermark from disk and rewrite the manifest.

        Watermarks are facts about the shard journals, not independent
        state: each cached shard store catches up with its journal file
        (:meth:`CampaignStore.refresh`: a verified tail, or a full
        re-parse if the file no longer extends what was parsed), so
        concurrent refreshers all write manifests that agree with disk;
        each goes through its own
        :func:`~repro.store.durable.atomic_write` temp file, so the
        last writer wins with a complete ``fleet.json``.
        """
        entries: List[ShardEntry] = []
        for entry in self.manifest.shards:
            fresh = self.refreshed_shard(entry)
            entries.append(
                dataclasses.replace(
                    entry, watermark=len(fresh.completed_keys())
                )
            )
        self.manifest = dataclasses.replace(
            self.manifest, shards=tuple(entries)
        )
        self._write_manifest()
        return self.manifest

    def is_complete(self) -> bool:
        """Whether every shard journal on disk holds its whole grid
        (the manifest's watermarks may be stale)."""
        return all(store.is_complete() for _, store in self.shards())

    def pending_tasks(self) -> Dict[str, List[TaskKey]]:
        """Per shard name, the grid tasks not yet journaled on disk."""
        return {
            entry.name: self.refreshed_shard(entry).pending_keys()
            for entry in self.manifest.shards
        }

    # -- warm indexes ------------------------------------------------------

    def indexes(self, feature_target: str = "vmin") -> "FleetIndexes":
        """Warm query indexes over every shard, in manifest order.

        One :class:`FleetIndexes` per target lives with this fleet
        object; later calls refresh it instead of building another.
        """
        cached = self._indexes.get(feature_target)
        if cached is None:
            cached = self._indexes[feature_target] = FleetIndexes(
                self, feature_target=feature_target
            )
        else:
            cached.refresh()
        return cached

    # -- model artifacts ---------------------------------------------------

    def fleet_digest(self) -> str:
        """Content digest of the fleet's machine population.

        Hashes the shard spec digests in manifest order; fleet-trained
        model artifacts pin this the way single-store artifacts pin one
        machine-spec digest, so a model trained on one fleet cannot be
        silently served against another.
        """
        digest = hashlib.sha256()
        for entry in self.manifest.shards:
            digest.update(entry.spec_digest.encode("ascii"))
            digest.update(b"\n")
        return "fleet:" + digest.hexdigest()[:16]

    def model_store(self) -> "ModelStore":
        """The fleet-level model-artifact store (``models/`` at the
        fleet root), bound to :meth:`fleet_digest`."""
        from .models import ModelStore

        return ModelStore(
            self.directory, expected_spec_digest=self.fleet_digest()
        )

    # -- compaction --------------------------------------------------------

    def compact(self, force: bool = False) -> List[str]:
        """Fold complete shards into canonical grid-order segments.

        Journal lines re-serialize byte-identically (``json.dumps(...,
        sort_keys=True)``), so compaction is a pure permutation of the
        existing line bytes into manifest grid order -- every read-path
        answer (results, indexes, exports) is append-order invariant
        and therefore unchanged; a compacted shard re-opens as if the
        grid had run serially.

        Invariants:

        * Only *complete* shards compact; partial journals keep their
          append order so a resuming engine's view is untouched.
        * A versioned model artifact holding a live mid-journal cursor
          (``0 < journal_offset < grid total``) blocks compaction --
          reordering would silently re-train that cursor on wrong
          records -- unless ``force=True`` discards the concern.
        * The rewrite is a :func:`~repro.store.durable.atomic_write`: a
          crash leaves the old or the new journal, never a mix.  The
          cached shard store then re-parses the canonical order (its
          ``generation`` moves, so warm indexes rebuild).

        Returns the names of the shards that were rewritten.
        """
        compacted: List[str] = []
        entries: List[ShardEntry] = []
        for entry in self.manifest.shards:
            store = self.refreshed_shard(entry)
            watermark = len(store.completed_keys())
            entry = dataclasses.replace(entry, watermark=watermark)
            if entry.compacted or not store.is_complete():
                entries.append(entry)
                continue
            self._check_cursors(entry, store, force)
            by_key: Dict[TaskKey, StoredCampaign] = {
                stored.key: stored for stored in store.campaigns()
            }
            lines = [
                json.dumps(by_key[key].to_json_dict(), sort_keys=True)
                for key in store.expected_keys()
            ]
            atomic_write(store.journal_path, "\n".join(lines) + "\n")
            store.refresh()
            entry = dataclasses.replace(entry, compacted=True)
            compacted.append(entry.name)
            entries.append(entry)
        self.manifest = dataclasses.replace(
            self.manifest, shards=tuple(entries)
        )
        self._write_manifest()
        return compacted

    def _check_cursors(
        self, entry: ShardEntry, store: CampaignStore, force: bool
    ) -> None:
        total = len(store.expected_keys())
        for artifact in store.model_store().latest_artifacts():
            if 0 < artifact.journal_offset < total and not force:
                raise StoreError(
                    f"shard {entry.name} has model artifact "
                    f"{artifact.target}/core{artifact.core} v"
                    f"{artifact.version} with live journal cursor at "
                    f"offset {artifact.journal_offset} of {total}; "
                    f"compacting would reorder records under it -- "
                    f"finish training or pass force=True"
                )

    # -- derived exports ---------------------------------------------------

    def export_csv(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Dict[str, Dict[str, Path]]:
        """Per-shard Section-2.2 CSV artifacts, keyed by shard name.

        Each shard exports exactly what its standalone
        :meth:`CampaignStore.export_csv` would -- fleet aggregation
        never invents a new serialization of run data -- from its
        journal as it is on disk now, appends by other processes
        included.
        """
        base = self.directory if directory is None else Path(directory)
        exports: Dict[str, Dict[str, Path]] = {}
        for entry in self.manifest.shards:
            exports[entry.name] = self.refreshed_shard(entry).export_csv(
                Path(base) / entry.name
            )
        return exports


class FleetIndexes:
    """Warm :class:`StoreIndexes` bundles for every fleet shard.

    One bundle per shard, attached to the fleet's cached shard store
    (manifest order); :meth:`refresh` catches each store up with its
    journal on disk and folds the new records into the bundle, which
    rebuilds only when the store had to re-parse from byte 0.
    ``serialize()`` is canonical and shard-ordered, so warm-vs-reparse
    equivalence is a byte comparison fleet-wide.
    """

    def __init__(self, fleet: FleetStore, feature_target: str = "vmin") -> None:
        self.fleet = fleet
        self.feature_target = feature_target
        self._bundles: Dict[str, StoreIndexes] = {}
        self.refresh()

    def refresh(self) -> None:
        """Bring every shard bundle up to the journal on disk."""
        for entry in self.fleet.manifest.shards:
            store = self.fleet.refreshed_shard(entry)
            bundle = self._bundles.get(entry.spec_digest)
            if bundle is None:
                self._bundles[entry.spec_digest] = StoreIndexes(
                    store, feature_target=self.feature_target
                )
            else:
                bundle.refresh()

    def bundle(self, shard: Union[str, ShardEntry]) -> StoreIndexes:
        """The index bundle of one shard, by name or entry."""
        entry = (
            shard
            if isinstance(shard, ShardEntry)
            else self.fleet.manifest.entry_named(shard)
        )
        return self._bundles[entry.spec_digest]

    def bundles(self) -> List[Tuple[ShardEntry, StoreIndexes]]:
        return [
            (entry, self._bundles[entry.spec_digest])
            for entry in self.fleet.manifest.shards
        ]

    def serialize(self) -> str:
        """Canonical byte form of every answer across the fleet."""
        parts: List[str] = []
        for entry, bundle in self.bundles():
            parts.append(f"# shard {entry.name} spec {entry.spec_digest}\n")
            parts.append(bundle.serialize())
        return "".join(parts)

    def serialize_reparse(self) -> str:
        """The same bytes recomputed through a full journal re-parse.

        Every shard is opened afresh (:meth:`FleetStore.open_shard`),
        never through the cached stores the warm bundles share.  Must
        equal :meth:`serialize` on every fleet -- the
        index-equals-reparse contract, fleet-wide.
        """
        from .index import reparse_serialization

        parts: List[str] = []
        for entry in self.fleet.manifest.shards:
            store = self.fleet.open_shard(entry)
            parts.append(f"# shard {entry.name} spec {entry.spec_digest}\n")
            parts.append(
                reparse_serialization(store, self.feature_target)
            )
        return "".join(parts)


__all__ = [
    "FLEET_FORMAT",
    "FLEET_MANIFEST_NAME",
    "SHARDS_DIR",
    "FleetIndexes",
    "FleetManifest",
    "FleetStore",
    "ShardEntry",
]
