"""``repro migrate``: rewrite ``repro-campaign/v1`` stores as v2.

A v1 journal line carried each campaign twice: the raw log and the
same runs again as JSON ``records``.  A v2 line keeps the raw log only
and re-derives the records from it (:mod:`repro.store.records`).
:func:`migrate_store` is the one reader of v1 stores.  Per line it
proves that the records derived from the raw log equal the stored v1
``records``, then writes the v2 journal and, after it, the v2
manifest, each through :func:`~repro.store.durable.atomic_write`.

Lines keep their count and order, so saved trainer cursors and fleet
compaction stay valid.  Lines that already lack ``records`` are
accepted as they are, so a rerun after a crash between the two writes
finishes the job, and a rerun on a migrated store changes nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from ..core.runs import RunRecord
from ..errors import CampaignError, StoreError
from .durable import AppendLog, atomic_write
from .fleet import FLEET_MANIFEST_NAME, FleetManifest
from .journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    STORE_FORMAT,
    V1_STORE_FORMAT,
    CampaignManifest,
    CampaignStore,
)
from .records import StoredCampaign


def migrate_store(path: Union[str, Path]) -> List[Path]:
    """Rewrite the campaign store at ``path`` -- or every shard of the
    fleet store there -- as ``repro-campaign/v2``.

    Returns the store directories whose files changed (empty when
    everything already was v2).  Raises :class:`StoreError` if a line's
    raw log does not re-derive its stored records; nothing of that
    store is rewritten then.
    """
    root = Path(path)
    fleet_manifest = root / FLEET_MANIFEST_NAME
    if not fleet_manifest.exists():
        return [root] if _migrate_campaign_store(root) else []
    try:
        data = json.loads(fleet_manifest.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt fleet manifest {fleet_manifest}: {exc}")
    fleet = FleetManifest.from_json_dict(data, source=fleet_manifest)
    return [
        root / entry.path
        for entry in fleet.shards
        if _migrate_campaign_store(root / entry.path)
    ]


def _migrate_campaign_store(directory: Path) -> bool:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CampaignError(f"no campaign store at {directory}")
    try:
        data = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt store manifest {manifest_path}: {exc}")
    if data.get("format") not in (V1_STORE_FORMAT, STORE_FORMAT):
        raise StoreError(
            f"cannot migrate campaign-store format {data.get('format')!r} "
            f"at {manifest_path}"
        )
    manifest = CampaignManifest.from_json_dict(
        dict(data, format=STORE_FORMAT), source=manifest_path
    )

    journal_path = directory / JOURNAL_NAME
    old = journal_path.read_bytes() if journal_path.exists() else b""
    lines: List[str] = []
    for number, (_end, line) in enumerate(
        AppendLog(journal_path, "journal").lines(0, old), start=1
    ):
        try:
            stored = StoredCampaign.from_json_dict(line)
            v1_records = line.get("records")
            if v1_records is not None and tuple(
                RunRecord.from_json_dict(entry) for entry in v1_records
            ) != stored.records:
                raise StoreError(
                    "the records derived from its raw log differ from "
                    "its stored records"
                )
        except CampaignError as exc:
            raise StoreError(
                f"cannot migrate {journal_path} line {number}: {exc}"
            ) from exc
        lines.append(json.dumps(stored.to_json_dict(), sort_keys=True))
    new = "".join(line + "\n" for line in lines)
    # The grid and duplicate checks of an open, before anything moves.
    CampaignStore(directory, manifest, [])._decode(new.encode("utf-8"), None)

    changed = False
    if new.encode("utf-8") != old:
        atomic_write(journal_path, new)
        changed = True
    if data["format"] != STORE_FORMAT:
        payload = json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True)
        atomic_write(manifest_path, payload + "\n")
        changed = True
    return changed


__all__ = ["migrate_store"]
