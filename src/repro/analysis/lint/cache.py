"""The incremental result cache (``.reprolint_cache.json``).

One :class:`FileAnalysis` is everything a lint run learns from one
file *in isolation*: its per-file rule findings, its suppression
table, and (for ``repro.*`` files) its
:class:`~repro.analysis.lint.project.ModuleModel` of function
summaries.  All of it is derived from the file's bytes alone, so it is
sound to key the record on the content SHA-256 and reuse it until the
file changes.

What is *not* cached -- by design -- are the interprocedural (RPR011-
RPR013) diagnostics: a new caller in file A can create a finding in an
unchanged file B (reachability and taint are properties of the whole
program), so those are recomputed from the (cached or fresh) summaries
on every run.  The global fixed point over summaries is cheap; the
per-file parsing and AST walks it feeds on are what the cache avoids.

The cache file carries a fingerprint over the schema version and the
registered rule inventory: adding, removing or renaming a rule
invalidates everything.  Writes go through
:func:`~repro.store.durable.atomic_write`, so an interrupted run never
leaves a torn cache, and any unreadable or mismatched cache is
silently treated as empty -- the cache is an optimization, never a
source of truth.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...store.durable import atomic_write
from .diagnostics import Diagnostic
from .project import ModuleModel
from .registry import Rule
from .suppressions import SuppressionEntry

#: Bump when the cached record shape changes.
CACHE_SCHEMA = 1


def content_sha(source: str) -> str:
    """The cache key of one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rule_fingerprint(rules: Sequence[Rule]) -> str:
    """Fingerprint of the rule inventory a cache was built with."""
    payload = json.dumps(
        [CACHE_SCHEMA] + sorted(r.rule_id for r in rules)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class FileAnalysis:
    """The cacheable result of analyzing one file in isolation."""

    path: str
    sha: str
    module: Optional[str] = None
    #: Per-file rule findings, *before* suppression filtering (the
    #: assembly step applies suppressions so it can track which
    #: entries earned their keep).
    findings: List[Diagnostic] = field(default_factory=list)
    supp_entries: List[SuppressionEntry] = field(default_factory=list)
    supp_problems: List[Diagnostic] = field(default_factory=list)
    model: Optional[ModuleModel] = None

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "sha": self.sha,
            "module": self.module,
            "findings": [d.to_json_dict() for d in self.findings],
            "supp_entries": [e.to_json_dict() for e in self.supp_entries],
            "supp_problems": [d.to_json_dict() for d in self.supp_problems],
            "model": self.model.to_json_dict() if self.model else None,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "FileAnalysis":
        return cls(
            path=payload["path"],
            sha=payload["sha"],
            module=payload["module"],
            findings=[
                Diagnostic.from_json_dict(d) for d in payload["findings"]
            ],
            supp_entries=[
                SuppressionEntry.from_json_dict(e)
                for e in payload["supp_entries"]
            ],
            supp_problems=[
                Diagnostic.from_json_dict(d) for d in payload["supp_problems"]
            ],
            model=(
                ModuleModel.from_json_dict(payload["model"])
                if payload["model"] else None
            ),
        )


def load_cache(
    path: Path, fingerprint: str
) -> Tuple[Dict[str, FileAnalysis], bool]:
    """(cached entries by path label, cache-was-usable).

    Any unreadable, unparsable or fingerprint-mismatched cache loads
    as empty: the next run rebuilds and overwrites it.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return {}, False
    if not isinstance(payload, dict) or \
            payload.get("schema") != CACHE_SCHEMA or \
            payload.get("fingerprint") != fingerprint:
        return {}, False
    entries: Dict[str, FileAnalysis] = {}
    try:
        for key, entry in payload.get("files", {}).items():
            entries[key] = FileAnalysis.from_json_dict(entry)
    except (KeyError, TypeError, IndexError, AttributeError):
        return {}, False
    return entries, True


def save_cache(
    path: Path, fingerprint: str, entries: Dict[str, FileAnalysis]
) -> None:
    """Atomically persist the cache; failures are non-fatal silence."""
    payload = {
        "schema": CACHE_SCHEMA,
        "fingerprint": fingerprint,
        "files": {
            key: entry.to_json_dict()
            for key, entry in sorted(entries.items())
        },
    }
    with contextlib.suppress(OSError):
        atomic_write(path, json.dumps(payload, separators=(",", ":")))
