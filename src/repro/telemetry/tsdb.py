"""The metrics time-series journal (``repro-tsdb/v1``).

A tsdb file is an append-only JSONL journal of whole-registry
snapshots: one line per sample, written with flush+fsync by
:class:`TsdbWriter` into the campaign-store (or fleet-shard) directory
it describes.  It is the durable record of *how the run moved* --
watchdog pressure, fsync latency, throughput, model drift over time --
that ``repro dash`` and the health rules read without ever touching
the campaign journal.

The file is a :class:`~repro.store.durable.AppendLog`: a crash can
tear at most the trailing line, loading tolerates (and the next append
heals) that one scar, and corruption anywhere else raises.

The read side is :class:`TsdbCursor`, a warm incremental reader with
the same contract as the store's query indexes: its serialized state
after any sequence of :meth:`~TsdbCursor.advance` calls is byte-equal
to a cursor built by re-parsing the file from scratch, at every kill
point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .clock import MONOTONIC_CLOCK, Clock
from .metrics import M_TSDB_SNAPSHOTS, MetricsRegistry

TSDB_FORMAT = "repro-tsdb/v1"
TSDB_CURSOR_FORMAT = "repro-tsdb-cursor/v1"

#: File name of the snapshot journal inside a store/shard directory.
TSDB_NAME = "tsdb.jsonl"


def _canonical(payload: Dict[str, Any]) -> str:
    """The one serialization every tsdb artifact uses (byte-comparable)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TsdbWriter:
    """Append-only, fsynced snapshot journal for one directory.

    Opening an existing file resumes its sequence numbering; as an
    :class:`~repro.store.durable.AppendLog` it skips a torn trailing
    line on open and truncates it away on the next append.
    """

    def __init__(self, path: Union[str, Path], shard: Optional[str] = None) -> None:
        self.path = Path(path)
        self.shard = shard if shard is not None else self.path.parent.name
        self._next_seq = 1
        from ..store.durable import AppendLog

        self._log = AppendLog(self.path, "tsdb")
        if self.path.exists():
            for _end, data in self._log.lines():
                if not isinstance(data, dict) or data.get("format") != TSDB_FORMAT:
                    raise ValueError(f"{self.path}: not a {TSDB_FORMAT} snapshot")
                self._next_seq = int(data["seq"]) + 1

    def append(self, registry: MetricsRegistry, t_s: float) -> int:
        """Snapshot ``registry`` and append it durably; returns the seq.

        The snapshot-counter metric is bumped *before* snapshotting, so
        snapshot N reports ``repro_tsdb_snapshots_total == N`` -- the
        journal is self-describing about its own sampling.
        """
        registry.counter(M_TSDB_SNAPSHOTS).inc()
        snapshot = registry.snapshot()
        record = {
            "format": TSDB_FORMAT,
            "seq": self._next_seq,
            "t_s": float(t_s),
            "shard": self.shard,
            "metrics": snapshot["metrics"],
        }
        self._log.append(json.dumps(record, sort_keys=True))
        seq = self._next_seq
        self._next_seq += 1
        return seq


class TsdbSampler:
    """Opt-in hook the engine calls after durable checkpoints.

    One sampler serves a whole session; it lazily opens (and caches)
    one :class:`TsdbWriter` per store directory it is asked to sample
    into, so a fleet run lands one tsdb journal per shard.
    """

    def __init__(self, clock: Clock = MONOTONIC_CLOCK) -> None:
        self.clock = clock
        self._writers: Dict[str, TsdbWriter] = {}

    def writer_for(self, directory: Union[str, Path]) -> TsdbWriter:
        target = Path(directory)
        key = str(target)
        writer = self._writers.get(key)
        if writer is None:
            writer = TsdbWriter(target / TSDB_NAME, shard=target.name)
            self._writers[key] = writer
        return writer

    def sample(
        self,
        registry: MetricsRegistry,
        directory: Union[str, Path],
        t_s: Optional[float] = None,
    ) -> int:
        """Append one snapshot of ``registry`` to ``directory``'s tsdb."""
        return self.writer_for(directory).append(
            registry, self.clock() if t_s is None else t_s
        )


# -- read side --------------------------------------------------------------


def _series_key(name: str, labels: Dict[str, str]) -> str:
    """Stable per-child key: metric name + canonical label rendering."""
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}" if rendered else name


class TsdbCursor:
    """Warm incremental reader over one tsdb journal.

    The cursor's state is a pure function of the complete-line prefix
    it has consumed: :meth:`advance` only consumes newline-terminated,
    parseable lines, so a torn tail is simply "not consumed yet" --
    the exact set of snapshots a from-scratch re-parse would see.
    :meth:`serialize` is therefore byte-equal to
    ``TsdbCursor.from_reparse(path).serialize()`` at every kill point,
    the same contract the store's query indexes carry.
    """

    def __init__(self) -> None:
        self.consumed_bytes = 0
        self.snapshots = 0
        self.last_seq = 0
        self.first_t_s: Optional[float] = None
        self.last_t_s: Optional[float] = None
        self.shard: Optional[str] = None
        #: series key -> running aggregate (see :meth:`_fold_metric`).
        self.series: Dict[str, Dict[str, Any]] = {}

    @classmethod
    def from_reparse(cls, path: Union[str, Path]) -> "TsdbCursor":
        """A fresh cursor advanced over the whole file in one pass."""
        cursor = cls()
        cursor.advance(path)
        return cursor

    # -- consumption --------------------------------------------------

    def advance(self, path: Union[str, Path]) -> int:
        """Consume snapshots appended since the last call.

        Returns the number of new snapshots folded in.  Missing file
        means "nothing yet", never an error -- the sampler is opt-in.
        """
        target = Path(path)
        if not target.exists():
            return 0
        size = target.stat().st_size
        if size < self.consumed_bytes:
            raise ValueError(
                f"tsdb {target} shrank below the cursor's consumed "
                f"prefix ({size} < {self.consumed_bytes} bytes); "
                f"the file was rewritten, not appended to"
            )
        from ..store.durable import AppendLog

        consumed = 0
        for end, data in AppendLog(target, "tsdb").lines(self.consumed_bytes):
            self._fold_snapshot(data, target)
            self.consumed_bytes = end
            consumed += 1
        return consumed

    def _fold_snapshot(self, data: Any, source: Path) -> None:
        if not isinstance(data, dict) or data.get("format") != TSDB_FORMAT:
            raise ValueError(f"{source}: not a {TSDB_FORMAT} snapshot line")
        seq = int(data["seq"])
        if seq <= self.last_seq:
            raise ValueError(
                f"{source}: snapshot seq {seq} is not monotonic "
                f"(cursor already at {self.last_seq})"
            )
        t_s = float(data["t_s"])
        self.last_seq = seq
        self.last_t_s = t_s
        if self.first_t_s is None:
            self.first_t_s = t_s
        if self.shard is None:
            self.shard = str(data.get("shard"))
        self.snapshots += 1
        for metric in data.get("metrics", []):
            self._fold_metric(metric)

    def _fold_metric(self, metric: Dict[str, Any]) -> None:
        name = str(metric["name"])
        kind = str(metric["kind"])
        for sample in metric.get("samples", []):
            labels = {str(k): str(v) for k, v in sample.get("labels", {}).items()}
            key = _series_key(name, labels)
            entry = self.series.get(key)
            if entry is None:
                entry = {
                    "name": name,
                    "kind": kind,
                    "labels": labels,
                    "points": 0,
                }
                self.series[key] = entry
            entry["points"] = int(entry["points"]) + 1
            if kind == "histogram":
                entry["sum"] = float(sample["sum"])
                entry["count"] = int(sample["count"])
                entry["buckets"] = [
                    [le, int(n)] for le, n in sample["buckets"]
                ]
                entry.setdefault("first_sum", float(sample["sum"]))
                entry.setdefault("first_count", int(sample["count"]))
            else:
                value = float(sample["value"])
                entry["last"] = value
                entry.setdefault("first", value)
                entry["min"] = min(float(entry.get("min", value)), value)
                entry["max"] = max(float(entry.get("max", value)), value)

    # -- queries ------------------------------------------------------

    def samples(self, name: str) -> List[Dict[str, Any]]:
        """Aggregates of every label child of ``name``, key order."""
        return [
            self.series[key]
            for key in sorted(self.series)
            if self.series[key]["name"] == name
        ]

    def last_total(self, name: str) -> Optional[float]:
        """Sum of the latest value across ``name``'s label children.

        For histograms this is the latest ``sum``; ``None`` when the
        journal has never reported the metric.
        """
        entries = self.samples(name)
        if not entries:
            return None
        total = 0.0
        for entry in entries:
            if entry["kind"] == "histogram":
                total += float(entry["sum"])
            else:
                total += float(entry["last"])
        return total

    def histogram_totals(self, name: str) -> Optional[Tuple[float, int, List[Tuple[float, int]]]]:
        """Latest (sum, count, cumulative buckets) merged over children."""
        entries = [e for e in self.samples(name) if e["kind"] == "histogram"]
        if not entries:
            return None
        total_sum = 0.0
        total_count = 0
        merged: Dict[float, int] = {}
        for entry in entries:
            total_sum += float(entry["sum"])
            total_count += int(entry["count"])
            for le, n in entry["buckets"]:
                bound = float("inf") if le == "+Inf" else float(le)
                merged[bound] = merged.get(bound, 0) + int(n)
        buckets = sorted(merged.items())
        return total_sum, total_count, buckets

    def quantile(self, name: str, q: float) -> Optional[float]:
        """Upper-bound quantile estimate from the latest bucket layout.

        Returns the smallest bucket boundary covering the ``q``
        fraction of observations (conservative, like Prometheus'
        ``histogram_quantile`` without interpolation); ``None`` when no
        observations exist.
        """
        totals = self.histogram_totals(name)
        if totals is None:
            return None
        _total_sum, count, buckets = totals
        if count == 0:
            return None
        rank = q * count
        finite = [b for b in buckets if b[0] != float("inf")]
        for bound, cumulative in finite:
            if cumulative >= rank:
                return bound
        return finite[-1][0] if finite else None

    def mean(self, name: str) -> Optional[float]:
        """Latest mean of a histogram metric (sum/count)."""
        totals = self.histogram_totals(name)
        if totals is None or totals[1] == 0:
            return None
        return totals[0] / totals[1]

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": TSDB_CURSOR_FORMAT,
            "consumed_bytes": self.consumed_bytes,
            "snapshots": self.snapshots,
            "last_seq": self.last_seq,
            "first_t_s": self.first_t_s,
            "last_t_s": self.last_t_s,
            "shard": self.shard,
            "series": self.series,
        }

    def serialize(self) -> str:
        """Canonical byte-comparable cursor state."""
        return _canonical(self.to_json_dict())


__all__ = [
    "TSDB_CURSOR_FORMAT",
    "TSDB_FORMAT",
    "TSDB_NAME",
    "TsdbCursor",
    "TsdbSampler",
    "TsdbWriter",
]
