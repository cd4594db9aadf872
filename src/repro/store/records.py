"""Journal payloads of the campaign store (``repro-campaign/v2``).

One journal line is one completed campaign: its raw log text plus the
provenance a resume needs to prove bit-identity -- the derived machine
seed the campaign ran with and the watchdog intervention count.  The
raw log is the measurement, as in the paper's framework: the
:class:`~repro.core.runs.RunRecord` set is *derived* from it by
:func:`~repro.core.parser.parse_records` whenever a line is decoded,
and :meth:`~repro.store.journal.CampaignStore.append_campaign` refuses
a campaign whose records differ from that derivation.  The line is
self-contained on purpose; replaying a journal never re-runs anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from ..core.campaign import CampaignResult
from ..core.parser import parse_records
from ..core.runs import RunRecord
from ..errors import CampaignError, ConfigurationError, ParseError


@dataclass(frozen=True)
class StoredCampaign:
    """One completed (benchmark, core, campaign) task, as journaled."""

    benchmark: str
    core: int
    campaign_index: int
    #: Derived machine seed the campaign executed with (see
    #: :func:`repro.parallel.tasks.derive_task_seed`); resumes verify
    #: it against a fresh derivation before trusting the line.
    seed: int
    freq_mhz: int
    #: Watchdog recoveries performed during this campaign.
    interventions: int
    #: Raw campaign log text: the journaled measurement every record
    #: and export is derived from.
    raw_log: str
    records: Tuple[RunRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise CampaignError("a stored campaign needs at least one record")
        task = (self.benchmark, self.core, self.campaign_index, self.freq_mhz)
        for record in self.records:
            found = (
                record.benchmark,
                record.setup.core,
                record.campaign_index,
                record.setup.freq_mhz,
            )
            if found != task:
                raise CampaignError(
                    f"a run of (benchmark, core, campaign, freq_mhz) "
                    f"{found!r} cannot belong to stored task {task!r}"
                )

    @property
    def key(self) -> Tuple[str, int, int]:
        """The (benchmark, core, campaign) task this line completes."""
        return (self.benchmark, self.core, self.campaign_index)

    @property
    def raw_log_key(self) -> Tuple[str, int, int, int]:
        """Key of the raw log in the framework's log mapping."""
        return (self.benchmark, self.core, self.freq_mhz, self.campaign_index)

    def campaign_result(self) -> CampaignResult:
        """Rebuild the in-memory campaign aggregate."""
        return CampaignResult(
            chip=self.records[0].chip,
            benchmark=self.benchmark,
            core=self.core,
            freq_mhz=self.freq_mhz,
            campaign_index=self.campaign_index,
            records=self.records,
        )

    # -- JSONL codec -------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-dict form of one journal line (records are derived)."""
        return {
            "benchmark": self.benchmark,
            "core": self.core,
            "campaign": self.campaign_index,
            "seed": self.seed,
            "freq_mhz": self.freq_mhz,
            "interventions": self.interventions,
            "raw_log": self.raw_log,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "StoredCampaign":
        """Inverse of :meth:`to_json_dict`: the records are re-derived
        from ``raw_log``."""
        try:
            raw_log = data["raw_log"]
            return cls(
                benchmark=data["benchmark"],
                core=int(data["core"]),
                campaign_index=int(data["campaign"]),
                seed=int(data["seed"]),
                freq_mhz=int(data["freq_mhz"]),
                interventions=int(data["interventions"]),
                raw_log=raw_log,
                records=parse_records(raw_log),
            )
        except (
            KeyError, ValueError, TypeError, ParseError, ConfigurationError
        ) as exc:
            raise CampaignError(f"malformed journal campaign line: {exc}")
