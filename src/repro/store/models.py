"""Versioned model artifacts of the campaign store (``repro-model/v1``).

A model artifact freezes one fitted prediction model -- the RFE
feature selection, original-space coefficients, the journal offset of
the training cursor, a digest of the exact training samples and the
drift metrics at save time -- plus the full streaming-trainer state,
so a later ``repro train`` resumes from the artifact without replaying
consumed journal records.

Artifacts live under ``<store>/models/`` next to the journal, one JSON
file per (target, core, version), written with
:func:`~repro.store.durable.atomic_write`: a crash leaves either the
previous version set or the new one, never a torn file.
Versions are monotonically assigned by :meth:`ModelStore.save`; older
versions are never rewritten.  This module is the *only* sanctioned
serialization path for fitted-model state (reprolint RPR010).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import CampaignError
from .durable import atomic_write

#: Format tag of the model-artifact schema.
MODEL_FORMAT = "repro-model/v1"
#: Subdirectory of a campaign store holding model artifacts.
MODELS_DIR = "models"

_ARTIFACT_RE = re.compile(r"^(?P<target>[a-z]+)-core(?P<core>\d+)-v(?P<version>\d+)\.json$")


def train_set_digest(pairs: Iterable[Tuple[str, float]]) -> str:
    """Order-independent SHA-256 over (tag, target) training pairs.

    Two trainers that consumed the same sample *set* -- regardless of
    journal order or chunking -- produce the same digest, which is how
    an artifact proves which data a model was fitted on.
    """
    lines = sorted(f"{tag}\t{float(y)!r}" for tag, y in pairs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class ModelArtifact:
    """One fitted model, JSON-round-trippable byte-identically."""

    #: Prediction target: ``"vmin"`` or ``"severity"``.
    target: str
    core: int
    #: Monotonic artifact version; 0 until :meth:`ModelStore.save`
    #: assigns one.
    version: int
    #: Journal records consumed by the training cursor; resuming
    #: passes this as ``start`` to ``iter_journal_datasets``.
    journal_offset: int
    #: Digest of the machine spec the training store is bound to.
    spec_digest: str
    #: Full feature space the trainer observes (model input columns).
    feature_names: Tuple[str, ...]
    #: RFE-surviving features (forced features appended).  Empty while
    #: the journal has too few samples to select from -- the artifact
    #: then checkpoints trainer state but is not servable yet.
    selected_features: Tuple[str, ...]
    #: Zero-variance columns excluded from elimination.
    dropped_constant: Tuple[str, ...]
    #: Original-space weights, keyed by selected feature.
    coefficients: Dict[str, float]
    intercept: float
    #: The naive baseline's constant prediction (training-target mean).
    naive_mean: float
    n_samples: int
    #: Order-independent digest of the consumed (tag, target) pairs.
    train_digest: str
    #: Drift/fit metrics at save time (see streaming trainer).
    metrics: Dict[str, float]
    #: Full streaming-trainer state for kill-and-resume.
    trainer_state: Dict[str, Any]

    @property
    def is_servable(self) -> bool:
        """Whether the artifact carries a usable model."""
        return bool(self.selected_features)

    # -- serving -----------------------------------------------------------

    def predict_row(self, features: Mapping[str, float]) -> float:
        """Predict one sample given a feature-name -> value mapping."""
        if not self.is_servable:
            raise CampaignError(
                f"model artifact {self.target}/core{self.core} v{self.version} "
                "has no selected features yet (journal too shallow)"
            )
        missing = [n for n in self.selected_features if n not in features]
        if missing:
            raise CampaignError(f"prediction input missing features: {missing}")
        return float(
            self.intercept
            + sum(
                self.coefficients[name] * float(features[name])
                for name in self.selected_features
            )
        )

    def predict_dataset(self, dataset: Any) -> "np.ndarray":
        """Predict every row of a full-feature-space RegressionDataset."""
        if not self.is_servable:
            raise CampaignError(
                f"model artifact {self.target}/core{self.core} v{self.version} "
                "has no selected features yet (journal too shallow)"
            )
        sub = dataset.select_features(self.selected_features)
        coef = np.array(
            [self.coefficients[name] for name in self.selected_features]
        )
        result: "np.ndarray" = self.intercept + sub.x @ coef
        return result

    # -- JSON codec --------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "format": MODEL_FORMAT,
            "target": self.target,
            "core": self.core,
            "version": self.version,
            "journal_offset": self.journal_offset,
            "spec_digest": self.spec_digest,
            "feature_names": list(self.feature_names),
            "selected_features": list(self.selected_features),
            "dropped_constant": list(self.dropped_constant),
            "coefficients": {k: float(v) for k, v in self.coefficients.items()},
            "intercept": self.intercept,
            "naive_mean": self.naive_mean,
            "n_samples": self.n_samples,
            "train_digest": self.train_digest,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "trainer_state": self.trainer_state,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ModelArtifact":
        fmt = data.get("format")
        if fmt != MODEL_FORMAT:
            raise CampaignError(
                f"unsupported model-artifact format {fmt!r} "
                f"(expected {MODEL_FORMAT!r})"
            )
        try:
            return cls(
                target=str(data["target"]),
                core=int(data["core"]),
                version=int(data["version"]),
                journal_offset=int(data["journal_offset"]),
                spec_digest=str(data["spec_digest"]),
                feature_names=tuple(str(n) for n in data["feature_names"]),
                selected_features=tuple(
                    str(n) for n in data["selected_features"]
                ),
                dropped_constant=tuple(
                    str(n) for n in data["dropped_constant"]
                ),
                coefficients={
                    str(k): float(v)
                    for k, v in data["coefficients"].items()
                },
                intercept=float(data["intercept"]),
                naive_mean=float(data["naive_mean"]),
                n_samples=int(data["n_samples"]),
                train_digest=str(data["train_digest"]),
                metrics={
                    str(k): float(v) for k, v in data["metrics"].items()
                },
                trainer_state=dict(data["trainer_state"]),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise CampaignError(f"malformed model artifact: {exc}")

    def serialize(self) -> str:
        """Canonical file payload; stable bytes for a given artifact."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


class ModelStore:
    """Versioned artifact files under a campaign store directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        expected_spec_digest: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.expected_spec_digest = expected_spec_digest

    @property
    def models_path(self) -> Path:
        return self.directory / MODELS_DIR

    def path_for(self, target: str, core: int, version: int) -> Path:
        return self.models_path / f"{target}-core{core}-v{version}.json"

    # -- enumeration -------------------------------------------------------

    def versions(self, target: str, core: int) -> List[int]:
        """Saved versions of one (target, core) series, ascending."""
        found: List[int] = []
        if not self.models_path.exists():
            return found
        for entry in self.models_path.iterdir():
            match = _ARTIFACT_RE.match(entry.name)
            if (
                match
                and match.group("target") == target
                and int(match.group("core")) == core
            ):
                found.append(int(match.group("version")))
        return sorted(found)

    def series(self) -> List[Tuple[str, int]]:
        """Every (target, core) pair with at least one saved version."""
        pairs = set()
        if self.models_path.exists():
            for entry in self.models_path.iterdir():
                match = _ARTIFACT_RE.match(entry.name)
                if match:
                    pairs.add(
                        (match.group("target"), int(match.group("core")))
                    )
        return sorted(pairs)

    # -- persistence -------------------------------------------------------

    def save(self, artifact: ModelArtifact) -> ModelArtifact:
        """Persist as the next version of its (target, core) series.

        The version is assigned here (monotonic, never reused) and the
        file is written with :func:`~repro.store.durable.atomic_write`.
        """
        self._check_digest(artifact.spec_digest, "save")
        known = self.versions(artifact.target, artifact.core)
        version = (known[-1] + 1) if known else 1
        stamped = dataclasses.replace(artifact, version=version)
        self.models_path.mkdir(parents=True, exist_ok=True)
        path = self.path_for(artifact.target, artifact.core, version)
        atomic_write(path, stamped.serialize())
        return stamped

    def load(
        self, target: str, core: int, version: Optional[int] = None
    ) -> ModelArtifact:
        """Load one artifact; ``version=None`` loads the latest."""
        if version is None:
            known = self.versions(target, core)
            if not known:
                raise CampaignError(
                    f"no model artifacts for {target!r} on core {core} "
                    f"under {self.models_path}"
                )
            version = known[-1]
        path = self.path_for(target, core, version)
        if not path.exists():
            raise CampaignError(f"no model artifact at {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CampaignError(f"corrupt model artifact {path}: {exc}")
        artifact = ModelArtifact.from_json_dict(data)
        if (artifact.target, artifact.core, artifact.version) != (
            target, core, version,
        ):
            raise CampaignError(
                f"model artifact {path} is mislabeled: contains "
                f"{artifact.target}/core{artifact.core} v{artifact.version}"
            )
        self._check_digest(artifact.spec_digest, "load")
        return artifact

    def latest_artifacts(self) -> List[ModelArtifact]:
        """The newest artifact of every (target, core) series."""
        return [self.load(target, core) for target, core in self.series()]

    def _check_digest(self, digest: str, action: str) -> None:
        if (
            self.expected_spec_digest is not None
            and digest != self.expected_spec_digest
        ):
            raise CampaignError(
                f"cannot {action} model artifact: its machine-spec digest "
                "does not match this campaign store's manifest"
            )


__all__ = [
    "MODEL_FORMAT",
    "MODELS_DIR",
    "ModelArtifact",
    "ModelStore",
    "train_set_digest",
]
