"""The run configuration and every setting type it builds.

``load_run_config`` parses and validates ``run.json`` into a
``RunConfig``: paths, the annotator and provider settings, and the gamma
settings. The types live here, away from the code that uses them, so
that reading a config loads neither the annotate runtime nor the scorer:
of spanagree, this module imports only ``ingest``, which imports
``model``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .ingest import IngestError, check_object, decode_json


class ConfigError(ValueError):
    pass


class TemplateError(ValueError):
    pass


class PromptVariant(str, Enum):
    BASE = "base"
    COT = "cot"
    FIVESHOT = "fiveshot"
    NOGUIDE = "noguide"
    NOREASON = "noreason"


class SchemaMode(str, Enum):
    CONSTRAINED = "constrained"
    FREEFORM = "freeform"


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    seed: int | None = 42

    def __post_init__(self):
        # Stored as a float, so that equal settings (0 and 0.0) key the cache alike.
        try:
            temperature = float(self.temperature)
        except OverflowError:  # an int beyond the float range
            temperature = math.inf
        if not math.isfinite(temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        object.__setattr__(self, "temperature", temperature)


@dataclass(frozen=True)
class FewshotExample:
    """One worked example for the few-shot addendum: the input data, the
    target text, and the expected annotations as a JSON string."""

    text: str
    annotations_json: str
    data: str | None = None


def fewshot_from_config(entries: Sequence[dict]) -> tuple[FewshotExample, ...]:
    """Build few-shot examples from config records: {text, annotations,
    data?}, where annotations is the expected output payload."""
    shots = []
    for pos, entry in enumerate(entries):
        try:
            check_object(
                entry, {"text": str, "annotations": list}, {"data": str},
                f"fewshot entry {pos}",
            )
        except IngestError as exc:
            raise TemplateError(str(exc)) from exc
        shots.append(
            FewshotExample(
                text=entry["text"],
                annotations_json=json.dumps(
                    {"annotations": entry["annotations"]}, ensure_ascii=False
                ),
                data=entry.get("data"),
            )
        )
    return tuple(shots)


@dataclass(frozen=True)
class AnnotatorConfig:
    """Everything that identifies one annotation run."""

    model_id: str
    variant: PromptVariant = PromptVariant.BASE
    decoding: DecodingParams = field(default_factory=DecodingParams)
    schema_mode: SchemaMode = SchemaMode.FREEFORM
    max_retries: int = 3
    concurrency_limit: int = 1
    annotator_id: str = ""
    fewshot_examples: tuple[FewshotExample, ...] = ()

    def __post_init__(self):
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be at least 1")

    @property
    def resolved_annotator_id(self) -> str:
        return self.annotator_id or f"{self.model_id}-{self.variant.value}"


@dataclass
class ProviderSettings:
    kind: str = "openai"
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    replies: Path | None = None  # mock only


@dataclass(frozen=True)
class DissimilarityConfig:
    """Weights for the combined unit dissimilarity.

    ``delta_empty`` is both the overall cost scale and the penalty paid
    for every unit left out of the alignment.
    """

    alpha: float = 1.0
    beta: float = 1.0
    delta_empty: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.delta_empty))):
            raise ValueError(
                f"dissimilarity weights must be finite, got alpha={self.alpha}, "
                f"beta={self.beta}, delta_empty={self.delta_empty}"
            )
        if self.alpha < 0 or self.beta < 0 or self.delta_empty < 0:
            raise ValueError("dissimilarity weights must be non-negative")
        total = self.alpha + self.beta
        if total <= 0:
            raise ValueError("alpha + beta must be positive")
        # An infinite sum zeroes the cost scale and an infinite scale turns
        # identical units' cost into nan; either breaks gamma == 1 iff identical.
        if not (math.isfinite(total) and math.isfinite(2.0 / total)):
            raise ValueError(
                f"cost scale 2 / (alpha + beta) must be finite and non-zero, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class GammaConfig:
    """Settings for the chance-corrected score: dissimilarity weights
    plus the resampling budget and seed for expected disorder."""

    dissimilarity: DissimilarityConfig = field(default_factory=DissimilarityConfig)
    n_samples: int = 30
    seed: int = 42

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass
class RunConfig:
    corpus: Path
    categories: Path
    output_dir: Path
    campaigns: dict[str, Path] = field(default_factory=dict)
    cache: Path | None = None
    annotator: AnnotatorConfig | None = None
    provider: ProviderSettings = field(default_factory=ProviderSettings)
    gamma: GammaConfig = field(default_factory=GammaConfig)
    config_hash: str = ""


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base / path


# Each config section's optional keys and their JSON types. An omitted
# key, or null, takes the default of the dataclass field it fills; only
# annotator.seed keeps null, because DecodingParams.seed may be None.
_ANNOTATOR_KEYS = {"annotator_id": str, "variant": str, "schema_mode": str,
                   "max_retries": int, "concurrency": int, "fewshot": list}
_DECODING_KEYS = {"temperature": (int, float), "seed": int}
_PROVIDER_KEYS = {"kind": str, "base_url": str, "api_key_env": str, "replies": str}
_DISSIMILARITY_KEYS = dict.fromkeys(("alpha", "beta", "delta_empty"), (int, float))
_GAMMA_KEYS = {"n_samples": int, "seed": int}

# Config keys whose dataclass field has another name or type.
_FIELD_NAMES = {"concurrency": "concurrency_limit", "fewshot": "fewshot_examples"}
_FIELD_TYPES = {
    "variant": PromptVariant,
    "schema_mode": SchemaMode,
    "fewshot": fewshot_from_config,
}


def _fields(section: dict, keys: dict) -> dict:
    """Dataclass keyword arguments for the keys the section gives."""
    return {
        _FIELD_NAMES.get(key, key): _FIELD_TYPES.get(key, lambda v: v)(section[key])
        for key in keys
        if section.get(key) is not None
    }


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate the run configuration; unknown keys are errors."""
    path = Path(path)
    raw_bytes = path.read_bytes()
    base = path.parent
    try:
        raw = decode_json(raw_bytes)
        check_object(
            raw,
            {"corpus": str, "categories": str, "output_dir": str},
            {"campaigns": dict, "cache": str, "annotator": dict, "metrics": dict},
            "config",
        )
        campaigns = raw.get("campaigns") or {}
        check_object(campaigns, dict.fromkeys(campaigns, str), {}, "campaigns")

        annotator = None
        provider = ProviderSettings()
        if raw.get("annotator") is not None:
            section = raw["annotator"]
            check_object(
                section,
                {"model_id": str},
                {**_ANNOTATOR_KEYS, **_DECODING_KEYS, "provider": dict},
                "annotator",
            )
            decoding = DecodingParams(**_fields(section, _DECODING_KEYS))
            if "seed" in section and section["seed"] is None:
                # DecodingParams.seed is optional: null sends unseeded requests.
                decoding = replace(decoding, seed=None)
            annotator = AnnotatorConfig(
                model_id=section["model_id"],
                decoding=decoding,
                **_fields(section, _ANNOTATOR_KEYS),
            )
            provider_raw = section.get("provider") or {}
            check_object(provider_raw, {}, _PROVIDER_KEYS, "annotator.provider")
            provider = ProviderSettings(**_fields(provider_raw, _PROVIDER_KEYS))
            if provider.replies is not None:
                provider.replies = _resolve(base, provider.replies)
            if provider.kind not in ("openai", "mock"):
                raise ConfigError(f"unknown provider kind {provider.kind!r}")

        metrics = raw.get("metrics") or {}
        check_object(metrics, {}, {"gamma": dict}, "metrics")
        gamma_raw = metrics.get("gamma") or {}
        check_object(
            gamma_raw, {}, {**_DISSIMILARITY_KEYS, **_GAMMA_KEYS}, "metrics.gamma"
        )
        gamma = GammaConfig(
            dissimilarity=DissimilarityConfig(**_fields(gamma_raw, _DISSIMILARITY_KEYS)),
            **_fields(gamma_raw, _GAMMA_KEYS),
        )
    except ValueError as exc:  # also invalid JSON, IngestError and TemplateError
        raise ConfigError(f"{path}: {exc}") from exc

    return RunConfig(
        corpus=_resolve(base, raw["corpus"]),
        categories=_resolve(base, raw["categories"]),
        output_dir=_resolve(base, raw["output_dir"]),
        campaigns={name: _resolve(base, value) for name, value in campaigns.items()},
        cache=_resolve(base, raw["cache"]) if raw.get("cache") is not None else None,
        annotator=annotator,
        provider=provider,
        gamma=gamma,
        config_hash=hashlib.sha256(raw_bytes).hexdigest(),
    )
