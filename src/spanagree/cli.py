"""Command-line entry points: annotate, evaluate, stats.

All behaviour is driven by a single JSON config file; flags only
override individual keys. Exit codes: 0 success (even with per-example
annotation failures), 2 for usage/config/validation problems, 3 for I/O
problems, 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .annotator import (
    AnnotatorConfig,
    DecodingParams,
    MissingApiKey,
    MockAdapter,
    OpenAIChatAdapter,
    PromptVariant,
    SchemaMode,
    TemplateError,
    annotate_dataset,
    fewshot_from_config,
    trace_record,
)
from .gamma import DissimilarityConfig, GammaConfig
from .ingest import (
    IngestError,
    check_object,
    decode_json,
    export_campaign,
    load_campaign,
    load_dataset,
)
from .metrics import (
    MetricError,
    aggregate,
    annotation_stats,
    confusion_matrix,
)
from .model import Campaign, Dataset, ModelError
from .report import (
    fmt3,
    report_to_dict,
    stats_lines,
    write_confusion_csv,
    write_per_example_csv,
    write_report_json,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130


class ConfigError(ValueError):
    pass


@dataclass
class ProviderSettings:
    kind: str = "openai"
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    replies: Path | None = None  # mock only


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


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.output is not None:
        config.output_dir = Path(args.output)
    if args.seed is not None:
        config.gamma = replace(config.gamma, seed=args.seed)
        if config.annotator is not None:
            config.annotator = replace(
                config.annotator,
                decoding=replace(config.annotator.decoding, seed=args.seed),
            )
    if getattr(args, "mock", None) is not None:
        config.provider = ProviderSettings(kind="mock", replies=Path(args.mock))
    return config


def _make_adapter(config: RunConfig):
    if config.annotator is None:
        raise ConfigError("config has no annotator section")
    if config.provider.kind == "mock":
        if config.provider.replies is None:
            raise ConfigError("mock provider needs a replies file (--mock PATH)")
        return MockAdapter.from_jsonl(config.provider.replies)
    try:
        return OpenAIChatAdapter(
            model_id=config.annotator.model_id,
            base_url=config.provider.base_url,
            api_key_env=config.provider.api_key_env,
        )
    except ValueError as exc:
        raise ConfigError(f"provider: {exc}") from exc


def _load_named_campaign(config: RunConfig, name: str, dataset: Dataset) -> Campaign:
    if name not in config.campaigns:
        raise ConfigError(
            f"campaign {name!r} not in config (have: {sorted(config.campaigns)})"
        )
    return load_campaign(config.campaigns[name], dataset)


def cmd_annotate(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    dataset = load_dataset(config.corpus, config.categories)
    adapter = _make_adapter(config)
    campaign = annotate_dataset(dataset, config.annotator, adapter, cache_path=config.cache)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    export_campaign(campaign, config.output_dir / "campaign.jsonl")
    with open(
        config.output_dir / "traces.jsonl", "w", encoding="utf-8", newline="\n"
    ) as handle:
        for example_id in campaign.example_ids():
            record = trace_record(campaign.traces[example_id], campaign.sets[example_id])
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    failed = sorted(campaign.failed_ids())
    latencies = [t.latency_s for t in campaign.traces.values()]
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    print(f"annotated {len(campaign)} examples as {campaign.annotator_id!r}")
    print(f"failed: {len(failed)}" + (f" ({', '.join(failed)})" if failed else ""))
    print(f"mean latency: {mean_latency:.3f} s/output")
    print(f"wrote {config.output_dir / 'campaign.jsonl'}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    dataset = load_dataset(config.corpus, config.categories)
    reference = _load_named_campaign(config, args.reference, dataset)
    candidate = _load_named_campaign(config, args.candidate, dataset)

    score_report = aggregate(dataset, reference, candidate, config.gamma)
    confusion = confusion_matrix(reference, candidate, dataset.k)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    payload = report_to_dict(
        score_report,
        confusion,
        dataset.categories,
        meta={"config_hash": config.config_hash},
    )
    write_report_json(config.output_dir / "report.json", payload)
    write_summary_csv(config.output_dir / "summary.csv", score_report)
    write_per_example_csv(config.output_dir / "per_example.csv", score_report)
    write_confusion_csv(config.output_dir / "confusion.csv", confusion, dataset.categories)

    print(
        f"{score_report.candidate_id} vs {score_report.reference_id}: "
        f"pearson={fmt3(score_report.pearson)} "
        f"F1(hard)={fmt3(score_report.f1_hard)} "
        f"F1(soft)={fmt3(score_report.f1_soft)} "
        f"gamma={fmt3(score_report.gamma)} "
        f"s_empty={fmt3(score_report.s_empty)}"
    )
    print(
        f"examples: {score_report.n_examples} "
        f"(scored {score_report.n_scored}, empty-routed {score_report.n_empty_scored}, "
        f"failed {score_report.n_failed}, gamma-skipped {score_report.n_gamma_skipped})"
    )
    print(f"wrote {config.output_dir / 'report.json'}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    dataset = load_dataset(config.corpus, config.categories)
    campaign = _load_named_campaign(config, args.campaign, dataset)
    stats = annotation_stats(campaign)
    for line in stats_lines(campaign.annotator_id, stats):
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanagree",
        description="Collect LLM span annotations and score campaigns against "
        "each other.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run configuration JSON")
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--output", default=None, help="override the output directory")
    overrides.add_argument("--seed", type=int, default=None, help="override seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_annotate = sub.add_parser(
        "annotate", parents=[common, overrides], help="collect annotations from a provider"
    )
    p_annotate.add_argument(
        "--mock", default=None, help="replay canned provider responses from a JSONL file"
    )
    p_annotate.set_defaults(func=cmd_annotate)

    p_evaluate = sub.add_parser(
        "evaluate", parents=[common, overrides], help="score one campaign against another"
    )
    p_evaluate.add_argument("reference", help="reference campaign id from the config")
    p_evaluate.add_argument("candidate", help="candidate campaign id from the config")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_stats = sub.add_parser(
        "stats", parents=[common], help="descriptive statistics for one campaign"
    )
    p_stats.add_argument("campaign", help="campaign id from the config")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, MetricError, ModelError, MissingApiKey,
            TemplateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
