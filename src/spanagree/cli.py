"""Command-line entry points: annotate, evaluate, stats.

All behaviour is driven by a single JSON config file; flags only
override individual keys. Exit codes: 0 success (even with per-example
annotation failures), 2 for usage errors and any ValueError (a bad
input or setting), 3 for any OSError (an I/O problem), 130 when
interrupted (Ctrl-C). Any other exception is a bug and keeps its
traceback.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

# TemplateError is not used here, but spanagree.cli has always handed it out.
from .config import ConfigError, ProviderSettings, RunConfig, TemplateError, load_run_config
from .ingest import export_campaign, load_campaign, load_dataset
from .model import Campaign, Dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130

# The names this module takes from the annotate runtime and the scorer.
# Each is imported on first use, through the module __getattr__ below,
# so `import spanagree.cli` loads neither and each command loads only its
# own modules. The commands look the names up as attributes of this
# module, `_cli`, so patching `cli.annotate_dataset` or `cli.aggregate`
# still reaches them.
_DEFERRED = {
    "annotator.adapters": ("MockAdapter", "OpenAIChatAdapter"),
    "annotator.runner": ("annotate_dataset", "trace_record"),
    "metrics": ("aggregate", "annotation_stats", "confusion_matrix"),
    "report": ("fmt3", "report_to_dict", "stats_lines", "write_confusion_csv",
               "write_per_example_csv", "write_report_json", "write_summary_csv"),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


_cli = importlib.import_module(__name__)


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.output is not None:
        config.output_dir = Path(args.output)
    if args.seed is not None:
        config.gamma = config.gamma.replace(seed=args.seed)
        if config.annotator is not None:
            config.annotator = config.annotator.replace(
                decoding=config.annotator.decoding.replace(seed=args.seed)
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
        return _cli.MockAdapter.from_jsonl(config.provider.replies)
    return _cli.OpenAIChatAdapter(
        model_id=config.annotator.model_id,
        base_url=config.provider.base_url,
        api_key_env=config.provider.api_key_env,
    )


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
    campaign = _cli.annotate_dataset(
        dataset, config.annotator, adapter, cache_path=config.cache
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    export_campaign(campaign, config.output_dir / "campaign.jsonl")
    with open(
        config.output_dir / "traces.jsonl", "w", encoding="utf-8", newline="\n"
    ) as handle:
        for example_id in campaign.example_ids():
            record = _cli.trace_record(
                campaign.traces[example_id], campaign.sets[example_id]
            )
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

    score_report = _cli.aggregate(dataset, reference, candidate, config.gamma)
    confusion = _cli.confusion_matrix(reference, candidate, dataset.k)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    payload = _cli.report_to_dict(
        score_report,
        confusion,
        dataset.categories,
        meta={"config_hash": config.config_hash},
    )
    _cli.write_report_json(config.output_dir / "report.json", payload)
    _cli.write_summary_csv(config.output_dir / "summary.csv", payload)
    _cli.write_per_example_csv(config.output_dir / "per_example.csv", payload)
    _cli.write_confusion_csv(config.output_dir / "confusion.csv", payload)

    fmt3, metrics, counts = _cli.fmt3, payload["metrics"], payload["counts"]
    print(
        f"{payload['candidate']} vs {payload['reference']}: "
        f"pearson={fmt3(metrics['pearson'])} "
        f"F1(hard)={fmt3(metrics['f1_hard'])} "
        f"F1(soft)={fmt3(metrics['f1_soft'])} "
        f"gamma={fmt3(metrics['gamma'])} "
        f"s_empty={fmt3(metrics['s_empty'])}"
    )
    print(
        f"examples: {counts['examples']} "
        f"(scored {counts['scored']}, empty-routed {counts['empty_scored']}, "
        f"failed {counts['failed']}, gamma-skipped {counts['gamma_skipped']})"
    )
    print(f"wrote {config.output_dir / 'report.json'}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    dataset = load_dataset(config.corpus, config.categories)
    campaign = _load_named_campaign(config, args.campaign, dataset)
    stats = _cli.annotation_stats(campaign)
    for line in _cli.stats_lines(campaign.annotator_id, stats):
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
    # OSError comes first, so that io.UnsupportedOperation, which is both,
    # exits as the I/O problem it is.
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    # runpy, as `python -m cProfile -m` uses it, runs this file in a
    # namespace that no module owns, so run the importable module instead.
    from spanagree.cli import main
    sys.exit(main())
