"""Score-report serialization: JSON keeps full float precision for
programmatic use, CSV tables render 3 decimals for reading."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any

from .metrics import CampaignStats, ConfusionMatrix, ScoreReport
from .model import CategorySet

SUMMARY_COLUMNS = [
    "candidate",
    "reference",
    "pearson",
    "precision_hard",
    "precision_soft",
    "recall_hard",
    "recall_soft",
    "f1_hard",
    "f1_soft",
    "f1_delta",
    "gamma",
    "s_empty",
]

PER_EXAMPLE_COLUMNS = [
    "example_id",
    "status",
    "n_reference",
    "n_candidate",
    "precision_hard",
    "recall_hard",
    "f1_hard",
    "precision_soft",
    "recall_soft",
    "f1_soft",
    "s_empty",
    "gamma",
]


# Columns named differently from the field they show.
_FIELD_NAMES = {"candidate": "candidate_id", "reference": "reference_id"}

# Columns written as they are; every other column is a float rendered by fmt3.
_RAW_COLUMNS = {"candidate", "reference", "example_id", "status", "n_reference", "n_candidate"}


def fmt3(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def _values(record: Any, columns: list[str]) -> dict[str, Any]:
    return {column: getattr(record, _FIELD_NAMES.get(column, column)) for column in columns}


def _csv_row(values: dict[str, Any]) -> list:
    return [
        value if column in _RAW_COLUMNS else fmt3(value)
        for column, value in values.items()
    ]


def report_to_dict(
    report: ScoreReport,
    confusion: ConfusionMatrix | None = None,
    categories: CategorySet | None = None,
    meta: dict[str, Any] | None = None,
) -> dict:
    """Full-precision payload with everything needed to reproduce it."""
    payload: dict[str, Any] = {
        "tool": {"name": "spanagree", "version": _version()},
        **(meta or {}),
        "reference": report.reference_id,
        "candidate": report.candidate_id,
        "gamma_config": {
            **dataclasses.asdict(report.gamma_config.dissimilarity),
            "n_samples": report.gamma_config.n_samples,
            "seed": report.gamma_config.seed,
        },
        "counts": {
            f.name.removeprefix("n_"): getattr(report, f.name)
            for f in dataclasses.fields(report)
            if f.name.startswith("n_")
        },
        "metrics": {
            column: value
            for column, value in _values(report, SUMMARY_COLUMNS).items()
            if column not in _RAW_COLUMNS
        },
        "examples": [_values(row, PER_EXAMPLE_COLUMNS) for row in report.examples],
    }
    if confusion is not None:
        payload["confusion"] = {
            "categories": [c.name for c in categories] if categories else None,
            "counts": confusion.counts,
            "row_normalized": confusion.normalized(),
        }
    return payload


def _version() -> str:
    from . import __version__

    return __version__


def write_report_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8",
        newline="\n",
    )


def write_summary_csv(path: str | Path, report: ScoreReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow(_csv_row(_values(report, SUMMARY_COLUMNS)))


def write_per_example_csv(path: str | Path, report: ScoreReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PER_EXAMPLE_COLUMNS)
        for row in report.examples:
            writer.writerow(_csv_row(_values(row, PER_EXAMPLE_COLUMNS)))


def write_confusion_csv(
    path: str | Path, confusion: ConfusionMatrix, categories: CategorySet
) -> None:
    names = [c.name for c in categories]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["reference\\candidate", *names])
        for name, row in zip(names, confusion.counts):
            writer.writerow([name, *row])


def stats_lines(annotator_id: str, stats: CampaignStats) -> list[str]:
    """Human-readable stats block used by the CLI."""
    chars = "" if stats.chars_per_annotation is None else f"{stats.chars_per_annotation:.3f}"
    lines = [
        f"annotator: {annotator_id}",
        f"Ann: {stats.annotations}",
        f"Ann/Ex: {stats.annotations_per_example:.3f}",
        f"w/o%: {stats.pct_examples_empty:.3f}",
        f"Char/Ann: {chars}",
    ]
    if stats.n_failed:
        lines.append(f"failed examples: {stats.n_failed}")
    return lines
