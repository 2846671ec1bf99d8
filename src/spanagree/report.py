"""Score-report serialization. ``report_to_dict`` builds the one payload
of an evaluation: ``report.json`` holds it at full precision for
programmatic use, and the CSV tables render it, or the payload read back
from ``report.json``, at 3 decimals for reading."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable

from . import __version__
from .metrics import CampaignStats, ConfusionMatrix, ScoreReport
from .model import CategorySet

# summary.csv shows the candidate and reference ids, then these metrics.
METRIC_COLUMNS = [
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

# Columns written as they are; every other column is a float rendered by fmt3.
_RAW_COLUMNS = {"example_id", "status", "n_reference", "n_candidate"}


def fmt3(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def report_to_dict(
    report: ScoreReport,
    confusion: ConfusionMatrix,
    categories: CategorySet,
    meta: dict[str, Any] | None = None,
) -> dict:
    """Full-precision payload with everything needed to reproduce it."""
    return {
        "tool": {"name": "spanagree", "version": __version__},
        **(meta or {}),
        "reference": report.reference_id,
        "candidate": report.candidate_id,
        "gamma_config": {
            **report.gamma_config.dissimilarity.asdict(),
            "n_samples": report.gamma_config.n_samples,
            "seed": report.gamma_config.seed,
        },
        "counts": {
            name.removeprefix("n_"): getattr(report, name)
            for name in report._fields
            if name.startswith("n_")
        },
        "metrics": {column: getattr(report, column) for column in METRIC_COLUMNS},
        "examples": [
            {column: getattr(row, column) for column in PER_EXAMPLE_COLUMNS}
            for row in report.examples
        ],
        "confusion": {
            "categories": [c.name for c in categories],
            "counts": confusion.counts,
            "row_normalized": confusion.normalized(),
        },
    }


def write_report_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8",
        newline="\n",
    )


def _write_csv(path: str | Path, rows: Iterable[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def write_summary_csv(path: str | Path, payload: dict) -> None:
    metrics = [fmt3(payload["metrics"][column]) for column in METRIC_COLUMNS]
    _write_csv(path, [["candidate", "reference", *METRIC_COLUMNS],
                      [payload["candidate"], payload["reference"], *metrics]])


def write_per_example_csv(path: str | Path, payload: dict) -> None:
    rows = (
        [row[column] if column in _RAW_COLUMNS else fmt3(row[column])
         for column in PER_EXAMPLE_COLUMNS]
        for row in payload["examples"]
    )
    _write_csv(path, [PER_EXAMPLE_COLUMNS, *rows])


def write_confusion_csv(path: str | Path, payload: dict) -> None:
    names, counts = payload["confusion"]["categories"], payload["confusion"]["counts"]
    _write_csv(path, [["reference\\candidate", *names],
                      *([name, *row] for name, row in zip(names, counts))])


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
