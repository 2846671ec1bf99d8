from __future__ import annotations

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from spanagree.model import (
    AnnotationSet,
    Campaign,
    Category,
    CategorySet,
    Dataset,
    Example,
    SpanAnnotation,
)

FIXTURES = Path(__file__).parent / "fixtures"

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 "


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def make_categories(k: int = 4) -> CategorySet:
    return CategorySet(
        tuple(Category(i, f"cat{i}", f"category number {i}") for i in range(k))
    )


def make_dataset(texts: dict[str, str], k: int = 4, no_overlap: bool = False) -> Dataset:
    examples = tuple(
        Example(id=eid, text=text, source="{}", task="generic")
        for eid, text in sorted(texts.items())
    )
    return Dataset(examples=examples, categories=make_categories(k), no_overlap=no_overlap)


def random_spans(
    rng: random.Random, text_len: int, n: int, k: int = 4
) -> list[SpanAnnotation]:
    spans = []
    for _ in range(n):
        length = rng.randint(1, max(1, text_len // 2))
        start = rng.randint(0, text_len - length)
        spans.append(SpanAnnotation(start, start + length, rng.randint(0, k - 1)))
    return spans


def as_set(example_id: str, spans: list[SpanAnnotation]) -> AnnotationSet:
    return AnnotationSet(example_id, tuple(sorted(spans, key=lambda a: a.sort_key)))


def make_campaign(annotator_id: str, sets: dict[str, AnnotationSet]) -> Campaign:
    return Campaign(annotator_id=annotator_id, sets=sets)


def write_bundled_categories(directory: Path, task: str = "d2t") -> Path:
    path = directory / f"categories_{task}.json"
    payload = resources.files("spanagree.data").joinpath(f"{task}.json").read_text(
        encoding="utf-8"
    )
    path.write_text(payload, encoding="utf-8")
    return path


def write_run_config(
    tmp_path: Path,
    corpus: Path,
    categories: Path,
    campaigns: dict[str, Path],
    annotator: dict | None = None,
    gamma: dict | None = None,
) -> Path:
    out = tmp_path / "out"
    config = {
        "corpus": str(corpus),
        "categories": str(categories),
        "campaigns": {name: str(path) for name, path in campaigns.items()},
        "output_dir": str(out),
        "cache": str(tmp_path / "cache.jsonl"),
    }
    if annotator is not None:
        config["annotator"] = annotator
    if gamma is not None:
        config["metrics"] = {"gamma": gamma}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
