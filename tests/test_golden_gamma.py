"""Golden per-example gamma values, compared as exact ``repr`` strings.

Run-to-run byte identity cannot catch a refactor that changes the
numbers the same way every time; this test can. The stored values cover
the fixture campaigns (gold against the mock-annotated replies) and a
seeded synthetic corpus with 0-20 spans per side, whose examples fall on
both sides of the 64 pairs above which gamma finds its useful pairs in a
window of sorted starts.

A change that is meant to move gamma regenerates the file with
``PYTHONPATH=src python tests/test_golden_gamma.py`` and says why the
numbers changed.
"""

from __future__ import annotations

import json
import random
import sys

from spanagree.annotator import AnnotatorConfig, MockAdapter, annotate_dataset
from spanagree.gamma import GammaConfig, gamma_score
from spanagree.gamma.dissimilarity import WINDOW_MIN_PAIRS
from spanagree.ingest import load_campaign, load_dataset
from spanagree.metrics import aggregate
from spanagree.model import SpanAnnotation

from conftest import FIXTURES, write_bundled_categories

GOLDEN = FIXTURES / "golden_gamma.json"
SYNTHETIC_SEED = 20250411
SYNTHETIC_EXAMPLES = 40
SYNTHETIC_CONFIG = GammaConfig(n_samples=10, seed=7)


def fixture_gammas(tmp_path) -> dict[str, str]:
    """Gold fixture campaign scored against the mock-annotated replies."""
    categories = write_bundled_categories(tmp_path, "d2t")
    dataset = load_dataset(FIXTURES / "corpus10.jsonl", categories)
    gold = load_campaign(FIXTURES / "gold10.jsonl", dataset)
    llm = annotate_dataset(
        dataset,
        AnnotatorConfig(model_id="mock-model", annotator_id="mock-base"),
        MockAdapter.from_jsonl(FIXTURES / "replies10.jsonl"),
    )
    report = aggregate(dataset, gold, llm, GammaConfig(n_samples=30, seed=42))
    return {row.example_id: repr(row.gamma) for row in report.examples}


def _random_span(rng: random.Random, text_len: int) -> SpanAnnotation:
    length = rng.randint(1, min(40, text_len))
    start = rng.randint(0, text_len - length)
    return SpanAnnotation(start, start + length, rng.randint(0, 3))


def _jittered(rng: random.Random, span: SpanAnnotation, text_len: int) -> SpanAnnotation:
    start = min(max(0, span.start + rng.randint(-3, 3)), text_len - 1)
    end = min(max(start + 1, span.end + rng.randint(-3, 3)), text_len)
    category = span.category if rng.random() < 0.8 else rng.randint(0, 3)
    return SpanAnnotation(start, end, category)


def synthetic_examples() -> list[tuple[str, int, list[SpanAnnotation], list[SpanAnnotation]]]:
    """(example id, text length, left, right) per synthetic example. Left
    sides draw 0-20 random spans; right sides keep a jittered share of
    them plus random extras, also capped at 20."""
    rng = random.Random(SYNTHETIC_SEED)
    out = []
    for index in range(SYNTHETIC_EXAMPLES):
        text_len = rng.randint(40, 400)
        left = [_random_span(rng, text_len) for _ in range(rng.randint(0, 20))]
        right = [_jittered(rng, s, text_len) for s in left if rng.random() < 0.6]
        right += [_random_span(rng, text_len) for _ in range(rng.randint(0, 20 - len(right)))]
        out.append((f"syn{index:03d}", text_len, left, right))
    return out


def synthetic_gammas() -> dict[str, str]:
    return {
        example_id: repr(gamma_score(left, right, text_len, SYNTHETIC_CONFIG, example_id))
        for example_id, text_len, left, right in synthetic_examples()
    }


def test_fixture_gammas_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert fixture_gammas(tmp_path) == golden["fixtures"]


def test_synthetic_gammas_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert synthetic_gammas() == golden["synthetic"]


def test_synthetic_examples_straddle_the_window_gate():
    # Every alignment of an example, observed or resampled, has its sides'
    # sizes, so the golden values pin both the windowed and the all-pairs
    # search for useful pairs.
    pairs = [len(left) * len(right) for _, _, left, right in synthetic_examples()]
    assert sum(p > WINDOW_MIN_PAIRS for p in pairs) == 27
    assert sum(0 < p <= WINDOW_MIN_PAIRS for p in pairs) == 10


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        payload = {"fixtures": fixture_gammas(Path(tmp)), "synthetic": synthetic_gammas()}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
