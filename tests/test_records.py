"""The contract every record type keeps: value equality and repr, frozen
fields and hashing, copy and pickle, and ``replace`` re-running the
constructor's checks."""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import spanagree
from spanagree.annotator.adapters import CompletionResult
from spanagree.config import (
    AnnotatorConfig,
    DecodingParams,
    DissimilarityConfig,
    FewshotExample,
    GammaConfig,
    PromptVariant,
    ProviderSettings,
    RunConfig,
    SchemaMode,
)
from spanagree.gamma.alignment import Alignment
from spanagree.grounding import GroundingReport, RawAnnotation
from spanagree.ingest import CategoryFile
from spanagree.metrics import CampaignStats, ConfusionMatrix, ExampleScores, ScoreReport
from spanagree.model import (
    AnnotationSet,
    Campaign,
    Category,
    CategorySet,
    Dataset,
    Example,
    FrozenRecord,
    Record,
    SpanAnnotation,
    Trace,
)


def _records() -> dict[type, object]:
    """One record of each type, every field set away from its default."""
    categories = CategorySet((Category(0, "a", "first"), Category(1, "b")))
    span = SpanAnnotation(0, 3, 1, "why", "abc")
    example = Example("e1", "abc def", "source", "d2t", {"k": "v"})
    trace = Trace("e1", "m", "cot", "{}", "think", 0.5, 10, 20, 1, True)
    fewshot = FewshotExample("abc", '{"annotations": []}', "data")
    annotator = AnnotatorConfig("m", PromptVariant.COT, DecodingParams(0.5, None),
                                SchemaMode.CONSTRAINED, 2, 4, "ann", (fewshot,))
    gamma = GammaConfig(DissimilarityConfig(1.0, 2.0, 0.5), 10, 3)
    rows = (ExampleScores("e1", 1, 2, "scored", 0.5, 1.0, 0.6, 0.5, 1.0, 0.7, None, 0.25),)
    records = [
        Category(0, "a", "first"),
        categories,
        span,
        AnnotationSet("e1", (span,)),
        example,
        Dataset((example,), categories, "guide", True),
        trace,
        Campaign("ann", {"e1": AnnotationSet("e1", (span,))}, {"e1": trace}),
        DecodingParams(0.5, 7),
        fewshot,
        annotator,
        ProviderSettings("mock", "http://localhost:1", "KEY", Path("replies.jsonl")),
        DissimilarityConfig(1.0, 2.0, 0.5),
        gamma,
        RunConfig(Path("corpus.jsonl"), Path("categories.json"), Path("out"),
                  {"gold": Path("gold.jsonl")}, Path("cache.jsonl"), annotator,
                  ProviderSettings(kind="mock"), gamma, "ab12"),
        rows[0],
        ScoreReport("gold", "llm", 1, 1, 0, 0, 1, 0, None, 0.5, 1.0, 0.6, 0.5, 1.0, 0.7,
                    0.1, 0.25, None, gamma, rows),
        ConfusionMatrix(((1, 0), (2, 3))),
        CampaignStats(3, 1.5, 0.0, 2.0, 2, 0),
        RawAnnotation("why", "abc", 1),
        GroundingReport(1, 2, 3, 4, 5),
        CategoryFile("d2t", True, categories, "guide"),
        CompletionResult("text", 1, 2, 0.5),
        Alignment(((0, 0),), (1,), (), 0.25),
    ]
    return {type(record): record for record in records}


RECORDS = _records()
MUTABLE = {ProviderSettings, RunConfig, GroundingReport}


def _defined_record_types() -> set[type]:
    """Every record type defined in a module of the spanagree package."""
    types = set()
    for info in pkgutil.walk_packages(spanagree.__path__, "spanagree."):
        module = importlib.import_module(info.name)
        types.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record)
            and value.__module__ == info.name
        )
    return types - {Record, FrozenRecord}


def test_every_record_type_is_checked():
    assert _defined_record_types() == set(RECORDS)
    assert {cls for cls in RECORDS if not issubclass(cls, FrozenRecord)} == MUTABLE


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    return RECORDS[request.param]


def test_constructor_takes_the_fields_in_order(record):
    assert tuple(inspect.signature(type(record)).parameters) == record._fields


def _rebuilt(record):
    return type(record)(**record.asdict())


def _is_hashable(record) -> bool:
    try:
        hash(record._values())
    except TypeError:
        return False
    return True


def test_equal_fields_give_equal_records_and_hashes(record):
    twin = _rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert record != object() and record != record._values()
    assert repr(twin) == repr(record)
    if type(record) in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    elif _is_hashable(record):
        assert hash(twin) == hash(record)
    else:  # a field holds a read-only mapping, as at construction
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_fields_cannot_change(record):
    name = record._fields[0]
    if type(record) in MUTABLE:
        value = getattr(record, name)
        twin = _rebuilt(record)
        setattr(twin, name, "changed")
        assert getattr(twin, name) == "changed" and getattr(record, name) == value
        assert twin != record
        return
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(record, clone):
    twin = clone(record)
    assert type(twin) is type(record) and twin == record
    assert repr(twin) == repr(record)


def test_replace_reruns_the_checks():
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        GammaConfig().replace(n_samples=0)
    temperature = DecodingParams(temperature=0).replace(seed=1).temperature
    assert type(temperature) is float and temperature == 0.0
    with pytest.raises(TypeError):
        GammaConfig().replace(no_such_field=1)


def test_replace_keeps_the_other_fields():
    config = RECORDS[GammaConfig]
    changed = config.replace(seed=99)
    assert changed.seed == 99 and config.seed == 3
    assert changed.dissimilarity is config.dissimilarity
    assert changed.n_samples == config.n_samples


def test_lookups_survive_a_copy():
    dataset = pickle.loads(pickle.dumps(RECORDS[Dataset]))
    assert dataset["e1"].text == "abc def" and "e1" in dataset
    assert copy.deepcopy(RECORDS[CategorySet]).by_name("b").index == 1


def test_score_report_repr_leaves_out_examples():
    report = RECORDS[ScoreReport]
    text = repr(report)
    assert text.startswith("ScoreReport(reference_id='gold', candidate_id='llm', ")
    assert text.endswith(f"gamma_config={report.gamma_config!r})")
    assert " examples=" not in text and "ExampleScores" not in text


def test_repr_lists_fields_in_constructor_order():
    assert repr(SpanAnnotation(0, 3, 1)) == (
        "SpanAnnotation(start=0, end=3, category=1, reason=None, surface=None)"
    )
    assert repr(GroundingReport()) == (
        "GroundingReport(grounded=0, dropped_unmatched=0, dropped_bad_category=0, "
        "dropped_malformed=0, case_fallbacks=0)"
    )


def test_mutable_defaults_are_not_shared():
    first = RunConfig(Path("c"), Path("k"), Path("o"))
    second = RunConfig(Path("c"), Path("k"), Path("o"))
    first.campaigns["gold"] = Path("gold.jsonl")
    first.provider.kind = "mock"
    assert second.campaigns == {} and second.provider == ProviderSettings()
