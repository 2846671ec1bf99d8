"""`annotate_dataset` builds what every prompt of a run shares once: the
prompt head and tail (`templates.prompt_head`, kept between calls) and
the hash state of the config fields and the head (`runner._run_keyer`).

These tests hold every cache key a run writes to `cache_key` of the
prompt that `render_prompt` builds from scratch, with nothing kept from
an earlier call. They cover every task and variant with blank and
non-blank guidelines, back-to-back runs in one process that differ in
one input only, a mixed-task corpus and concurrent workers. A head kept
from an earlier run, where the arguments changed, fails them.
"""

from __future__ import annotations

import json

import pytest

from spanagree.annotator import (
    AnnotatorConfig,
    CompletionResult,
    FewshotExample,
    PromptVariant,
    annotate_dataset,
    cache_key,
    render_prompt,
    templates,
)
from spanagree.ingest import bundled_category_file
from spanagree.model import TASKS, Category, CategorySet, Dataset, Example

SHOTS = tuple(
    FewshotExample(
        text=f"shot {i} has a typo",
        annotations_json=json.dumps({"annotations": [{"reason": "", "text": "typo", "type": 0}]}),
        data=f'{{"shot": {i}}}',
    )
    for i in range(5)
)


class EmptyAdapter:
    """Answers every request with no annotations."""

    name = "empty"

    def complete(self, prompt, decoding, schema=None, request_id=""):
        return CompletionResult(text='{"annotations": []}')


def corpus(task: str, n: int = 3) -> tuple[Example, ...]:
    return tuple(
        Example(id=f"{task}{i:02d}", text=f"text {i} of {task}", source=f'{{"n": {i}}}', task=task)
        for i in range(n)
    )


def config_for(variant: PromptVariant, concurrency: int = 1) -> AnnotatorConfig:
    shots = SHOTS if variant is PromptVariant.FIVESHOT else ()
    return AnnotatorConfig(
        model_id="head-model", variant=variant, fewshot_examples=shots,
        concurrency_limit=concurrency,
    )


def written_keys(dataset: Dataset, config: AnnotatorConfig, cache) -> dict[str, str]:
    annotate_dataset(dataset, config, EmptyAdapter(), cache)
    lines = cache.read_text(encoding="utf-8").splitlines()
    return {r["example_id"]: r["key"] for r in map(json.loads, lines)}


def keys_from_scratch(dataset: Dataset, config: AnnotatorConfig) -> dict[str, str]:
    keys = {}
    for example in dataset.examples:
        templates._last_head = (None, "", "")  # drop the head kept by the last call
        prompt = render_prompt(
            example, dataset.categories, dataset.guidelines, config.variant,
            config.fewshot_examples,
        )
        keys[example.id] = cache_key(config, prompt)
    return keys


def check_run(dataset: Dataset, config: AnnotatorConfig, cache) -> dict[str, str]:
    keys = written_keys(dataset, config, cache)
    assert keys == keys_from_scratch(dataset, config)
    assert len(keys) == len(dataset.examples)
    return keys


@pytest.mark.parametrize("guidelines", ["blank", "bundled"])
@pytest.mark.parametrize("variant", list(PromptVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("task", TASKS)
def test_every_written_key_is_the_key_of_the_rendered_prompt(task, variant, guidelines, tmp_path):
    categories = bundled_category_file("mt").categories
    text = bundled_category_file("mt").guidelines if guidelines == "bundled" else ""
    dataset = Dataset(corpus(task), categories, text)
    check_run(dataset, config_for(variant), tmp_path / "cache.jsonl")


CATEGORIES = CategorySet((Category(0, "Claim", "A fact."), Category(1, "Hedge", "A doubt.")))


@pytest.mark.parametrize(
    "second",
    [
        pytest.param({"guidelines": "Mark whole clauses."}, id="guidelines"),
        pytest.param({"guidelines": "Mark whole clauses!"}, id="guidelines-one-char"),
        pytest.param({"categories": CategorySet((
            Category(0, "Claim", "A fact."), Category(1, "Hedge", "A doubt!"),
        ))}, id="categories"),
        pytest.param({"variant": PromptVariant.NOGUIDE}, id="variant"),
        pytest.param({"variant": PromptVariant.NOREASON}, id="variant-noreason"),
        pytest.param({"variant": PromptVariant.COT}, id="variant-cot"),
    ],
)
@pytest.mark.parametrize("concurrency", [1, 8])
def test_back_to_back_runs_differing_in_one_input(second, concurrency, tmp_path):
    first = {
        "categories": CATEGORIES, "guidelines": "Mark whole sentences.",
        "variant": PromptVariant.BASE,
    }
    keys = []
    for n, inputs in enumerate([first, {**first, **second}]):
        dataset = Dataset(corpus("generic", 20), inputs["categories"], inputs["guidelines"])
        config = config_for(inputs["variant"], concurrency)
        keys.append(check_run(dataset, config, tmp_path / f"cache{n}.jsonl"))
    # Every example of the second run has a prompt or a config of its own.
    assert not set(keys[0].values()) & set(keys[1].values())


def test_back_to_back_fiveshot_runs_differing_in_one_shot(tmp_path):
    last = SHOTS[4]
    other = SHOTS[:4] + (FewshotExample("shot 4 has two typos", last.annotations_json, last.data),)
    for n, shots in enumerate([SHOTS, other]):
        config = AnnotatorConfig(
            model_id="head-model", variant=PromptVariant.FIVESHOT, fewshot_examples=shots
        )
        check_run(Dataset(corpus("mt"), CATEGORIES, ""), config, tmp_path / f"c{n}.jsonl")


def test_equal_inputs_in_new_objects_give_the_same_keys(tmp_path):
    keys = []
    for n in range(2):
        categories = CategorySet(tuple(Category(c.index, c.name, c.description) for c in CATEGORIES))
        dataset = Dataset(corpus("generic"), categories, "".join(["Mark ", "clauses."]))
        keys.append(check_run(dataset, config_for(PromptVariant.BASE), tmp_path / f"c{n}.jsonl"))
    assert keys[0] == keys[1]


@pytest.mark.parametrize("concurrency", [1, 8])
def test_mixed_task_corpus_keys_each_prompt_whole(concurrency, tmp_path):
    # Examples of a task other than the first one's do not start with the
    # run's head, so they are keyed from the whole prompt.
    examples = corpus("generic", 6) + corpus("mt", 6) + corpus("d2t", 6)
    dataset = Dataset(examples, CATEGORIES, "Mark clauses.")
    check_run(dataset, config_for(PromptVariant.COT, concurrency), tmp_path / "cache.jsonl")


def test_a_run_builds_its_head_once(monkeypatch, tmp_path):
    calls = []
    original = templates.format_categories

    def counting(categories):
        calls.append(categories)
        return original(categories)

    monkeypatch.setattr(templates, "format_categories", counting)
    monkeypatch.setattr(templates, "_last_head", (None, "", ""))
    categories = CategorySet((Category(0, "Once", "Counted by the head test."),))
    dataset = Dataset(corpus("generic"), categories, "")
    annotate_dataset(dataset, config_for(PromptVariant.BASE), EmptyAdapter(), tmp_path / "c.jsonl")
    assert calls == [categories]
