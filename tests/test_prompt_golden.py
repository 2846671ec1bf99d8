"""Golden digests of the prompts annotate sends, and of one cache key.

A prompt's bytes feed cache_key, so any change to them re-annotates every
cached example of every user. The prompts are captured through
annotate_dataset, the path the CLI takes, for every task and variant,
with bundled, blank, whitespace-only and brace-laden guidelines, and with
placeholder-like literals and backticks inside texts, sources and shots.
A change that must alter a prompt regenerates these digests and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from spanagree.annotator import (
    AnnotatorConfig,
    CompletionResult,
    FewshotExample,
    PromptVariant,
    annotate_dataset,
    cache_key,
)
from spanagree.ingest import bundled_category_file
from spanagree.model import TASKS, Category, CategorySet, Dataset, Example

GENERIC_CATEGORIES = CategorySet((
    Category(0, "Claim", "A statement presented as fact."),
    Category(1, "Hedge", "A softened or qualified statement."),
))
GENERIC_GUIDELINES = "Mark whole clauses.\n\nIf nothing applies, return an empty list."

BRACED_GUIDELINES = (
    "Literals {text}, {data}, {source}, {categories}, {guidelines} and {fewshot} "
    "stay as written; so do ``` fences."
)
GUIDELINE_KINDS = ("bundled", "blank", "spaces", "braced")


def inventory(task: str) -> tuple[CategorySet, str]:
    if task == "generic":
        return GENERIC_CATEGORIES, GENERIC_GUIDELINES
    bundled = bundled_category_file(task)
    return bundled.categories, bundled.guidelines


def guidelines_of(kind: str, bundled: str) -> str:
    return {"bundled": bundled, "blank": "", "spaces": " \n\t ", "braced": BRACED_GUIDELINES}[kind]


def examples(task: str) -> tuple[Example, ...]:
    return (
        Example(id="a", text="The sky was clear all week.", source='{"sky": "rain"}', task=task),
        Example(
            id="b",
            text="literal {text}, {data} and ``` fences {categories} stay",
            source="{data} {source} {fewshot} and ```json``` too",
            task=task,
        ),
    )


SHOTS = tuple(
    FewshotExample(
        text=f"shot {i} says {{text}} and ```",
        annotations_json=json.dumps(
            {"annotations": [{"reason": "{data}", "text": "says", "type": 0}]}
        ),
        data=f'{{"shot": {i}, "note": "{{source}}"}}',
    )
    for i in range(5)
)


class RecordingAdapter:
    """Answers every request with no annotations and keeps its prompt."""

    name = "recording"

    def __init__(self):
        self.prompts: dict[str, str] = {}

    def complete(self, prompt, decoding, schema=None, request_id=""):
        self.prompts[request_id] = prompt
        return CompletionResult(text='{"annotations": []}')


def config_for(variant: PromptVariant) -> AnnotatorConfig:
    shots = SHOTS if variant is PromptVariant.FIVESHOT else ()
    return AnnotatorConfig(model_id="golden-model", variant=variant, fewshot_examples=shots)


def prompts_for(task: str, variant: PromptVariant) -> list[str]:
    categories, bundled = inventory(task)
    prompts = []
    for kind in GUIDELINE_KINDS:
        dataset = Dataset(examples(task), categories, guidelines_of(kind, bundled))
        adapter = RecordingAdapter()
        annotate_dataset(dataset, config_for(variant), adapter)
        prompts.extend(adapter.prompts[example_id] for example_id in ("a", "b"))
    return prompts


def digest(prompts: list[str]) -> str:
    return hashlib.sha256(json.dumps(prompts).encode("utf-8")).hexdigest()


# sha256 of the JSON list of one task and variant's prompts: guideline
# kinds in GUIDELINE_KINDS order, examples a then b within each.
GOLDEN_PROMPT_DIGESTS = {
    "d2t-base": "fb9b5a2bcfbcc98a097c87c0ec794817323208c342209acbbabd28da3e255e37",
    "d2t-cot": "1ac9a2a57e08c19dd03becd268b86b848a0c23d9c7025bb7219834e7f9502633",
    "d2t-fiveshot": "ca2c163f9cc2ddea05f405f443b77a44f183e8500bed16618308ee5f8b7fc35d",
    "d2t-noguide": "dab32ca10368c4a9849459e1bb2fea8b6cc32ca1fc6ab769c8f6b0c331ea89ad",
    "d2t-noreason": "d024c1f3585c77dc50dd6382d37e2805b503974d42625693bc4c03c1c2800fde",
    "mt-base": "489484e447d7228467e31956fcc6b080c6fdd37f4b245b182bec0b532cb2f5f1",
    "mt-cot": "02ca7afe9391f30135a83f6e09f85ccd13958f3e5f2a7c083b6976f05107343b",
    "mt-fiveshot": "0d930eca487f1e0cd22b35a26ea4a7992158fa543585795d9a16849a8f751f39",
    "mt-noguide": "9748d442e9dea4803836e44fada5237da8e872f0b9ac05f5fd5bf60de32ff148",
    "mt-noreason": "01080d417508e80822e68a00450512e45922ce1e294cd72a55ff0e765750d1fe",
    "propaganda-base": "1f6cbb4b8e2020d1c9f77ea9b2ae33241c3114c2e998cdb7ee58fa6842d827ef",
    "propaganda-cot": "1fdfeeeff5d8ea6f72204555a40ebf696b4e9c4b6c4e22d2283c3499bcf578d5",
    "propaganda-fiveshot": "646ac3d48f0a3341d28296fe50d0b39fbfd113ec03c0c5459112b243a1f7f20a",
    "propaganda-noguide": "8b4aaa15cbb1a5c62bb592a89c725bbe530b7bc1ca36706c9b1520171eb68b71",
    "propaganda-noreason": "05f1fe2879a4813d536e8aa891d188036010e2076b42c263e5d00032f03ed7ad",
    "generic-base": "f94d5999fec9b8dbf2d111eefe16d773c3dd2c60fdabb5e4fc4b52362a1fe842",
    "generic-cot": "b7ab757df7b2eb39b765142cce9fc09ec78f34f179c9d7cba90cb69da978b029",
    "generic-fiveshot": "cc1e561d0c266fc6269b56e3b10524fc8b09d755f784bd9b6c2ad0bb941524ea",
    "generic-noguide": "9be29d2903ab55c94402d4ff08273044b2ff7d4229ac1dfb6baa9bfa2c1fc42b",
    "generic-noreason": "836ec693d9bfdd892eebc65f7a922c778cf830a7219d8228fdc7a03669433ff4",
}

GOLDEN_CACHE_KEY = "8fc86eb11b4f66c011ff74296f4fda64d9bbf52e735f9634da82e6766b437880"


@pytest.mark.parametrize("variant", list(PromptVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("task", TASKS)
def test_prompt_bytes_match_golden_digest(task, variant):
    assert digest(prompts_for(task, variant)) == GOLDEN_PROMPT_DIGESTS[f"{task}-{variant.value}"]


def test_cache_key_matches_golden_digest():
    prompt = prompts_for("d2t", PromptVariant.BASE)[0]
    assert cache_key(config_for(PromptVariant.BASE), prompt) == GOLDEN_CACHE_KEY
