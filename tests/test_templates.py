from __future__ import annotations

import json

import pytest

from spanagree.annotator import (
    FewshotExample,
    PromptVariant,
    TemplateError,
    build_annotation_schema,
    fewshot_from_config,
    format_categories,
    render_prompt,
)
from spanagree.ingest import bundled_category_file
from spanagree.model import TASKS, Example


@pytest.fixture(scope="module")
def d2t():
    return bundled_category_file("d2t")


@pytest.fixture(scope="module")
def mt():
    return bundled_category_file("mt")


@pytest.fixture(scope="module")
def propaganda():
    return bundled_category_file("propaganda")


def d2t_example():
    return Example(id="e", text="Sunny all week.", source='{"sky": "rain"}', task="d2t")


class TestBasePrompts:
    def test_d2t_base_structure(self, d2t):
        prompt = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.BASE
        )
        assert prompt.startswith("Your task is to identify errors in the text")
        assert '"reason", "text", and "annotation_type"' in prompt
        assert "0: Contradictory — The fact contradicts the data." in prompt
        assert "Hints:" in prompt  # guideline block present
        assert "Given the data:\n```\n{\"sky\": \"rain\"}\n```" in prompt
        assert prompt.rstrip().endswith("Sunny all week.\n```")

    def test_mt_base_structure(self, mt):
        example = Example(id="m", text="Hallo Welt", source="Hello world", task="mt")
        prompt = render_prompt(example, mt.categories, mt.guidelines, PromptVariant.BASE)
        assert "identify errors in the translation" in prompt
        assert "Given the source:\n```\nHello world\n```" in prompt
        assert "annotate its translation:" in prompt
        assert "Make sure that the annotations are not overlapping." in prompt

    def test_propaganda_has_no_source_block(self, propaganda):
        example = Example(id="p", text="Only the text.", task="propaganda")
        prompt = render_prompt(example, propaganda.categories, "", PromptVariant.BASE)
        assert "propaganda techniques" in prompt
        assert "\n\n\n" not in prompt  # blank guidelines leave no empty block
        assert "{source}" not in prompt and "{data}" not in prompt
        assert "Now annotate the following text:" in prompt
        assert prompt.count("```") == 2

    def test_category_lines_in_index_order(self, d2t):
        rendered = format_categories(d2t.categories)
        lines = rendered.splitlines()
        assert len(lines) == 6
        assert [line.split(":")[0] for line in lines] == [str(i) for i in range(6)]


class TestVariants:
    def test_noguide_omits_guidelines_only(self, d2t):
        base = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.BASE,
        )
        noguide = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.NOGUIDE,
        )
        assert "Hints:" in base and "Hints:" not in noguide
        assert len(noguide) < len(base)
        assert noguide.startswith("Your task is to identify errors in the text")
        assert "Given the data:" in noguide

    def test_noreason_drops_reason_request(self, d2t):
        prompt = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.NOREASON,
        )
        assert '"reason"' not in prompt
        assert '"text" and "annotation_type"' in prompt

    def test_cot_addendum_appended_after_body(self, d2t):
        prompt = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.COT,
        )
        assert prompt.rstrip().endswith(
            "<think> ... chain of thoughts ... </think> { ... JSON object ... }\n```"
        )
        assert "enclose your chain of thoughts" in prompt

    def test_fiveshot_requires_exact_count(self, d2t):
        shots = tuple(
            FewshotExample(text=f"t{i}", data=f"d{i}", annotations_json="{}")
            for i in range(3)
        )
        with pytest.raises(TemplateError, match="exactly 5"):
            render_prompt(
                d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.FIVESHOT,
                shots,
            )

    def test_fiveshot_block_renders_each_example(self, d2t):
        shots = tuple(
            FewshotExample(
                text=f"text number {i}",
                data=f"data number {i}",
                annotations_json='{"annotations": []}',
            )
            for i in range(5)
        )
        prompt = render_prompt(
            d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.FIVESHOT, shots,
        )
        assert "five examples of inputs, outputs and annotations" in prompt
        for i in range(5):
            assert f"Example #{i + 1}:" in prompt
            assert f"data:\n```\ndata number {i}\n```" in prompt
        assert prompt.index("Given the data:") < prompt.index("Example #1:")

    def test_base_rejects_fewshot_examples(self, d2t):
        with pytest.raises(TemplateError):
            render_prompt(
                d2t_example(), d2t.categories, d2t.guidelines, PromptVariant.BASE,
                (FewshotExample(text="t", annotations_json="{}"),),
            )

    @pytest.mark.parametrize("variant", list(PromptVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("task", TASKS)
    def test_every_task_renders_every_variant(self, d2t, task, variant):
        example = Example(id="e", text="the text", source="the source", task=task)
        shots = tuple(
            FewshotExample(text=f"t{i}", data=f"d{i}", annotations_json="{}")
            for i in range(5 if variant is PromptVariant.FIVESHOT else 0)
        )
        prompt = render_prompt(example, d2t.categories, "Hints: none", variant, shots)
        assert prompt.startswith("Your task is to identify ")
        assert "0: Contradictory" in prompt
        assert ("Hints: none" in prompt) is (variant is not PromptVariant.NOGUIDE)
        assert ":\n```\nthe text\n```" in prompt


class TestRendering:
    def test_missing_source_raises(self, d2t):
        example = Example(id="e", text="no source here", task="d2t")
        with pytest.raises(TemplateError, match="example 'e' has no source but the d2t prompt"):
            render_prompt(example, d2t.categories, d2t.guidelines)

    def test_placeholder_in_example_text_is_not_substituted(self, d2t):
        example = Example(
            id="e", text="literal {text} and {categories} stay", source="{data} too",
            task="d2t",
        )
        prompt = render_prompt(
            example, d2t.categories, d2t.guidelines, PromptVariant.NOGUIDE,
        )
        assert "literal {text} and {categories} stay" in prompt
        assert "{data} too" in prompt


class TestAnnotationSchema:
    def test_key_order_reason_first(self):
        schema = build_annotation_schema()
        items = schema["properties"]["annotations"]["items"]
        assert list(items["properties"]) == ["reason", "text", "type"]
        assert items["required"] == ["reason", "text", "type"]
        assert schema["required"] == ["annotations"]
        assert items["additionalProperties"] is False

    def test_noreason_schema_drops_reason(self):
        schema = build_annotation_schema(include_reason=False)
        items = schema["properties"]["annotations"]["items"]
        assert list(items["properties"]) == ["text", "type"]

    def test_serialized_key_order_is_stable(self):
        items = build_annotation_schema()["properties"]["annotations"]["items"]
        round_tripped = json.loads(json.dumps(items["properties"]), object_pairs_hook=list)
        assert [key for key, _ in round_tripped] == ["reason", "text", "type"]


class TestFewshotFromConfig:
    def test_builds_json_payload(self):
        shots = fewshot_from_config(
            [{"text": "t", "data": "d", "annotations": [{"reason": "r", "text": "x", "type": 1}]}]
        )
        assert shots[0].annotations_json == (
            '{"annotations": [{"reason": "r", "text": "x", "type": 1}]}'
        )

    def test_missing_keys_rejected(self):
        with pytest.raises(TemplateError):
            fewshot_from_config([{"text": "t"}])
