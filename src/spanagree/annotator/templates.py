"""Prompt construction for LLM span annotation.

Each task has a fixed base prompt: task intro, the JSON output
instructions, the category list, the guideline block (left out when the
guidelines are blank), and the fenced input/output blocks. Variants
modify it: noguide drops the guideline block, noreason drops the
reason-field request, cot and fiveshot append an addendum after the base
body.
"""

from __future__ import annotations

from typing import Sequence

from ..config import FewshotExample, PromptVariant, TemplateError
from ..model import CategorySet, Example

_FIELD_LISTS = {
    True: '"reason", "text", and "annotation_type"',
    False: '"text" and "annotation_type"',
}
_REASON_SENTENCE = (
    'The value of "reason" is the short sentence justifying the annotation. '
)

_COT_ADDENDUM = (
    "Think about it step-by-step. You should enclose your chain of thoughts "
    "between the <think> and </think> tags. Once you are ready, output the "
    "JSON object in the required format.\n"
    "\n"
    "Example:\n"
    "```\n"
    "<think> ... chain of thoughts ... </think> { ... JSON object ... }\n"
    "```"
)

_INTROS = {
    "d2t": "Your task is to identify errors in the text and classify them.",
    "mt": "Your task is to identify errors in the translation and classify them.",
    "propaganda": "Your task is to identify spans of text that employ propaganda techniques.",
    "generic": "Your task is to identify relevant spans in the text and classify them.",
}

# Heading of the fenced text block that ends the base prompt, per task.
_TEXT_HEADINGS = {
    "d2t": "annotate the errors in the corresponding text generated from the data:",
    "mt": "annotate its translation:",
    "propaganda": "Now annotate the following text:",
    "generic": "Now annotate the following text:",
}

# Label of the input block, which comes before the text block and in
# few-shot examples, per task that has one.
_INPUT_LABELS = {"d2t": "data", "mt": "source"}

# The fiveshot variant takes exactly this many worked examples.
_FIVESHOT_COUNT = 5


def _schema_paragraph(include_reason: bool) -> str:
    return (
        'Output the errors as a JSON object with a single key "annotations". '
        'The value of "annotations" is a list in which each object contains '
        f"fields {_FIELD_LISTS[include_reason]}. "
        + (_REASON_SENTENCE if include_reason else "")
        + 'The value of "text" is the literal value of the identified span '
        "(we will later identify the span using string matching). The value "
        'of "annotation_type" is an integer index of the error based on the '
        "following list:"
    )


def _fewshot_block(task: str, examples: Sequence[FewshotExample]) -> str:
    parts = [
        "In order to help you with the task, we provide you with five "
        "examples of inputs, outputs and annotations:"
    ]
    label = _INPUT_LABELS.get(task)
    for pos, shot in enumerate(examples, start=1):
        section = [f"Example #{pos}:"]
        if label is not None:
            if shot.data is None:
                raise TemplateError(f"few-shot example {pos} needs a {label!r} field")
            section.append(f"{label}:\n```\n{shot.data}\n```")
        section.append(f"text:\n```\n{shot.text}\n```")
        section.append(f"output:\n```\n{shot.annotations_json}\n```")
        parts.append("\n".join(section))
    return "\n\n".join(parts)


def format_categories(categories: CategorySet) -> str:
    return "\n".join(
        f"{c.index}: {c.name} — {c.description}" for c in categories
    )


# The arguments of the last prompt_head call, then its head and tail. Each
# call stores a new tuple whole, so a worker thread never pairs one call's
# arguments with another's text.
_last_head: tuple = (None, "", "")


def prompt_head(
    task: str,
    categories: CategorySet,
    guidelines: str,
    variant: PromptVariant,
    fewshot_examples: Sequence[FewshotExample],
) -> tuple[str, str]:
    """The text every prompt of one task and run shares, as (head, tail).

    The head is the intro, the output instructions, the category list and
    the guideline block, each followed by a blank line; the input blocks
    come after it. The tail is a blank line and the cot or fiveshot
    addendum, or empty. While the arguments stay the same objects, or
    equal ones, the last result is returned again. It is stored with the
    arguments of every call, so the next call with the same objects
    compares them by identity alone.
    """
    global _last_head
    key = (task, categories, guidelines, variant, tuple(fewshot_examples))
    last_key, head, tail = _last_head
    if key != last_key:
        head, tail = _head_and_tail(*key)
    _last_head = key, head, tail
    return head, tail


def _head_and_tail(
    task: str,
    categories: CategorySet,
    guidelines: str,
    variant: PromptVariant,
    shots: tuple[FewshotExample, ...],
) -> tuple[str, str]:
    if variant is PromptVariant.FIVESHOT:
        if len(shots) != _FIVESHOT_COUNT:
            raise TemplateError(
                f"fiveshot needs exactly {_FIVESHOT_COUNT} examples, got {len(shots)}"
            )
    elif shots:
        raise TemplateError(f"variant {variant.value} takes no few-shot examples")

    parts = [
        _INTROS[task],
        _schema_paragraph(variant is not PromptVariant.NOREASON),
        format_categories(categories),
    ]
    if guidelines.strip() and variant is not PromptVariant.NOGUIDE:
        parts.append(guidelines)
    parts.append("")
    head = "\n\n".join(parts)
    if variant is PromptVariant.COT:
        tail = "\n\n" + _COT_ADDENDUM
    elif variant is PromptVariant.FIVESHOT:
        tail = "\n\n" + _fewshot_block(task, shots)
    else:
        tail = ""
    return head, tail


def render_prompt(
    example: Example,
    categories: CategorySet,
    guidelines: str = "",
    variant: PromptVariant = PromptVariant.BASE,
    fewshot_examples: Sequence[FewshotExample] = (),
) -> str:
    """The prompt for one example, its parts joined by blank lines.

    The guideline block is left out when the guidelines are blank or the
    variant is noguide. Texts, sources and guidelines are copied as they
    are, so placeholder-like strings inside them stay literal. The parts
    around the input blocks come from ``prompt_head``.
    """
    head, tail = prompt_head(example.task, categories, guidelines, variant, fewshot_examples)
    label = _INPUT_LABELS.get(example.task)
    blocks = ""
    if label is not None:
        if not example.source:
            raise TemplateError(
                f"example {example.id!r} has no source but the {example.task} "
                "prompt requires one"
            )
        blocks = "Given the " + label + ":\n```\n" + example.source + "\n```\n"
    return (
        head + blocks + _TEXT_HEADINGS[example.task] + "\n```\n" + example.text
        + "\n```" + tail
    )


def build_annotation_schema(include_reason: bool = True) -> dict:
    """JSON schema for constrained decoding.

    Key order matters: the reason field comes first so the explanation
    is generated before the span it justifies.
    """
    properties: dict[str, dict] = {}
    if include_reason:
        properties["reason"] = {"type": "string"}
    properties["text"] = {"type": "string"}
    properties["type"] = {"type": "integer"}
    return {
        "type": "object",
        "properties": {
            "annotations": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": properties,
                    "required": list(properties),
                    "additionalProperties": False,
                },
            }
        },
        "required": ["annotations"],
        "additionalProperties": False,
    }
