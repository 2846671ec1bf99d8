"""Turn raw LLM output into grounded span annotations.

The pipeline is: strip reasoning markup, pull out the last valid JSON
object, validate the payload fields, then locate each emitted surface
string inside the target text. Surfaces that cannot be located are
dropped and reported; wrong offsets are worse than missing spans.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any

from .ingest import reject_lone_surrogates
from .model import SpanAnnotation

_OPEN, _CLOSE = "<think>", "</think>"
_DECODER = json.JSONDecoder()
# A "{" starts an object only if '"' or "}" follows it after JSON whitespace.
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')


class GroundingError(ValueError):
    pass


@dataclass(frozen=True)
class RawAnnotation:
    """One annotation exactly as the model emitted it, before grounding."""

    reason: str
    text: str
    type: int


@dataclass
class GroundingReport:
    """Counts for one grounding pass. Grounded plus dropped always adds up
    to the number of raw items processed; case_fallbacks counts the
    grounded surfaces found only by case-insensitive matching."""

    grounded: int = 0
    dropped_unmatched: int = 0
    dropped_bad_category: int = 0
    dropped_malformed: int = 0
    case_fallbacks: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_unmatched + self.dropped_bad_category + self.dropped_malformed

    def merge(self, other: "GroundingReport") -> None:
        self.grounded += other.grounded
        self.dropped_unmatched += other.dropped_unmatched
        self.dropped_bad_category += other.dropped_bad_category
        self.dropped_malformed += other.dropped_malformed
        self.case_fallbacks += other.case_fallbacks


def split_reasoning(raw: str) -> tuple[str, str]:
    """Remove every balanced ``<think>...</think>`` region and return the
    rest with the removed reasoning (tag contents joined by newlines).

    Each opening tag pairs with the next closing tag; text outside the
    removed regions is preserved verbatim, so an unpaired trailing tag
    stays in place.
    """
    kept: list[str] = []
    reasoning: list[str] = []
    pos = 0
    while (start := raw.find(_OPEN, pos)) >= 0:
        end = raw.find(_CLOSE, start + len(_OPEN))
        if end < 0:
            break
        kept.append(raw[pos:start])
        reasoning.append(raw[start + len(_OPEN) : end])
        pos = end + len(_CLOSE)
    kept.append(raw[pos:])
    return "".join(kept), "\n".join(reasoning)


def extract_last_json_object(text: str) -> dict[str, Any]:
    """Return the last substring of ``text`` that parses as a complete
    top-level JSON object.

    Each ``{`` that can start an object is tried with the standard
    decoder on the rest of the reply; a success resumes the search after
    the object, a failure (including nesting too deep for the decoder) at
    the next ``{``, so the interior of an invalid candidate is still
    searched. A candidate holding a lone surrogate escape, which no UTF-8
    output can write, fails too, as in ``ingest.decode_json``. Decoding a
    slice keeps a failure's line and column count within the slice, but
    each attempt still copies the rest of the reply. Raises
    GroundingError if nothing parses.
    """
    last = None
    match = _OBJECT_START.search(text)
    while match:
        i = match.start()
        try:
            value, end = _DECODER.raw_decode(text[i:])
            end += i
            reject_lone_surrogates(text[i:end], value)
            last = value
        except (json.JSONDecodeError, RecursionError):
            end = i + 1
        match = _OBJECT_START.search(text, end)
    if last is None:
        raise GroundingError("no parseable top-level JSON object in model output")
    return last


def parse_annotation_payload(
    payload: Any, k: int
) -> tuple[list[RawAnnotation], GroundingReport]:
    """Validate the ``{"annotations": [...]}`` payload into RawAnnotations.

    Items need a string ``text``, an integer ``type`` in [0, k) (the key
    ``annotation_type`` is accepted as an alias, matching the prompt
    wording), and optionally a string ``reason`` (missing means empty,
    which is the normal case for no-reason prompt runs). Anything else
    is dropped and counted.
    """
    report = GroundingReport()
    if not isinstance(payload, dict):
        raise GroundingError(f"payload is {type(payload).__name__}, not an object")
    if "annotations" not in payload:
        raise GroundingError('payload has no "annotations" key')
    items = payload["annotations"]
    if not isinstance(items, list):
        raise GroundingError(f'"annotations" is {type(items).__name__}, not a list')

    raws: list[RawAnnotation] = []
    for item in items:
        if not isinstance(item, dict):
            report.dropped_malformed += 1
            continue
        surface = item.get("text")
        category = item.get("type", item.get("annotation_type"))
        reason = item.get("reason", "")
        if (
            not isinstance(surface, str)
            or not surface
            or not isinstance(reason, str)
            or isinstance(category, bool)
            or not isinstance(category, int)
        ):
            report.dropped_malformed += 1
            continue
        if not 0 <= category < k:
            report.dropped_bad_category += 1
            continue
        raws.append(RawAnnotation(reason=reason, text=surface, type=category))
    return raws, report


def _find_case_insensitive(text: str, surface: str) -> int:
    # Only safe when lowercasing is length-preserving on both sides;
    # otherwise offsets would drift, and dropping beats wrong offsets.
    lowered = text.lower()
    lowered_surface = surface.lower()
    if len(lowered) != len(text) or len(lowered_surface) != len(surface):
        return -1
    return lowered.find(lowered_surface)


def ground_annotations(
    raws: list[RawAnnotation], text: str
) -> tuple[list[SpanAnnotation], GroundingReport]:
    """Locate each emitted surface in ``text`` by exact string matching.

    A cursor follows the model's emission order: each surface is first
    searched at or after the cursor, then from the start of the text,
    then case-insensitively; on success the cursor moves to match start
    + 1. Surfaces that never match are dropped and reported.
    """
    report = GroundingReport()
    spans: list[SpanAnnotation] = []
    cursor = 0
    for raw in raws:
        exact = True
        idx = text.find(raw.text, cursor)
        if idx < 0:
            idx = text.find(raw.text)
        if idx < 0:
            exact = False
            idx = _find_case_insensitive(text, raw.text)
        if idx < 0:
            report.dropped_unmatched += 1
            continue
        if not exact:
            report.case_fallbacks += 1
        spans.append(
            SpanAnnotation(
                start=idx,
                end=idx + len(raw.text),
                category=raw.type,
                reason=raw.reason or None,
                surface=raw.text,
            )
        )
        report.grounded += 1
        cursor = idx + 1
    return spans, report
