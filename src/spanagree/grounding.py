"""Turn raw LLM output into grounded span annotations.

The pipeline is: strip reasoning markup, pull out the last valid JSON
object, validate the payload fields, then locate each emitted surface
string inside the target text. Surfaces that cannot be located are
dropped and reported; wrong offsets are worse than missing spans.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .ingest import reject_lone_surrogates
from .model import FrozenRecord, Record, SpanAnnotation

_OPEN, _CLOSE = "<think>", "</think>"
_DECODER = json.JSONDecoder()
# A "{" starts an object only if '"' or "}" follows it after JSON whitespace.
_OBJECT_START = re.compile(r'\{[ \t\n\r]*["}]')
# What a brace count that skips strings and their escapes has to look at.
_STRUCTURE = re.compile(r'[{}"\\]')


class GroundingError(ValueError):
    pass


class RawAnnotation(FrozenRecord):
    """One annotation exactly as the model emitted it, before grounding."""

    __slots__ = ("reason", "text", "type")

    def __init__(self, reason: str, text: str, type: int):
        self._init(reason, text, type)


class GroundingReport(Record):
    """Counts for one grounding pass. Grounded plus dropped always adds up
    to the number of raw items processed; case_fallbacks counts the
    grounded surfaces found only by case-insensitive matching."""

    __slots__ = ("grounded", "dropped_unmatched", "dropped_bad_category",
                 "dropped_malformed", "case_fallbacks")

    def __init__(self, grounded: int = 0, dropped_unmatched: int = 0,
                 dropped_bad_category: int = 0, dropped_malformed: int = 0,
                 case_fallbacks: int = 0):
        self._init(grounded, dropped_unmatched, dropped_bad_category, dropped_malformed,
                   case_fallbacks)

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


def _closed_candidates(text: str, start: int, stop: int) -> list[tuple[int, int]]:
    """Return ``(i, close + 1)`` for each ``{`` at ``i`` in
    ``text[start:stop]`` that can start an object and has a ``}`` at
    ``close`` that closes it, the last ``i`` first.

    ``close`` is where a brace count started at ``i`` returns to zero,
    counting no brace inside a string; a backslash inside a string
    escapes the next character. A scan's string state depends on where it
    starts, so one forward pass keeps a stack of pending ``{`` for the
    scans outside a string and one for the scans inside one. A backslash
    outside a string empties the outside stack, since no valid object
    holds one there. So no scan is outside a string where a quote or
    backslash is escaped for the scans inside one, the two stacks never
    have to merge, and the pass is linear.
    """
    closed: list[tuple[int, int]] = []
    outside: list[int] = []
    quoted: list[int] = []
    escaped = -1  # the position a backslash escapes for the scans in quoted
    for match in _STRUCTURE.finditer(text, start, stop):
        at = match.start()
        char = text[at]
        if char == "{":
            outside.append(at)
        elif char == "}":
            if outside:
                i = outside.pop()
                if _OBJECT_START.match(text, i):
                    closed.append((i, at + 1))
        elif at == escaped:
            pass  # escaped inside a string, just after a backslash emptied outside
        elif char == '"':
            outside, quoted = quoted, outside
        else:
            outside, escaped = [], at + 1
    closed.sort(reverse=True)
    return closed


def extract_last_json_object(text: str) -> dict[str, Any]:
    """Return the last substring of ``text`` that parses as a complete
    top-level JSON object.

    Each ``{`` that can start an object is tried with the standard
    decoder; a success resumes the search after the object, a failure
    (including nesting too deep for the decoder) at the next ``{``, so
    the interior of an invalid candidate is still searched. A candidate
    holding a lone surrogate escape, which no UTF-8 output can write,
    fails too, as in ``ingest.decode_json``. The first candidate is
    decoded on the rest of the reply, which is all a well-formed reply
    needs. If another candidate follows it, ``_closed_candidates`` pairs
    each later ``{`` with the ``}`` that closes it: a candidate without
    one is skipped without a decode, and any other is decoded only up to
    that ``}``, where a valid object starting there has to end; the
    pass stops at the reply's last ``}``. Decoding a slice keeps a
    failure's line and column count within the slice. Raises
    GroundingError if nothing parses.
    """
    last = None
    end = 0
    match = _OBJECT_START.search(text)
    pending = [(match.start(), None)] if match else []
    while pending:
        i, limit = pending.pop()
        if i < end:
            continue
        try:
            value, end = _DECODER.raw_decode(text[i:limit])
            end += i
            reject_lone_surrogates(text[i:end], value)
            last = value
        except (json.JSONDecodeError, RecursionError):
            end = i + 1
        if limit is None and _OBJECT_START.search(text, end):
            pending = _closed_candidates(text, end, text.rfind("}") + 1)
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
