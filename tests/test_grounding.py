from __future__ import annotations

import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from spanagree.annotator import AnnotatorConfig, MockAdapter, annotate_example
from spanagree.grounding import (
    GroundingError,
    GroundingReport,
    RawAnnotation,
    extract_last_json_object,
    ground_annotations,
    parse_annotation_payload,
    split_reasoning,
)

from conftest import make_dataset

# Reference implementations: the regex reasoning split and the
# brace-scanning extractor that the str.find and raw_decode versions
# replaced. They define the expected output on small inputs.
_THINK_RE = re.compile(r"<think>.*?</think>", re.DOTALL)


def reference_split_reasoning(raw: str) -> tuple[str, str]:
    parts = [m.group(0)[len("<think>"):-len("</think>")] for m in _THINK_RE.finditer(raw)]
    return _THINK_RE.sub("", raw), "\n".join(parts)


def _scan_balanced(text: str, start: int) -> int | None:
    depth = 0
    in_string = False
    escaped = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def reference_extract_last_json_object(text: str):
    last = None
    found = False
    i = 0
    while i < len(text):
        if text[i] == "{":
            end = _scan_balanced(text, i)
            if end is not None:
                try:
                    last = json.loads(text[i:end])
                except json.JSONDecodeError:
                    pass
                else:
                    found = True
                    i = end
                    continue
        i += 1
    if not found:
        raise GroundingError("no parseable top-level JSON object in model output")
    return last


def outcome(function, text: str):
    try:
        return repr(function(text))
    except GroundingError:
        return "GroundingError"


class TestStripReasoning:
    def test_single_balanced_pair(self):
        assert split_reasoning('<think>plan</think>{"annotations":[]}')[0] == '{"annotations":[]}'

    def test_no_tags_unchanged(self):
        assert split_reasoning('{"annotations":[]}')[0] == '{"annotations":[]}'

    def test_two_balanced_pairs(self):
        assert split_reasoning("<think>a</think>x<think>b</think>y")[0] == "xy"

    def test_unbalanced_tail_preserved(self):
        assert split_reasoning("a<think>b</think>c<think>d")[0] == "ac<think>d"

    def test_orphan_close_preserved(self):
        assert split_reasoning("a</think>b")[0] == "a</think>b"

    def test_multiline_contents(self):
        assert split_reasoning("<think>line1\nline2</think>rest")[0] == "rest"

    def test_split_reasoning_returns_removed_text(self):
        clean, reasoning = split_reasoning("<think>first</think>x<think>second</think>")
        assert clean == "x"
        assert reasoning == "first\nsecond"

    @given(
        st.lists(
            st.sampled_from(["<think>", "</think>", "text ", '{"a": 1}', "\n"]),
            max_size=12,
        )
    )
    def test_idempotent(self, tokens):
        raw = "".join(tokens)
        once = split_reasoning(raw)[0]
        assert split_reasoning(once)[0] == once

    @settings(max_examples=500)
    @given(
        st.lists(
            st.sampled_from(
                ["<think>", "</think>", "<think", "think>", "x", "\n", "<", "/", ">"]
            ),
            max_size=14,
        )
    )
    def test_matches_regex_reference(self, tokens):
        raw = "".join(tokens)
        assert split_reasoning(raw) == reference_split_reasoning(raw)


class TestExtractLastJson:
    def test_last_of_several_objects(self):
        assert extract_last_json_object('noise {"a":1} tail {"annotations":[]}') == {
            "annotations": []
        }

    def test_whole_input(self):
        assert extract_last_json_object('{"annotations":[]}') == {"annotations": []}

    def test_brace_inside_string_does_not_terminate(self):
        assert extract_last_json_object('{"a": "}" }') == {"a": "}"}

    def test_escaped_quote_inside_string(self):
        assert extract_last_json_object('{"a": "say \\"}\\" ok"}') == {"a": 'say "}" ok'}

    def test_nested_object_returns_top_level(self):
        assert extract_last_json_object('x {"a": {"b": 1}} y') == {"a": {"b": 1}}

    def test_invalid_outer_falls_back_to_inner(self):
        assert extract_last_json_object('say {oops {"a":1} }') == {"a": 1}

    def test_unterminated_then_valid(self):
        assert extract_last_json_object('{broken {"a": 2}') == {"a": 2}

    def test_failed_candidate_next_to_valid_one(self):
        assert extract_last_json_object('{{"a": 2}') == {"a": 2}

    def test_no_object_raises(self):
        with pytest.raises(GroundingError, match="no parseable top-level JSON object"):
            extract_last_json_object("nothing here [1, 2, 3]")

    def test_lone_surrogate_escape_makes_a_candidate_invalid(self):
        # the inner object holds the escape too, so neither is taken
        text = '{"a": 1} {"b": [{"c": "x \\ud800"}]} {"d": "\\uD83D\\uDE00"} {"e": "\\uDc00"}'
        assert extract_last_json_object(text) == {"d": "\U0001F600"}
        with pytest.raises(GroundingError, match="no parseable top-level JSON object"):
            extract_last_json_object('{"annotations": [], "reason": "\\udfff"}')

    def test_too_deep_outer_falls_back_to_inner(self):
        # the decoder gives up on the outer objects; the outermost one
        # it can decode is returned
        obj = extract_last_json_object('{"a": ' * 3000 + "1" + "}" * 3000)
        depth = 0
        while isinstance(obj, dict):
            obj, depth = obj["a"], depth + 1
        assert obj == 1 and 0 < depth < 3000

    @settings(max_examples=500)
    @given(
        st.lists(
            st.sampled_from(
                ["{", "}", '"', "\\", ":", ",", "1", "a", "[", "]", '"a"', '{"a":1}',
                 "null", " "]
            ),
            max_size=14,
        )
    )
    def test_matches_brace_scanner_reference(self, tokens):
        text = "".join(tokens)
        assert outcome(extract_last_json_object, text) == outcome(
            reference_extract_last_json_object, text
        )


class TestHostileReplies:
    """Truncated or hostile replies must each finish well inside a
    worker's budget. A ``{`` that cannot start an object is skipped
    without a decode; each attempted one still copies the rest of the
    reply."""

    @pytest.mark.parametrize("text", [
        '{"a": ' * 8_000,
        '{"x":[0,0,' * 4_800,
    ], ids=["48k-unclosed-objects", "48k-unclosed-nested-arrays"])
    def test_unclosed_objects_finish_fast(self, text):
        started = time.perf_counter()
        with pytest.raises(GroundingError, match="no parseable top-level JSON object"):
            extract_last_json_object(text)
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("text", [
        "{" * 128_000,
        '{"' * 64_000,
    ], ids=["128k-bare-braces", "128k-brace-quote-pairs"])
    def test_packed_braces_finish_fast(self, text):
        started = time.perf_counter()
        with pytest.raises(GroundingError, match="no parseable top-level JSON object"):
            extract_last_json_object(text)
        assert time.perf_counter() - started < 2.0

    def test_unclosed_think_tags_finish_fast(self):
        raw = "<think>" * 16_000  # 112k chars
        started = time.perf_counter()
        assert split_reasoning(raw) == (raw, "")
        assert time.perf_counter() - started < 5.0

    def test_too_deep_reply_is_a_failed_attempt(self):
        dataset = make_dataset({"a": "the cat sat"})
        deep = '{"annotations": ' * 3000 + "[]" + "}" * 3000
        valid = json.dumps({"annotations": [{"text": "cat", "type": 0}]})
        adapter = MockAdapter({"a": [deep, valid]})
        aset, trace = annotate_example(
            dataset["a"], dataset, AnnotatorConfig(model_id="m"), adapter
        )
        assert [(s.start, s.end) for s in aset] == [(4, 7)]
        assert trace.retries == 1 and not trace.failed


class TestParsePayload:
    def test_valid_item(self):
        raws, report = parse_annotation_payload(
            {"annotations": [{"reason": "r", "text": "t", "type": 2}]}, k=6
        )
        assert raws == [RawAnnotation("r", "t", 2)]
        assert report.grounded == 0 and report.dropped == 0

    def test_bad_category_dropped(self):
        raws, report = parse_annotation_payload(
            {"annotations": [{"reason": "r", "text": "t", "type": 9}]}, k=6
        )
        assert raws == []
        assert report.dropped_bad_category == 1

    def test_empty_list_is_valid(self):
        raws, report = parse_annotation_payload({"annotations": []}, k=6)
        assert raws == [] and report.dropped == 0

    def test_missing_reason_becomes_empty(self):
        raws, _ = parse_annotation_payload(
            {"annotations": [{"text": "t", "type": 0}]}, k=6
        )
        assert raws[0].reason == ""

    def test_annotation_type_alias(self):
        raws, _ = parse_annotation_payload(
            {"annotations": [{"reason": "", "text": "t", "annotation_type": 1}]}, k=6
        )
        assert raws[0].type == 1

    @pytest.mark.parametrize(
        "item",
        [
            {"reason": "r", "type": 0},                       # no text
            {"reason": "r", "text": "", "type": 0},           # empty surface
            {"reason": "r", "text": "t", "type": "0"},        # string type
            {"reason": "r", "text": "t", "type": True},       # bool type
            {"reason": 3, "text": "t", "type": 0},            # non-string reason
            "not an object",
        ],
    )
    def test_malformed_items_dropped(self, item):
        raws, report = parse_annotation_payload({"annotations": [item]}, k=6)
        assert raws == []
        assert report.dropped_malformed == 1

    def test_missing_annotations_key(self):
        with pytest.raises(GroundingError, match='payload has no "annotations" key'):
            parse_annotation_payload({"spans": []}, k=6)

    def test_non_object_payload(self):
        with pytest.raises(GroundingError, match="payload is list, not an object"):
            parse_annotation_payload([1, 2], k=6)

    def test_non_list_annotations(self):
        with pytest.raises(GroundingError, match='"annotations" is str, not a list'):
            parse_annotation_payload({"annotations": "nope"}, k=6)

    def test_counts_add_up(self):
        payload = {
            "annotations": [
                {"reason": "", "text": "ok", "type": 0},
                {"reason": "", "text": "bad", "type": 99},
                {"bogus": 1},
            ]
        }
        raws, report = parse_annotation_payload(payload, k=6)
        assert len(raws) + report.dropped == 3


def raw(text, category=0, reason=""):
    return RawAnnotation(reason, text, category)


class TestGroundingReport:
    def test_merge_adds_every_counter(self):
        report = GroundingReport(1, 2, 3, 4, 5)
        report.merge(GroundingReport(10, 20, 30, 40, 50))
        assert report == GroundingReport(11, 22, 33, 44, 55)
        assert report.dropped == 22 + 33 + 44

    def test_merge_leaves_the_other_report_alone(self):
        report, other = GroundingReport(), GroundingReport(1, 1, 1, 1, 1)
        report.merge(other)
        report.merge(other)
        assert (report, other) == (GroundingReport(2, 2, 2, 2, 2), GroundingReport(1, 1, 1, 1, 1))


class TestGroundAnnotations:
    def test_cursor_advances_past_first_match(self):
        spans, report = ground_annotations(
            [raw("cat"), raw("cat")], "the cat sat on the cat"
        )
        assert [(s.start, s.end) for s in spans] == [(4, 7), (19, 22)]
        assert report.grounded == 2

    def test_whole_string_match(self):
        spans, _ = ground_annotations([raw("abc")], "abc")
        assert [(s.start, s.end) for s in spans] == [(0, 3)]

    def test_absent_surface_dropped(self):
        spans, report = ground_annotations([raw("xyz")], "abc")
        assert spans == []
        assert report.dropped_unmatched == 1

    def test_wrap_around_when_cursor_past_occurrence(self):
        # second surface occurs only before the cursor
        spans, report = ground_annotations(
            [raw("world"), raw("hello")], "hello world"
        )
        assert [(s.start, s.end) for s in spans] == [(6, 11), (0, 5)]
        assert report.dropped == 0

    def test_case_insensitive_fallback_is_flagged(self):
        spans, report = ground_annotations([raw("the cat")], "The Cat sat")
        assert [(s.start, s.end) for s in spans] == [(0, 7)]
        assert report.case_fallbacks == 1

    def test_case_fold_that_changes_length_drops_the_span(self):
        # 'İ'.lower() is two characters, so the lowered text's offsets
        # are one ahead of the text's: offset 14 would cover 'AD grammar'.
        text = "İstanbul has BAD grammar"
        assert len(text.lower()) == len(text) + 1
        spans, report = ground_annotations([raw("bad grammar")], text)
        assert spans == []
        assert report.dropped_unmatched == 1 and report.case_fallbacks == 0

    def test_exact_match_preferred_over_case_fold(self):
        spans, report = ground_annotations([raw("Cat")], "cat and Cat")
        assert spans[0].start == 8
        assert report.case_fallbacks == 0

    def test_grounded_spans_carry_surface_and_reason(self):
        spans, _ = ground_annotations([raw("cat", 2, "why")], "a cat")
        ann = spans[0]
        assert ann.surface == "cat" and ann.reason == "why" and ann.category == 2

    def test_unicode_offsets_are_scalar_positions(self):
        text = "größer und schöner"
        spans, _ = ground_annotations([raw("schöner")], text)
        assert text[spans[0].start : spans[0].end] == "schöner"

    @given(st.data())
    def test_round_trip_unique_surfaces(self, data):
        text = data.draw(
            st.text(alphabet="abcdefgh ", min_size=20, max_size=60), label="text"
        )
        n = data.draw(st.integers(1, 4), label="n")
        chosen = []
        surfaces = set()
        for i in range(n):
            start = data.draw(st.integers(0, len(text) - 2), label=f"start{i}")
            end = data.draw(st.integers(start + 1, len(text)), label=f"end{i}")
            surface = text[start:end]
            # unique at every offset: str.count skips overlapping matches
            if text.find(surface) != start or text.find(surface, start + 1) != -1:
                continue
            if surface in surfaces:
                continue
            surfaces.add(surface)
            chosen.append((start, end))
        chosen.sort()
        raws = [raw(text[s:e]) for s, e in chosen]
        spans, report = ground_annotations(raws, text)
        assert [(s.start, s.end) for s in spans] == chosen
        assert report.dropped == 0
