from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from spanagree.ingest import (
    IngestError,
    ParseError,
    bundled_category_file,
    check_object,
    decode_json,
    export_campaign,
    import_offset_tsv,
    load_campaign,
    load_category_file,
    load_dataset,
)
from spanagree.model import Campaign, SpanAnnotation, Trace

from conftest import as_set, write_bundled_categories


def S(start, end, category=0, **kw):
    return SpanAnnotation(start, end, category, **kw)


def write_corpus(path, rows):
    path.write_text(
        "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n",
        encoding="utf-8",
    )
    return path


class TestBundledCategories:
    @pytest.mark.parametrize("task,k", [("d2t", 6), ("mt", 2), ("propaganda", 18)])
    def test_k_matches_inventory(self, task, k):
        schema = bundled_category_file(task)
        assert schema.categories.k == k
        assert schema.task == task

    def test_mt_is_no_overlap(self):
        assert bundled_category_file("mt").no_overlap is True
        assert bundled_category_file("d2t").no_overlap is False

    def test_unknown_task(self):
        with pytest.raises(IngestError):
            bundled_category_file("poetry")

    def test_guidelines_present_where_expected(self):
        assert bundled_category_file("d2t").guidelines.startswith("Examples:")
        assert bundled_category_file("propaganda").guidelines == ""


class TestCheckObject:
    REQUIRED = {"n": int, "x": (int, float)}
    OPTIONAL = {"flag": bool, "name": str}

    @pytest.mark.parametrize("obj", [
        {"n": 1, "x": 2},
        {"n": 1, "x": 2.5, "flag": False, "name": "a"},
        {"n": 1, "x": 2, "flag": None, "name": None},
    ])
    def test_accepts(self, obj):
        check_object(obj, self.REQUIRED, self.OPTIONAL, "rec")

    @pytest.mark.parametrize("obj, message", [
        ([1], "rec: expected an object, got a list"),
        ({"n": 1}, r"rec: missing keys \['x'\]"),
        ({"n": 1, "x": 2, "z": 0}, r"rec: unknown keys \['z'\]"),
        ({"n": True, "x": 2}, "rec: 'n' must be an integer, got a boolean"),
        ({"n": 1, "x": False}, "rec: 'x' must be a number, got a boolean"),
        ({"n": 1.0, "x": 2}, "rec: 'n' must be an integer, got a number"),
        ({"n": None, "x": 2}, "rec: 'n' must be an integer, got null"),
        ({"n": 1, "x": "2"}, "rec: 'x' must be a number, got a string"),
        ({"n": 1, "x": 2, "flag": 1}, "rec: 'flag' must be a boolean, got an integer"),
    ])
    def test_rejects_naming_the_key(self, obj, message):
        with pytest.raises(IngestError, match=message):
            check_object(obj, self.REQUIRED, self.OPTIONAL, "rec")


class TestDecodeJson:
    @pytest.mark.parametrize("data, value", [
        ('"\\ud83d\\ude00"', "\U0001f600"),
        (b'"\\ud83d\\ude00"', "\U0001f600"),
        ('"\\uD83D\\uDE00"', "\U0001f600"),
        ('"\\\\ud800"', "\\ud800"),
    ], ids=["pair", "pair-bytes", "pair-upper", "escaped-backslash"])
    def test_valid_escapes_load(self, data, value):
        assert decode_json(data) == value

    @pytest.mark.parametrize("data, named", [
        ('"\\ud800"', "\\ud800"),
        (b'{"a": ["x\\uDC00"]}', "\\udc00"),
        ('{"\\ude00\\ud83d": 1}', "\\ude00"),
    ], ids=["high", "low-bytes-nested", "reversed-pair-key"])
    def test_lone_surrogate_raises_without_position(self, data, named):
        with pytest.raises(json.JSONDecodeError) as info:
            decode_json(data)
        assert str(info.value) == f"lone surrogate escape {named}"


class TestLoadCategoryFile:
    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "task": "generic", "no_overlap": False, "guidelines": "",
            "categories": [{"index": 0, "name": "a"}], "extra": 1,
        }))
        with pytest.raises(IngestError, match="unknown keys"):
            load_category_file(path)

    def test_rejects_sparse_indices(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "task": "generic", "no_overlap": False, "guidelines": "",
            "categories": [{"index": 1, "name": "a"}],
        }))
        with pytest.raises(IngestError):
            load_category_file(path)

    def test_accepts_exactly_256_categories(self, tmp_path):
        # 257 exits 2: tests/test_cli.py, evaluate-categories.json-257
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "task": "generic", "no_overlap": False, "guidelines": "",
            "categories": [{"index": i, "name": f"c{i}"} for i in range(256)],
        }))
        assert len(load_category_file(path).categories) == 256


class TestLoadDataset:
    def test_valid_two_line_corpus(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "d2t")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "alpha text", "source": "{}"},
            {"id": "b", "text": "beta text", "source": "{}"},
        ])
        dataset = load_dataset(corpus, categories)
        assert dataset.k == 6 and len(dataset) == 2
        assert dataset["a"].task == "d2t"

    def test_duplicate_id_reports_line(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "d2t")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "one"},
            {"id": "a", "text": "two"},
        ])
        with pytest.raises(ParseError, match=r":2: duplicate id 'a' \(first seen on line 1\)"):
            load_dataset(corpus, categories)

    def test_no_overlap_flag_propagates_from_mt(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "mt")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "uno", "source": "one"},
        ])
        dataset = load_dataset(corpus, categories)
        assert dataset.no_overlap is True

    def test_task_mismatch_fails(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "mt")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "x", "task": "propaganda"},
        ])
        with pytest.raises(ParseError, match="does not match"):
            load_dataset(corpus, categories)

    def test_null_task_takes_category_file_task(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "mt")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "x", "task": None},
        ])
        assert load_dataset(corpus, categories).examples[0].task == "mt"

    def test_invalid_json_line_number(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "d2t")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "text": "ok"}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(corpus, categories)

    def test_unknown_corpus_keys_rejected(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "d2t")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "x", "wat": True},
        ])
        with pytest.raises(ParseError, match="unknown keys"):
            load_dataset(corpus, categories)


@pytest.fixture
def small_dataset(tmp_path):
    categories = write_bundled_categories(tmp_path, "d2t")
    corpus = write_corpus(tmp_path / "corpus.jsonl", [
        {"id": "a", "text": "alpha beta gamma delta"},
        {"id": "b", "text": "the quick brown fox jumps"},
    ])
    return load_dataset(corpus, categories)


class TestCampaignRoundTrip:
    def test_lossless_round_trip(self, tmp_path, small_dataset):
        campaign = Campaign(
            annotator_id="ann1",
            sets={
                "a": as_set("a", [
                    S(0, 5, 0, reason="why", surface="alpha"),
                    S(6, 10, 3),
                ]),
                "b": as_set("b", []),
            },
            traces={"b": Trace(example_id="b", failed=True)},
        )
        path = tmp_path / "camp.jsonl"
        export_campaign(campaign, path)
        loaded = load_campaign(path, small_dataset)
        assert loaded.annotator_id == "ann1"
        assert dict(loaded.sets) == dict(campaign.sets)
        assert loaded.failed_ids() == {"b"}

    def test_empty_set_survives_as_empty_not_absent(self, tmp_path, small_dataset):
        campaign = Campaign("ann", {"a": as_set("a", [])})
        path = tmp_path / "camp.jsonl"
        export_campaign(campaign, path)
        loaded = load_campaign(path, small_dataset)
        assert "a" in loaded.sets and len(loaded.sets["a"]) == 0
        assert "b" not in loaded.sets

    def test_unknown_example_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "zzz", "annotator_id": "x", "annotations": [],
        }) + "\n")
        with pytest.raises(ParseError, match=":1: unknown example 'zzz'"):
            load_campaign(path, small_dataset)

    def test_repeated_example_names_both_lines(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text("".join(
            json.dumps({"example_id": eid, "annotator_id": "x", "annotations": []}) + "\n"
            for eid in ("a", "b", "a")
        ))
        with pytest.raises(
            ParseError, match=r":3: duplicate example_id 'a' \(first seen on line 1\)$"
        ):
            load_campaign(path, small_dataset)

    @staticmethod
    def write_ids(path, ids):
        path.write_text("".join(
            json.dumps({"example_id": eid, "annotator_id": aid, "annotations": []}) + "\n"
            for eid, aid in zip("ab", ids)
        ))

    @pytest.mark.parametrize("ids", [("", "bob"), ("bob", "")],
                             ids=["empty-first", "empty-second"])
    def test_mixed_annotator_ids_rejected(self, tmp_path, small_dataset, ids):
        path = tmp_path / "camp.jsonl"
        self.write_ids(path, ids)
        with pytest.raises(ParseError, match="mixed annotator ids") as info:
            load_campaign(path, small_dataset)
        assert info.value.line == 2

    def test_empty_annotator_id_falls_back_to_file_stem(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        self.write_ids(path, ("", ""))
        assert load_campaign(path, small_dataset).annotator_id == "camp"

    def test_category_out_of_range_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [{"start": 0, "end": 3, "type": 6}],
        }) + "\n")
        with pytest.raises(ParseError, match=":1: category 6 out of range for k=6"):
            load_campaign(path, small_dataset)

    def test_out_of_bounds_span_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [{"start": 0, "end": 9999, "type": 0}],
        }) + "\n")
        with pytest.raises(ParseError, match=r":1: span \[0, 9999\) exceeds text length"):
            load_campaign(path, small_dataset)

    def test_overlap_rejected_for_no_overlap_task(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "mt")
        corpus = write_corpus(tmp_path / "c.jsonl", [
            {"id": "a", "text": "zehn Worte hier", "source": "ten words here"},
        ])
        dataset = load_dataset(corpus, categories)
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [
                {"start": 0, "end": 6, "type": 0},
                {"start": 4, "end": 8, "type": 1},
            ],
        }) + "\n")
        with pytest.raises(ParseError, match="overlapping"):
            load_campaign(path, dataset)

    def test_identical_spans_rejected_where_overlap_is_allowed(self, tmp_path, small_dataset):
        assert not small_dataset.no_overlap
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [
                {"start": 0, "end": 5, "type": 0},
                {"start": 2, "end": 5, "type": 0},
                {"start": 0, "end": 5, "type": 0, "reason": "again"},
            ],
        }) + "\n")
        with pytest.raises(
            ParseError, match=r":1: duplicate span \[0, 5\) of category 0 in example 'a'$"
        ):
            load_campaign(path, small_dataset)

    def test_same_offsets_in_two_categories_load(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [{"start": 0, "end": 5, "type": 1}, {"start": 0, "end": 5, "type": 0}],
        }) + "\n")
        loaded = load_campaign(path, small_dataset)
        assert [a.category for a in loaded.sets["a"]] == [0, 1]

    def test_loading_unsorted_file_sorts(self, tmp_path, small_dataset):
        path = tmp_path / "camp.jsonl"
        path.write_text(json.dumps({
            "example_id": "a", "annotator_id": "x",
            "annotations": [
                {"start": 6, "end": 10, "type": 0},
                {"start": 0, "end": 5, "type": 1},
            ],
        }) + "\n")
        loaded = load_campaign(path, small_dataset)
        assert [a.start for a in loaded.sets["a"]] == [0, 6]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("rt")
        categories = write_bundled_categories(tmp, "d2t")
        corpus = write_corpus(tmp / "corpus.jsonl", [
            {"id": "a", "text": "x" * 30},
            {"id": "b", "text": "y" * 30},
        ])
        dataset = load_dataset(corpus, categories)
        sets = {}
        for eid in ("a", "b"):
            triples = data.draw(
                st.lists(
                    st.tuples(st.integers(0, 24), st.integers(1, 5), st.integers(0, 5),
                              st.booleans()),
                    max_size=5,
                ),
                label=eid,
            )
            spans = [
                S(s, s + l, c, reason="r" if has_reason else None)
                for s, l, c, has_reason in triples
            ]
            # drop exact duplicates: annotate never writes two spans with the
            # same (start, end, category), and load_campaign rejects them
            unique = {(a.start, a.end, a.category): a for a in spans}
            sets[eid] = as_set(eid, list(unique.values()))
        campaign = Campaign("fuzz", sets)
        path = tmp / "camp.jsonl"
        export_campaign(campaign, path)
        loaded = load_campaign(path, dataset)
        assert dict(loaded.sets) == dict(campaign.sets)

    def test_order_insensitive_corpus_loading(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "d2t")
        rows = [
            {"id": "a", "text": "first text"},
            {"id": "b", "text": "second text"},
        ]
        d1 = load_dataset(write_corpus(tmp_path / "c1.jsonl", rows), categories)
        d2 = load_dataset(write_corpus(tmp_path / "c2.jsonl", rows[::-1]), categories)
        assert d1 == d2


class TestImportOffsetTsv:
    @pytest.fixture
    def propaganda_dataset(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "propaganda")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "art1", "text": "a" * 40},
            {"id": "art2", "text": "b" * 40},
        ])
        return load_dataset(corpus, categories)

    def test_row_maps_to_span(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("art1\tLoaded Language\t10\t25\n", encoding="utf-8")
        campaign = import_offset_tsv(path, propaganda_dataset)
        ann = campaign.sets["art1"].annotations[0]
        assert (ann.start, ann.end) == (10, 25)
        assert ann.category == propaganda_dataset.categories.by_name("Loaded Language").index

    def test_examples_without_rows_get_empty_sets(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("art1\tDoubt\t0\t5\n", encoding="utf-8")
        campaign = import_offset_tsv(path, propaganda_dataset)
        assert len(campaign.sets["art2"]) == 0

    def test_unknown_technique(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("art1\tGish Gallop\t0\t5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1: unknown category name: 'Gish Gallop'"):
            import_offset_tsv(path, propaganda_dataset)

    def test_end_not_after_start(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("art1\tDoubt\t5\t5\n", encoding="utf-8")
        with pytest.raises(
            ParseError, match=r":1: span must satisfy 0 <= start < end, got \[5, 5\)"
        ):
            import_offset_tsv(path, propaganda_dataset)

    def test_unknown_article(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("art9\tDoubt\t0\t5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1: unknown article 'art9'"):
            import_offset_tsv(path, propaganda_dataset)

    def test_row_not_utf8_names_file_line_and_byte(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_bytes(b"art1\tDoubt\t0\t5\nart2\tDou\xff\xfebt\t0\t5\n")
        with pytest.raises(ParseError, match=":2: not UTF-8 at byte 8$") as info:
            import_offset_tsv(path, propaganda_dataset)
        assert str(info.value).startswith(str(path))

    def test_crlf_rows_read_like_lf_rows(self, tmp_path, propaganda_dataset):
        path = tmp_path / "gold.tsv"
        path.write_bytes(b"art1\tDoubt\t0\t5\r\n\r\nart2\tRepetition\t3\t4\r\n")
        campaign = import_offset_tsv(path, propaganda_dataset)
        assert [(a.start, a.end) for a in campaign.sets["art2"]] == [(3, 4)]
        assert len(campaign.sets["art1"]) == 1

    @pytest.mark.parametrize("row, message", [
        ("art1\tDoubt\t0", "expected 4 fields, got 3"),
        ("art1\tDoubt\t0\tfive", "non-integer offsets: invalid literal for int()"),
    ], ids=["three-fields", "non-integer-offset"])
    def test_malformed_row(self, tmp_path, propaganda_dataset, row, message):
        path = tmp_path / "gold.tsv"
        path.write_text(f"art2\tDoubt\t0\t5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f":2: {re.escape(message)}"):
            import_offset_tsv(path, propaganda_dataset)

    @pytest.fixture
    def mt_dataset(self, tmp_path):
        categories = write_bundled_categories(tmp_path, "mt")
        corpus = write_corpus(tmp_path / "corpus.jsonl", [
            {"id": "a", "text": "zehn Worte hier", "source": "ten words here"},
            {"id": "b", "text": "noch ein Satz", "source": "one more sentence"},
        ])
        return load_dataset(corpus, categories)

    def test_overlap_rejected_for_no_overlap_task(self, tmp_path, mt_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("a\tMajor\t0\t9\nb\tMinor\t0\t4\na\tMinor\t4\t15\n", encoding="utf-8")
        with pytest.raises(IngestError) as info:
            import_offset_tsv(path, mt_dataset)
        assert str(info.value) == (
            f"{path}: overlapping annotations in a no-overlap task (example 'a')"
        )

    def test_identical_rows_rejected(self, tmp_path, propaganda_dataset):
        assert not propaganda_dataset.no_overlap
        path = tmp_path / "gold.tsv"
        path.write_text("art1\tDoubt\t0\t5\nart2\tDoubt\t0\t5\nart1\tDoubt\t0\t5\n",
                        encoding="utf-8")
        with pytest.raises(IngestError) as info:
            import_offset_tsv(path, propaganda_dataset)
        doubt = propaganda_dataset.categories.by_name("Doubt").index
        assert str(info.value) == (
            f"{path}: duplicate span [0, 5) of category {doubt} in example 'art1'"
        )

    def test_import_export_load_gives_equal_sets(self, tmp_path, mt_dataset):
        path = tmp_path / "gold.tsv"
        path.write_text("a\tMajor\t5\t10\nb\tMinor\t0\t4\na\tMinor\t0\t4\n", encoding="utf-8")
        imported = import_offset_tsv(path, mt_dataset)
        export_campaign(imported, tmp_path / "gold.jsonl")
        loaded = load_campaign(tmp_path / "gold.jsonl", mt_dataset)
        assert dict(loaded.sets) == dict(imported.sets)
        assert [(x.start, x.end) for x in loaded.sets["a"]] == [(0, 4), (5, 10)]

    def test_stats_of_import_match_independent_recount(self, tmp_path, propaganda_dataset):
        from spanagree.metrics import annotation_stats

        rows = [
            ("art1", "Doubt", 0, 5),
            ("art1", "Loaded Language", 10, 22),
            ("art2", "Repetition", 3, 4),
        ]
        path = tmp_path / "gold.tsv"
        path.write_text(
            "".join(f"{a}\t{t}\t{s}\t{e}\n" for a, t, s, e in rows), encoding="utf-8"
        )
        stats = annotation_stats(import_offset_tsv(path, propaganda_dataset))
        # recount straight from the raw rows, not through the campaign
        total = len(rows)
        n_examples = len(propaganda_dataset)
        covered = {a for a, *_ in rows}
        total_chars = sum(e - s for _, _, s, e in rows)
        assert stats.annotations == total
        assert stats.annotations_per_example == pytest.approx(total / n_examples)
        assert stats.pct_examples_empty == pytest.approx(
            100.0 * (n_examples - len(covered)) / n_examples
        )
        assert stats.chars_per_annotation == pytest.approx(total_chars / total)
