from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from spanagree.model import (
    AnnotationSet,
    Campaign,
    Category,
    CategorySet,
    Dataset,
    Example,
    ModelError,
    SpanAnnotation,
    normalize_annotation_set,
)

from conftest import make_categories


def S(start, end, category=0, **kw):
    return SpanAnnotation(start, end, category, **kw)


class TestSpanAnnotation:
    def test_length_is_end_minus_start(self):
        assert len(S(3, 10)) == 7

    def test_single_character_span_allowed(self):
        assert len(S(5, 6)) == 1

    @pytest.mark.parametrize("start,end", [(5, 5), (6, 5), (-1, 3)])
    def test_rejects_degenerate_offsets(self, start, end):
        with pytest.raises(ModelError):
            S(start, end)

    def test_rejects_negative_category(self):
        with pytest.raises(ModelError):
            S(0, 1, -1)


class TestCategory:
    def test_rejects_negative_index(self):
        with pytest.raises(ModelError, match=r"^category index must be non-negative, got -1$"):
            Category(-1, "a")

    def test_rejects_empty_name(self):
        with pytest.raises(ModelError, match=r"^category name must be non-empty$"):
            Category(0, "")


class TestCategorySet:
    def test_dense_indices_required(self):
        with pytest.raises(ModelError):
            CategorySet((Category(0, "a"), Category(2, "b")))

    def test_unique_names_required(self):
        with pytest.raises(ModelError):
            CategorySet((Category(0, "a"), Category(1, "a")))

    def test_lookup_by_index(self):
        cats = make_categories(3)
        assert cats[1] is cats.categories[1] and cats[1].name == "cat1"
        with pytest.raises(IndexError):
            cats[3]

    def test_lookup_by_name(self):
        cats = make_categories(3)
        assert cats.by_name("cat1").index == 1
        with pytest.raises(ModelError):
            cats.by_name("nope")


class TestNormalize:
    def test_sorts_by_start_end_category(self):
        aset, dropped = normalize_annotation_set(
            [S(5, 9, 0), S(0, 4, 1)], "x" * 10
        )
        assert [a.sort_key for a in aset] == [(0, 4, 1), (5, 9, 0)]
        assert dropped == ()

    def test_removes_exact_duplicates(self):
        aset, dropped = normalize_annotation_set([S(0, 4, 0), S(0, 4, 0)], "x" * 5)
        assert len(aset) == 1
        assert dropped == ()

    def test_duplicate_keeps_first_reason(self):
        aset, _ = normalize_annotation_set(
            [S(0, 4, 0, reason="first"), S(0, 4, 0, reason="second")], "x" * 5
        )
        assert aset.annotations[0].reason == "first"

    def test_no_overlap_drops_later_span(self):
        aset, dropped = normalize_annotation_set(
            [S(0, 6, 0), S(4, 8, 1)], "x" * 10, no_overlap=True
        )
        assert [a.sort_key for a in aset] == [(0, 6, 0)]
        assert [d.sort_key for d in dropped] == [(4, 8, 1)]

    def test_touching_spans_do_not_overlap(self):
        aset, dropped = normalize_annotation_set(
            [S(0, 4, 0), S(4, 8, 1)], "x" * 10, no_overlap=True
        )
        assert len(aset) == 2 and not dropped

    def test_out_of_bounds_rejected_with_span_identified(self):
        with pytest.raises(ModelError, match=r"span \[2, 12\) of category 0 exceeds text"):
            normalize_annotation_set([S(2, 12, 0)], "x" * 10)

    @given(
        st.lists(
            st.tuples(st.integers(0, 18), st.integers(1, 6), st.integers(0, 3)),
            max_size=12,
        ),
        st.booleans(),
    )
    def test_idempotent_and_fields_preserved(self, triples, no_overlap):
        text = "y" * 25
        spans = [S(s, min(25, s + l), c) for s, l, c in triples]
        once, _ = normalize_annotation_set(spans, text, no_overlap)
        twice, dropped = normalize_annotation_set(list(once), text, no_overlap)
        assert tuple(once) == tuple(twice)
        assert dropped == ()
        # survivors are untouched originals
        assert all(a in spans for a in once)

    @given(
        st.lists(
            st.tuples(st.integers(0, 18), st.integers(1, 6), st.integers(0, 3)),
            max_size=12,
        )
    )
    def test_no_overlap_output_is_pairwise_disjoint(self, triples):
        spans = [S(s, min(25, s + l), c) for s, l, c in triples]
        aset, _ = normalize_annotation_set(spans, "y" * 25, no_overlap=True)
        items = list(aset)
        for left, right in zip(items, items[1:]):
            assert left.end <= right.start


class TestAnnotationSet:
    def test_requires_sorted_annotations(self):
        with pytest.raises(ModelError):
            AnnotationSet("e", (S(5, 9), S(0, 4)))

    def test_empty_set_is_valid(self):
        assert len(AnnotationSet("e")) == 0


class TestDatasetAndCampaign:
    def test_duplicate_example_ids_rejected(self):
        ex = Example(id="a", text="hello", task="generic")
        with pytest.raises(ModelError):
            Dataset(examples=(ex, ex), categories=make_categories())

    def test_empty_id_rejected(self):
        with pytest.raises(ModelError, match=r"^example id must be non-empty$"):
            Example(id="", text="hello", task="generic")

    def test_lookup_of_unknown_id_rejected(self):
        dataset = Dataset((Example(id="a", text="hello"),), make_categories())
        assert dataset["a"].text == "hello"
        with pytest.raises(ModelError, match=r"^unknown example id 'b'$"):
            dataset["b"]

    def test_empty_text_rejected(self):
        with pytest.raises(ModelError):
            Example(id="a", text="", task="generic")

    def test_unknown_task_rejected(self):
        with pytest.raises(ModelError):
            Example(id="a", text="x", task="sonnets")

    def test_campaign_key_must_match_set(self):
        with pytest.raises(ModelError):
            Campaign("ann", {"a": AnnotationSet("b")})

    def test_absent_vs_empty_sets_are_distinct(self):
        campaign = Campaign("ann", {"a": AnnotationSet("a")})
        assert "a" in campaign.sets
        assert "b" not in campaign.sets

    def test_failed_ids_come_from_traces(self):
        from spanagree.model import Trace

        campaign = Campaign(
            "ann",
            {"a": AnnotationSet("a"), "b": AnnotationSet("b")},
            traces={"a": Trace(example_id="a", failed=True)},
        )
        assert campaign.failed_ids() == {"a"}
