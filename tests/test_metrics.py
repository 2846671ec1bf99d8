from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from spanagree.gamma import GammaConfig, gamma_score
from spanagree.metrics import (
    ConfusionMatrix,
    DegenerateVariance,
    MatchMode,
    MetricError,
    aggregate,
    annotation_stats,
    char_overlap,
    confusion_matrix,
    example_f1,
    example_precision,
    example_recall,
    pearson_counts,
    s_empty,
    _overlap_scores,
)
from spanagree.model import AnnotationSet, Campaign, SpanAnnotation, Trace

from conftest import as_set, make_campaign, make_dataset, random_spans


def S(start, end, category=0):
    return SpanAnnotation(start, end, category)


HARD, SOFT = MatchMode.HARD, MatchMode.SOFT


class TestCharOverlap:
    def test_identity(self):
        assert char_overlap(S(0, 10), S(0, 10)) == 10

    def test_partial(self):
        assert char_overlap(S(0, 10), S(5, 15)) == 5

    def test_disjoint(self):
        assert char_overlap(S(0, 5), S(10, 15)) == 0

    def test_touching_is_zero(self):
        assert char_overlap(S(0, 5), S(5, 10)) == 0


class TestPrecisionRecallF1:
    def test_exact_match_full_credit(self):
        assert example_precision([S(0, 10, 0)], [S(0, 10, 0)], HARD) == 1.0

    def test_half_overlap(self):
        assert example_precision([S(0, 10, 0)], [S(5, 15, 0)], HARD) == pytest.approx(0.5, abs=1e-15)

    def test_category_mismatch_kills_hard_not_soft(self):
        cand, ref = [S(0, 10, 0)], [S(5, 15, 1)]
        assert example_precision(cand, ref, HARD) == 0.0
        assert example_precision(cand, ref, SOFT) == pytest.approx(0.5, abs=1e-15)

    def test_credit_clamped_at_one(self):
        # two overlapping reference spans both cover the candidate fully
        cand = [S(2, 8, 0)]
        ref = [S(0, 10, 0), S(1, 9, 0)]
        assert example_precision(cand, ref, HARD) == 1.0

    def test_empty_candidate_raises(self):
        with pytest.raises(MetricError, match="precision undefined for an empty candidate set"):
            example_precision([], [S(0, 10, 0)], HARD)

    def test_recall_is_swapped_precision(self):
        cand, ref = [S(0, 10, 0)], [S(0, 20, 0)]
        assert example_recall(cand, ref, HARD) == pytest.approx(0.5, abs=1e-15)
        assert example_recall(cand, ref, HARD) == example_precision(ref, cand, HARD)

    def test_empty_reference_raises(self):
        with pytest.raises(MetricError, match="recall undefined for an empty reference set"):
            example_recall([S(0, 10, 0)], [], HARD)

    def test_f1_of_equal_halves(self):
        cand, ref = [S(0, 10, 0)], [S(5, 15, 0)]
        assert example_f1(cand, ref, HARD) == pytest.approx(0.5, abs=1e-15)

    def test_f1_zero_sum_guard(self):
        cand, ref = [S(0, 10, 0)], [S(50, 60, 0)]
        assert example_f1(cand, ref, HARD) == 0.0

    def test_identity_scores_one_in_both_modes(self):
        spans = [S(0, 10, 0), S(20, 25, 2)]
        for mode in (HARD, SOFT):
            assert example_precision(spans, list(spans), mode) == 1.0
            assert example_recall(spans, list(spans), mode) == 1.0
            assert example_f1(spans, list(spans), mode) == 1.0

    @given(st.data())
    def test_duality_property(self, data):
        def draw_spans(label):
            triples = data.draw(
                st.lists(
                    st.tuples(st.integers(0, 20), st.integers(1, 8), st.integers(0, 2)),
                    min_size=1,
                    max_size=6,
                ),
                label=label,
            )
            return [S(s, s + l, c) for s, l, c in triples]

        a, g = draw_spans("a"), draw_spans("g")
        for mode in (HARD, SOFT):
            assert example_precision(a, g, mode) == pytest.approx(
                example_recall(g, a, mode), abs=1e-12
            )

    @given(st.data())
    def test_soft_dominates_hard_and_bounds(self, data):
        def draw_spans(label):
            triples = data.draw(
                st.lists(
                    st.tuples(st.integers(0, 20), st.integers(1, 8), st.integers(0, 2)),
                    min_size=1,
                    max_size=6,
                ),
                label=label,
            )
            return [S(s, s + l, c) for s, l, c in triples]

        a, g = draw_spans("a"), draw_spans("g")
        ph, ps = example_precision(a, g, HARD), example_precision(a, g, SOFT)
        rh, rs = example_recall(a, g, HARD), example_recall(a, g, SOFT)
        fh, fs = example_f1(a, g, HARD), example_f1(a, g, SOFT)
        for value in (ph, ps, rh, rs, fh, fs):
            assert 0.0 <= value <= 1.0
        assert ps >= ph and rs >= rh and fs >= fh

    def test_soft_invariant_under_category_relabeling(self):
        rng = random.Random(2)
        perm = [2, 0, 1]
        for _ in range(20):
            a = random_spans(rng, 30, rng.randint(1, 5), k=3)
            g = random_spans(rng, 30, rng.randint(1, 5), k=3)
            a2 = [S(x.start, x.end, perm[x.category]) for x in a]
            g2 = [S(x.start, x.end, perm[x.category]) for x in g]
            assert example_precision(a, g, SOFT) == example_precision(a2, g2, SOFT)
            assert example_f1(a, g, SOFT) == example_f1(a2, g2, SOFT)


class TestPearson:
    def test_identical_counts(self):
        assert pearson_counts([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        assert pearson_counts([0, 1, 2, 3], [3, 2, 1, 0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_point_eight(self):
        assert pearson_counts([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateVariance):
            pearson_counts([2, 2, 2], [1, 2, 3])

    def test_too_short_degenerate(self):
        with pytest.raises(DegenerateVariance):
            pearson_counts([1], [2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_counts([1, 2], [1, 2, 3])


class TestSEmpty:
    def test_both_empty_perfect(self):
        assert s_empty([], []) == 1.0

    def test_reference_empty_candidate_three(self):
        assert s_empty([S(0, 1), S(2, 3), S(4, 5)], []) == pytest.approx(0.25, abs=1e-15)

    def test_candidate_empty_reference_one(self):
        assert s_empty([], [S(0, 10, 0)]) == pytest.approx(0.5, abs=1e-15)

    def test_both_non_empty_not_applicable(self):
        with pytest.raises(MetricError, match="both sets are non-empty; use the overlap metrics"):
            s_empty([S(0, 1)], [S(0, 1)])


def _desk_fixture():
    """Four-example fixture with every metric value derived by hand."""
    texts = {f"e{i}": "x" * 40 for i in range(1, 5)}
    dataset = make_dataset(texts, k=3)
    ref = make_campaign(
        "ref",
        {
            "e1": as_set("e1", [S(0, 10, 0)]),
            "e2": as_set("e2", [S(5, 15, 1)]),
            "e3": as_set("e3", []),
            "e4": as_set("e4", [S(0, 10, 0)]),
        },
    )
    cand = make_campaign(
        "cand",
        {
            "e1": as_set("e1", [S(0, 10, 0)]),
            "e2": as_set("e2", [S(0, 10, 0)]),
            "e3": as_set("e3", [S(0, 5, 2), S(6, 9, 1), S(10, 12, 0)]),
            "e4": as_set("e4", []),
        },
    )
    return dataset, ref, cand


class TestAggregate:
    def test_self_evaluation_is_perfect(self):
        rng = random.Random(1)
        texts = {f"e{i}": "x" * 50 for i in range(5)}
        dataset = make_dataset(texts)
        sets = {
            eid: as_set(eid, random_spans(rng, 50, i + 1)) for i, eid in enumerate(sorted(texts))
        }
        campaign = make_campaign("a", sets)
        report = aggregate(dataset, campaign, campaign)
        assert report.precision_hard == report.recall_hard == report.f1_hard == 1.0
        assert report.precision_soft == report.recall_soft == report.f1_soft == 1.0
        assert report.gamma == 1.0
        assert report.pearson == pytest.approx(1.0, abs=1e-12)
        assert report.f1_delta == 0.0

    def test_zero_expected_disorder_counts_as_skipped_gamma(self):
        dataset = make_dataset({"x": "ab", "y": "abcdef"})
        ref = make_campaign("r", {
            "x": as_set("x", [SpanAnnotation(0, 1, 0)]),
            "y": as_set("y", [SpanAnnotation(0, 3, 1)]),
        })
        cand = make_campaign("c", {
            "x": as_set("x", [SpanAnnotation(1, 2, 0)]),
            "y": as_set("y", [SpanAnnotation(0, 3, 1)]),
        })
        # x has zero expected disorder (test_gamma.py, TestGammaScore)
        report = aggregate(dataset, ref, cand, GammaConfig(n_samples=1, seed=0))
        assert report.n_scored == 2
        assert report.n_gamma_scored == 1 and report.n_gamma_skipped == 1
        # only y, which agrees exactly, enters the mean
        assert report.gamma == 1.0

    def test_means_sum_left_to_right_on_every_python(self):
        # ten precisions of 0.1 add up to 0.9999999999999999 from the left;
        # Python 3.12's compensated sum() gives exactly 1.0, so a mean of 0.1
        texts = {f"e{i}": "x" * 20 for i in range(10)}
        dataset = make_dataset(texts)
        ref = make_campaign("ref", {eid: as_set(eid, [S(9, 19, 0)]) for eid in texts})
        cand = make_campaign("cand", {eid: as_set(eid, [S(0, 10, 0)]) for eid in texts})
        report = aggregate(dataset, ref, cand, GammaConfig(n_samples=1))
        assert report.precision_hard == 0.09999999999999999

    def test_desk_fixture_hand_computed(self):
        dataset, ref, cand = _desk_fixture()
        report = aggregate(dataset, ref, cand, GammaConfig(n_samples=5, seed=1))
        # scored pool: e1 (exact match), e2 (half overlap, wrong category)
        assert report.n_scored == 2
        assert report.precision_hard == pytest.approx((1.0 + 0.0) / 2, abs=1e-12)
        assert report.recall_hard == pytest.approx(0.5, abs=1e-12)
        assert report.f1_hard == pytest.approx(0.5, abs=1e-12)
        assert report.precision_soft == pytest.approx((1.0 + 0.5) / 2, abs=1e-12)
        assert report.f1_soft == pytest.approx(0.75, abs=1e-12)
        assert report.f1_delta == pytest.approx(0.25, abs=1e-12)
        # empty-routed pool: e3 (cand 3 vs ref 0 -> 0.25), e4 (cand 0 vs ref 1 -> 0.5)
        assert report.n_empty_scored == 2
        assert report.s_empty == pytest.approx(0.375, abs=1e-12)
        # counts: ref [1,1,0,1], cand [1,1,3,0] -> r = -7/sqrt(57)
        assert report.pearson == pytest.approx(-7 / math.sqrt(57), abs=1e-12)
        assert report.n_failed == 0
        assert report.n_gamma_scored == 2
        assert report.gamma is not None and report.gamma <= 1.0

    def test_all_candidate_sets_empty(self):
        texts = {"e1": "x" * 20, "e2": "x" * 20}
        dataset = make_dataset(texts)
        ref = make_campaign(
            "ref",
            {
                "e1": as_set("e1", [S(0, 5, 0)]),
                "e2": as_set("e2", [S(0, 5, 0), S(6, 9, 1), S(10, 14, 2)]),
            },
        )
        cand = make_campaign("cand", {"e1": as_set("e1", []), "e2": as_set("e2", [])})
        report = aggregate(dataset, ref, cand)
        assert report.n_scored == 0
        assert report.f1_hard is None and report.gamma is None
        assert report.s_empty == pytest.approx((0.5 + 0.25) / 2, abs=1e-12)

    def test_example_id_mismatch(self):
        dataset = make_dataset({"e1": "x" * 10, "e2": "x" * 10})
        ref = make_campaign("ref", {"e1": as_set("e1", [])})
        cand = make_campaign("cand", {"e2": as_set("e2", [])})
        with pytest.raises(MetricError, match="campaigns cover different examples"):
            aggregate(dataset, ref, cand)

    def test_failed_examples_excluded_from_all_pools(self):
        texts = {"e1": "x" * 20, "e2": "x" * 20, "e3": "x" * 20}
        dataset = make_dataset(texts)
        ref = make_campaign(
            "ref",
            {eid: as_set(eid, [S(0, 5, 0)]) for eid in texts},
        )
        cand = Campaign(
            "cand",
            {
                "e1": as_set("e1", [S(0, 5, 0)]),
                "e2": as_set("e2", []),  # failed, not genuinely empty
                "e3": as_set("e3", [S(0, 5, 0), S(6, 10, 1)]),
            },
            traces={"e2": Trace(example_id="e2", failed=True)},
        )
        report = aggregate(dataset, ref, cand)
        assert report.n_failed == 1
        assert report.n_scored == 2
        assert report.n_empty_scored == 0
        assert report.s_empty is None
        statuses = {r.example_id: r.status for r in report.examples}
        assert statuses["e2"] == "failed"

    def test_deterministic(self):
        import json

        from spanagree.report import report_to_dict

        dataset, ref, cand = _desk_fixture()
        a = aggregate(dataset, ref, cand)
        b = aggregate(dataset, ref, cand)
        assert a == b
        assert json.dumps(report_to_dict(a)) == json.dumps(report_to_dict(b))

    def test_means_match_per_example_table(self):
        rng = random.Random(8)
        texts = {f"e{i}": "x" * 40 for i in range(8)}
        dataset = make_dataset(texts)
        ref = make_campaign(
            "ref",
            {eid: as_set(eid, random_spans(rng, 40, rng.randint(0, 3)))
             for eid in texts},
        )
        cand = make_campaign(
            "cand",
            {eid: as_set(eid, random_spans(rng, 40, rng.randint(0, 3)))
             for eid in texts},
        )
        report = aggregate(dataset, ref, cand, GammaConfig(n_samples=3, seed=2))
        scored = [r for r in report.examples if r.status == "scored"]
        empties = [r for r in report.examples if r.status == "s_empty"]
        if scored:
            assert report.f1_hard == pytest.approx(
                sum(r.f1_hard for r in scored) / len(scored), abs=1e-12
            )
            assert report.precision_soft == pytest.approx(
                sum(r.precision_soft for r in scored) / len(scored), abs=1e-12
            )
        if empties:
            assert report.s_empty == pytest.approx(
                sum(r.s_empty for r in empties) / len(empties), abs=1e-12
            )
        for row in scored:
            assert row.s_empty is None
            assert row.f1_soft >= row.f1_hard
        for row in empties:
            assert row.f1_hard is None and row.s_empty is not None


    def test_per_example_scores_equal_the_metric_functions_exactly(self):
        rng = random.Random(31)
        texts = {f"e{i}": "x" * 60 for i in range(30)}
        sides = [
            make_campaign(
                name,
                {eid: as_set(eid, random_spans(rng, 60, rng.randint(1, 5)))
                 for eid in texts},
            )
            for name in ("ref", "cand")
        ]
        ref, cand = sides
        report = aggregate(make_dataset(texts), ref, cand, GammaConfig(n_samples=1))
        for row in report.examples:
            c, r = cand.sets[row.example_id], ref.sets[row.example_id]
            for mode, p, rc, f1 in (
                (MatchMode.HARD, row.precision_hard, row.recall_hard, row.f1_hard),
                (MatchMode.SOFT, row.precision_soft, row.recall_soft, row.f1_soft),
            ):
                assert p == example_precision(c, r, mode)
                assert rc == example_recall(c, r, mode)
                assert f1 == example_f1(c, r, mode)


def _overlap_sets(rng, text_len):
    """A random span set sorted by start, with nested spans, shared
    starts, touching spans and, mostly, one span longer than all others."""
    spans = set()
    for _ in range(rng.randint(1, 25)):
        length = rng.randint(1, 12)
        start = rng.randint(0, text_len - length)
        end = start + length
        spans.add((start, end, rng.randint(0, 2)))
        kind = rng.randrange(4)
        if kind == 0 and length > 2:  # nested
            spans.add((start + 1, end - 1, rng.randint(0, 2)))
        elif kind == 1:  # shared start
            spans.add((start, start + rng.randint(1, 12), rng.randint(0, 2)))
        elif kind == 2 and end < text_len:  # touching
            spans.add((end, min(text_len, end + rng.randint(1, 12)), rng.randint(0, 2)))
    if rng.random() < 0.8:
        length = rng.randint(13, text_len)
        start = rng.randint(0, text_len - length)
        spans.add((start, start + length, rng.randint(0, 2)))
    return tuple(SpanAnnotation(*span) for span in sorted(spans))


def all_pairs_confusion_matrix(reference, candidate, k):
    """confusion_matrix as it was before it windowed its candidates: every
    reference span is compared with every candidate span."""
    counts = [[0] * k for _ in range(k)]
    failed = reference.failed_ids() | candidate.failed_ids()
    for example_id in sorted((set(reference.sets) & set(candidate.sets)) - failed):
        cand_set = candidate.sets[example_id]
        for ref_ann in reference.sets[example_id]:
            best = None
            best_overlap = 0
            for cand_ann in cand_set:
                overlap = char_overlap(ref_ann, cand_ann)
                if overlap > best_overlap:
                    best = cand_ann
                    best_overlap = overlap
            if best is not None:
                counts[ref_ann.category][best.category] += 1
    return ConfusionMatrix(tuple(map(tuple, counts)))


class TestOverlapPass:
    """aggregate's one pass over overlapping pairs and confusion_matrix's
    window, against the all-pairs functions they replace."""

    def test_scores_equal_the_public_functions(self):
        rng = random.Random(47)
        for _ in range(300):
            text_len = rng.randint(14, 150)
            cand, ref = _overlap_sets(rng, text_len), _overlap_sets(rng, text_len)
            assert _overlap_scores(cand, ref) == (
                example_precision(cand, ref, HARD),
                example_recall(cand, ref, HARD),
                example_precision(cand, ref, SOFT),
                example_recall(cand, ref, SOFT),
            )

    def test_confusion_equals_all_pairs(self):
        rng = random.Random(53)
        sides = {"ref": {}, "cand": {}}
        for index in range(200):
            eid = f"e{index}"
            text_len = rng.randint(14, 150)
            for sets in sides.values():
                spans = _overlap_sets(rng, text_len) if rng.random() < 0.95 else ()
                sets[eid] = AnnotationSet(eid, spans)
        ref, cand = (Campaign(name, sets) for name, sets in sides.items())
        got = confusion_matrix(ref, cand, 3)
        assert got == all_pairs_confusion_matrix(ref, cand, 3)
        assert sum(map(sum, got.counts)) > 1000


class TestLongDocument:
    """Scoring a long document visits only the span pairs that can count,
    so 800 spans a side over 200,000 characters take well under a second
    of CPU each. On a 2-vCPU Xeon with Python 3.11, visiting every pair
    took 6.0-6.2 s (gamma_score) and 6.1-7.4 s (aggregate); the windows
    take 0.09-0.12 s for each."""

    def test_gamma_and_aggregate_finish_fast(self):
        rng = random.Random(2024)
        text_len = 200_000

        def spans():
            units = set()
            while len(units) < 800:
                length = rng.randint(1, 60)
                start = rng.randint(0, text_len - length)
                units.add((start, start + length, rng.randint(0, 3)))
            return AnnotationSet("long", tuple(SpanAnnotation(*u) for u in sorted(units)))

        ref = make_campaign("ref", {"long": spans()})
        cand = make_campaign("cand", {"long": spans()})
        dataset = make_dataset({"long": "x" * text_len})
        started = time.process_time()
        gamma = gamma_score(ref.sets["long"], cand.sets["long"], text_len, GammaConfig(), "long")
        assert time.process_time() - started < 1.0
        started = time.process_time()
        report = aggregate(dataset, ref, cand, GammaConfig())
        assert time.process_time() - started < 1.0
        assert report.examples[0].gamma == gamma


class TestConfusionMatrix:
    def test_exact_matches_are_diagonal(self):
        texts = {"e1": "x" * 20}
        ref = make_campaign("r", {"e1": as_set("e1", [S(0, 5, 0), S(6, 10, 2)])})
        cand = make_campaign("c", {"e1": as_set("e1", [S(0, 5, 0), S(6, 10, 2)])})
        cm = confusion_matrix(ref, cand, k=3)
        assert cm.counts == ((1, 0, 0), (0, 0, 0), (0, 0, 1))

    def test_cross_category_pairing(self):
        ref = make_campaign("r", {"e1": as_set("e1", [S(0, 10, 0)])})
        cand = make_campaign("c", {"e1": as_set("e1", [S(5, 15, 2)])})
        cm = confusion_matrix(ref, cand, k=3)
        assert cm.counts[0][2] == 1 and sum(map(sum, cm.counts)) == 1

    def test_unpaired_when_no_overlap(self):
        ref = make_campaign("r", {"e1": as_set("e1", [S(0, 10, 0)])})
        cand = make_campaign("c", {"e1": as_set("e1", [])})
        cm = confusion_matrix(ref, cand, k=3)
        assert sum(map(sum, cm.counts)) == 0

    def test_tie_goes_to_lower_start(self):
        # both candidates overlap the reference by 5; lower start wins
        ref = make_campaign("r", {"e1": as_set("e1", [S(5, 15, 0)])})
        cand = make_campaign("c", {"e1": as_set("e1", [S(0, 10, 1), S(10, 20, 2)])})
        cm = confusion_matrix(ref, cand, k=3)
        assert cm.counts[0][1] == 1 and cm.counts[0][2] == 0

    def test_normalized_rows_sum_to_one_or_zero(self):
        ref = make_campaign("r", {"e1": as_set("e1", [S(0, 10, 0), S(12, 20, 0)])})
        cand = make_campaign("c", {"e1": as_set("e1", [S(0, 10, 1), S(12, 20, 2)])})
        cm = confusion_matrix(ref, cand, k=3)
        norm = cm.normalized()
        sums = [sum(row) for row in norm]
        assert sums[0] == pytest.approx(1.0)
        assert sums[1] == 0.0 and sums[2] == 0.0

    def test_total_bounded_by_reference_annotations(self):
        rng = random.Random(19)
        for _ in range(20):
            ref_spans = random_spans(rng, 40, rng.randint(0, 5), k=3)
            cand_spans = random_spans(rng, 40, rng.randint(0, 5), k=3)
            ref = make_campaign("r", {"e1": as_set("e1", ref_spans)})
            cand = make_campaign("c", {"e1": as_set("e1", cand_spans)})
            cm = confusion_matrix(ref, cand, k=3)
            assert all(c >= 0 for row in cm.counts for c in row)
            assert sum(map(sum, cm.counts)) <= len(ref_spans)

    @pytest.mark.parametrize("failed_side", ["reference", "candidate"])
    def test_failed_examples_skipped_like_aggregate(self, failed_side):
        # e2's candidate span would count as a category 0 -> 1 confusion
        failed = {"e2": Trace(example_id="e2", failed=True)}
        ref = Campaign(
            "r",
            {"e1": as_set("e1", [S(0, 5, 0)]), "e2": as_set("e2", [S(0, 5, 0)])},
            traces=failed if failed_side == "reference" else {},
        )
        cand = Campaign(
            "c",
            {"e1": as_set("e1", [S(0, 5, 0)]), "e2": as_set("e2", [S(0, 5, 1)])},
            traces=failed if failed_side == "candidate" else {},
        )
        assert confusion_matrix(ref, cand, k=2).counts == ((1, 0), (0, 0))


class TestAnnotationStats:
    def test_hand_computed(self):
        campaign = make_campaign(
            "a",
            {
                "e1": as_set("e1", [S(0, 10, 0), S(12, 32, 1)]),
                "e2": as_set("e2", []),
            },
        )
        stats = annotation_stats(campaign)
        assert stats.annotations == 2
        assert stats.annotations_per_example == pytest.approx(1.0)
        assert stats.pct_examples_empty == pytest.approx(50.0)
        assert stats.chars_per_annotation == pytest.approx(15.0)

    def test_all_empty(self):
        campaign = make_campaign("a", {"e1": as_set("e1", []), "e2": as_set("e2", [])})
        stats = annotation_stats(campaign)
        assert stats.annotations == 0
        assert stats.pct_examples_empty == 100.0
        assert stats.chars_per_annotation is None

    def test_single_span(self):
        campaign = make_campaign("a", {"e1": as_set("e1", [S(3, 10, 0)])})
        stats = annotation_stats(campaign)
        assert stats.chars_per_annotation == pytest.approx(7.0)

    def test_failed_examples_counted_separately(self):
        campaign = Campaign(
            "a",
            {"e1": as_set("e1", [S(0, 4, 0)]), "e2": as_set("e2", [])},
            traces={"e2": Trace(example_id="e2", failed=True)},
        )
        stats = annotation_stats(campaign)
        assert stats.n_examples == 1
        assert stats.n_failed == 1
        assert stats.pct_examples_empty == 0.0
