"""Similarity metrics between two annotation campaigns.

Per example, both-non-empty pairs get overlap-based precision/recall/F1
(hard requires matching categories, soft ignores them) plus the
alignment-based chance-corrected score; pairs where either side is
empty get the empty-agreement score instead. Count correlation runs
over all examples. Aggregates are unweighted means over the examples
where each metric is defined.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from typing import Callable, Iterable, Sequence

from .gamma import GammaConfig, gamma_score
from .model import Campaign, Dataset, FrozenRecord, SpanAnnotation


class MatchMode(str, Enum):
    HARD = "hard"
    SOFT = "soft"


class MetricError(ValueError):
    pass


class DegenerateVariance(MetricError):
    """Correlation is undefined when either count vector is constant."""


def char_overlap(a: SpanAnnotation, b: SpanAnnotation) -> int:
    """Number of character positions the two spans share."""
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def _compatible(a: SpanAnnotation, b: SpanAnnotation, mode: MatchMode) -> bool:
    return mode is MatchMode.SOFT or a.category == b.category


def example_precision(
    candidate: Iterable[SpanAnnotation],
    reference: Iterable[SpanAnnotation],
    mode: MatchMode = MatchMode.HARD,
) -> float:
    """Mean per-annotation overlap credit of the candidate spans.

    Each candidate span earns overlap/length against every compatible
    reference span, clamped at 1 so mutually overlapping references
    cannot push credit past full.
    """
    cand = tuple(candidate)
    ref = tuple(reference)
    if not cand:
        raise MetricError("precision undefined for an empty candidate set")
    total = 0.0
    for a in cand:
        credit = 0.0
        for g in ref:
            if _compatible(a, g, mode):
                credit += char_overlap(a, g) / len(a)
        total += min(1.0, credit)
    return total / len(cand)


def example_recall(
    candidate: Iterable[SpanAnnotation],
    reference: Iterable[SpanAnnotation],
    mode: MatchMode = MatchMode.HARD,
) -> float:
    """Coverage of the reference spans: precision with roles swapped."""
    ref = tuple(reference)
    if not ref:
        raise MetricError("recall undefined for an empty reference set")
    return example_precision(ref, candidate, mode)


def example_f1(
    candidate: Iterable[SpanAnnotation],
    reference: Iterable[SpanAnnotation],
    mode: MatchMode = MatchMode.HARD,
) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    p = example_precision(candidate, reference, mode)
    r = example_recall(candidate, reference, mode)
    return _harmonic(p, r)


def _harmonic(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def _overlap_window(spans: Sequence[SpanAnnotation]) -> Callable[[SpanAnnotation], range]:
    """For spans sorted by start, the positions of those that can overlap
    a given span: they start before its end, and after its start minus
    the longest span's length."""
    starts = [g.start for g in spans]
    longest = max([g.end - g.start for g in spans])

    def window(a: SpanAnnotation) -> range:
        lo = bisect_left(starts, a.start - longest + 1)
        return range(lo, bisect_left(starts, a.end, lo))

    return window


def _overlap_scores(
    candidate: Sequence[SpanAnnotation], reference: Sequence[SpanAnnotation]
) -> tuple[float, float, float, float]:
    """Hard precision, hard recall, soft precision and soft recall of two
    non-empty span sets sorted by start, ``==`` to ``example_precision``
    and ``example_recall``, from one pass over the overlapping pairs.

    Those functions add a credit of 0.0, which changes no sum, for every
    pair that does not overlap. The overlapping pairs are added in their
    order: references in order within each candidate's credit, and
    candidates in order within each reference's.
    """
    window = _overlap_window(reference)
    ref_hard = [0.0] * len(reference)
    ref_soft = [0.0] * len(reference)
    p_hard = p_soft = 0.0
    for a in candidate:
        hard = soft = 0.0
        length = a.end - a.start
        for k in window(a):
            g = reference[k]
            overlap = min(a.end, g.end) - max(a.start, g.start)
            if overlap > 0:
                own, theirs = overlap / length, overlap / (g.end - g.start)
                soft += own
                ref_soft[k] += theirs
                if a.category == g.category:
                    hard += own
                    ref_hard[k] += theirs
        p_hard += min(1.0, hard)
        p_soft += min(1.0, soft)
    r_hard = r_soft = 0.0
    for hard, soft in zip(ref_hard, ref_soft):
        r_hard += min(1.0, hard)
        r_soft += min(1.0, soft)
    n, m = len(candidate), len(reference)
    return p_hard / n, r_hard / m, p_soft / n, r_soft / m


def pearson_counts(counts1: Sequence[float], counts2: Sequence[float]) -> float:
    """Sample correlation between per-example annotation counts."""
    if len(counts1) != len(counts2):
        raise MetricError(
            f"count vectors differ in length: {len(counts1)} vs {len(counts2)}"
        )
    n = len(counts1)
    if n < 2:
        raise DegenerateVariance("need at least two examples for a correlation")
    mean1 = sum(counts1) / n
    mean2 = sum(counts2) / n
    num = 0.0
    var1 = 0.0
    var2 = 0.0
    for x, y in zip(counts1, counts2):
        dx = x - mean1
        dy = y - mean2
        num += dx * dy
        var1 += dx * dx
        var2 += dy * dy
    if var1 == 0.0 or var2 == 0.0:
        raise DegenerateVariance("constant count vector; correlation undefined")
    return num / math.sqrt(var1 * var2)


def s_empty(
    candidate: Iterable[SpanAnnotation], reference: Iterable[SpanAnnotation]
) -> float:
    """Agreement score for examples where an annotator produced nothing.

    1/(1 + n) with n the non-empty side's annotation count; 1.0 when
    both sides are empty (both agree there was nothing to mark).
    """
    cand = tuple(candidate)
    ref = tuple(reference)
    if cand and ref:
        raise MetricError("both sets are non-empty; use the overlap metrics")
    if not cand and not ref:
        return 1.0
    return 1.0 / (1.0 + (len(cand) or len(ref)))


class ExampleScores(FrozenRecord):
    """Per-example metric values; exactly one of the F1 family and the
    empty-agreement score is populated, depending on the routing.
    ``status`` is "scored", "s_empty" or "failed"."""

    __slots__ = ("example_id", "n_reference", "n_candidate", "status",
                 "precision_hard", "recall_hard", "f1_hard", "precision_soft",
                 "recall_soft", "f1_soft", "s_empty", "gamma")

    def __init__(self, example_id: str, n_reference: int, n_candidate: int, status: str,
                 precision_hard: float | None = None, recall_hard: float | None = None,
                 f1_hard: float | None = None, precision_soft: float | None = None,
                 recall_soft: float | None = None, f1_soft: float | None = None,
                 s_empty: float | None = None, gamma: float | None = None):
        self._init(example_id, n_reference, n_candidate, status, precision_hard,
                   recall_hard, f1_hard, precision_soft, recall_soft, f1_soft, s_empty,
                   gamma)


class ScoreReport(FrozenRecord):
    """Aggregate agreement between a candidate and a reference campaign.
    Its repr leaves out the per-example rows."""

    __slots__ = ("reference_id", "candidate_id", "n_examples", "n_scored",
                 "n_empty_scored", "n_failed", "n_gamma_scored", "n_gamma_skipped",
                 "pearson", "precision_hard", "recall_hard", "f1_hard", "precision_soft",
                 "recall_soft", "f1_soft", "f1_delta", "gamma", "s_empty",
                 "gamma_config", "examples")

    def __init__(self, reference_id: str, candidate_id: str, n_examples: int,
                 n_scored: int, n_empty_scored: int, n_failed: int, n_gamma_scored: int,
                 n_gamma_skipped: int, pearson: float | None,
                 precision_hard: float | None, recall_hard: float | None,
                 f1_hard: float | None, precision_soft: float | None,
                 recall_soft: float | None, f1_soft: float | None,
                 f1_delta: float | None, gamma: float | None, s_empty: float | None,
                 gamma_config: GammaConfig, examples: tuple[ExampleScores, ...] = ()):
        self._init(reference_id, candidate_id, n_examples, n_scored, n_empty_scored,
                   n_failed, n_gamma_scored, n_gamma_skipped, pearson, precision_hard,
                   recall_hard, f1_hard, precision_soft, recall_soft, f1_soft, f1_delta,
                   gamma, s_empty, gamma_config, examples)

    def __repr__(self) -> str:
        return self._repr(self._fields[:-1])


def _mean(values: list[float]) -> float | None:
    """Left-to-right mean. Not ``sum()``, which Python 3.12 made
    compensated: report.json must hold the same bits on every Python."""
    if not values:
        return None
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def aggregate(
    dataset: Dataset,
    reference: Campaign,
    candidate: Campaign,
    gamma_config: GammaConfig | None = None,
) -> ScoreReport:
    """Score a candidate campaign against a reference over one dataset.

    Both campaigns must cover the same example ids. Examples flagged
    failed on either side are excluded from every pool and counted
    separately; genuinely empty sets route to the empty-agreement score.
    """
    gamma_config = gamma_config or GammaConfig()
    ref_ids = set(reference.sets)
    cand_ids = set(candidate.sets)
    if ref_ids != cand_ids:
        missing = sorted(ref_ids ^ cand_ids)[:5]
        raise MetricError(
            f"campaigns cover different examples (first differences: {missing})"
        )
    failed = reference.failed_ids() | candidate.failed_ids()

    rows: list[ExampleScores] = []
    ref_counts: list[int] = []
    cand_counts: list[int] = []
    for example_id in sorted(ref_ids):
        ref_set = reference.sets[example_id]
        cand_set = candidate.sets[example_id]
        if example_id in failed:
            rows.append(
                ExampleScores(example_id, len(ref_set), len(cand_set), "failed")
            )
            continue
        ref_counts.append(len(ref_set))
        cand_counts.append(len(cand_set))
        if len(ref_set) > 0 and len(cand_set) > 0:
            text = dataset[example_id].text
            p_hard, r_hard, p_soft, r_soft = _overlap_scores(
                cand_set.annotations, ref_set.annotations
            )
            gamma = gamma_score(ref_set, cand_set, len(text), gamma_config, example_id)
            # A finite but huge delta_empty can overflow the disorder sums to
            # inf / inf; a nan here would reach report.json as invalid JSON.
            if gamma is not None and not math.isfinite(gamma):
                raise MetricError(
                    f"example {example_id!r}: gamma is {gamma}, because "
                    f"delta_empty={gamma_config.dissimilarity.delta_empty} "
                    "overflows the disorder costs; use a smaller delta_empty"
                )
            rows.append(
                ExampleScores(
                    example_id,
                    len(ref_set),
                    len(cand_set),
                    "scored",
                    precision_hard=p_hard,
                    recall_hard=r_hard,
                    f1_hard=_harmonic(p_hard, r_hard),
                    precision_soft=p_soft,
                    recall_soft=r_soft,
                    f1_soft=_harmonic(p_soft, r_soft),
                    gamma=gamma,
                )
            )
        else:
            rows.append(
                ExampleScores(
                    example_id,
                    len(ref_set),
                    len(cand_set),
                    "s_empty",
                    s_empty=s_empty(cand_set, ref_set),
                )
            )

    scored = [r for r in rows if r.status == "scored"]
    empties = [r for r in rows if r.status == "s_empty"]
    gammas = [r.gamma for r in scored if r.gamma is not None]
    try:
        pearson = pearson_counts(ref_counts, cand_counts)
    except DegenerateVariance:
        pearson = None

    f1_hard = _mean([r.f1_hard for r in scored])
    f1_soft = _mean([r.f1_soft for r in scored])
    return ScoreReport(
        reference_id=reference.annotator_id,
        candidate_id=candidate.annotator_id,
        n_examples=len(rows),
        n_scored=len(scored),
        n_empty_scored=len(empties),
        n_failed=len(rows) - len(scored) - len(empties),
        n_gamma_scored=len(gammas),
        n_gamma_skipped=len(scored) - len(gammas),
        pearson=pearson,
        precision_hard=_mean([r.precision_hard for r in scored]),
        recall_hard=_mean([r.recall_hard for r in scored]),
        f1_hard=f1_hard,
        precision_soft=_mean([r.precision_soft for r in scored]),
        recall_soft=_mean([r.recall_soft for r in scored]),
        f1_soft=f1_soft,
        f1_delta=(
            f1_soft - f1_hard if f1_soft is not None and f1_hard is not None else None
        ),
        gamma=_mean(gammas),
        s_empty=_mean([r.s_empty for r in empties]),
        gamma_config=gamma_config,
        examples=tuple(rows),
    )


class ConfusionMatrix(FrozenRecord):
    """Category confusion counts: rows are reference categories, columns
    candidate categories, paired by maximal character overlap."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[int, ...], ...]):
        self._init(counts)

    def normalized(self) -> tuple[tuple[float, ...], ...]:
        """Row-normalized counts; all-zero rows stay all-zero."""
        return tuple(tuple(c / sum(row) if c else 0.0 for c in row) for row in self.counts)


def confusion_matrix(reference: Campaign, candidate: Campaign, k: int) -> ConfusionMatrix:
    """Pair each reference annotation with the candidate annotation of
    maximal character overlap (ties to the lower start; zero overlap
    leaves it unpaired) and count category co-occurrences. Only the
    candidates that can overlap are visited, in their sorted order.
    Examples failed on either side are skipped, as in aggregate."""
    counts = [[0] * k for _ in range(k)]
    failed = reference.failed_ids() | candidate.failed_ids()
    for example_id in sorted((set(reference.sets) & set(candidate.sets)) - failed):
        cand_set = candidate.sets[example_id].annotations
        if not cand_set:
            continue
        window = _overlap_window(cand_set)
        for ref_ann in reference.sets[example_id]:
            best: SpanAnnotation | None = None
            best_overlap = 0
            for c in window(ref_ann):
                cand_ann = cand_set[c]
                overlap = char_overlap(ref_ann, cand_ann)
                if overlap > best_overlap:
                    best = cand_ann
                    best_overlap = overlap
            if best is not None:
                counts[ref_ann.category][best.category] += 1
    return ConfusionMatrix(tuple(map(tuple, counts)))


class CampaignStats(FrozenRecord):
    """Descriptive statistics for one campaign: totals, density, the
    share of examples left empty, and mean span length."""

    __slots__ = ("annotations", "annotations_per_example", "pct_examples_empty",
                 "chars_per_annotation", "n_examples", "n_failed")

    def __init__(self, annotations: int, annotations_per_example: float,
                 pct_examples_empty: float, chars_per_annotation: float | None,
                 n_examples: int, n_failed: int):
        self._init(annotations, annotations_per_example, pct_examples_empty,
                   chars_per_annotation, n_examples, n_failed)


def annotation_stats(campaign: Campaign) -> CampaignStats:
    """Totals over the campaign's non-failed sets; failed examples are
    counted apart since they carry no annotator judgment."""
    failed = campaign.failed_ids()
    sets = [s for eid, s in sorted(campaign.sets.items()) if eid not in failed]
    total = sum(len(s) for s in sets)
    n_empty = sum(1 for s in sets if len(s) == 0)
    total_chars = sum(len(a) for s in sets for a in s)
    return CampaignStats(
        annotations=total,
        annotations_per_example=total / len(sets) if sets else 0.0,
        pct_examples_empty=100.0 * n_empty / len(sets) if sets else 0.0,
        chars_per_annotation=total_chars / total if total else None,
        n_examples=len(sets),
        n_failed=len(failed),
    )
