"""Core domain model: categories, span annotations, examples, campaigns.

All types are immutable after construction and safe to share across
threads. Offsets are 0-based half-open character (Unicode scalar)
intervals, so the length of a span is simply ``end - start``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

TASKS = ("d2t", "mt", "propaganda", "generic")


class ModelError(ValueError):
    """Invalid construction of a core domain object, or spans that gamma
    cannot score."""


@dataclass(frozen=True)
class Category:
    """One annotation category: integer code, short name, guideline text."""

    index: int
    name: str
    description: str = ""

    def __post_init__(self):
        if self.index < 0:
            raise ModelError(f"category index must be non-negative, got {self.index}")
        if not self.name:
            raise ModelError("category name must be non-empty")


@dataclass(frozen=True)
class CategorySet:
    """Dense, ordered inventory of categories with indices 0..k-1."""

    categories: tuple[Category, ...]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        for i, cat in enumerate(self.categories):
            if cat.index != i:
                raise ModelError(
                    f"category indices must be dense 0..k-1; "
                    f"position {i} holds index {cat.index}"
                )
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise ModelError("category names must be unique")
        object.__setattr__(self, "_by_name", {c.name: c for c in self.categories})

    @property
    def k(self) -> int:
        return len(self.categories)

    def __len__(self) -> int:
        return len(self.categories)

    def __iter__(self) -> Iterator[Category]:
        return iter(self.categories)

    def __getitem__(self, index: int) -> Category:
        return self.categories[index]

    def by_name(self, name: str) -> Category:
        by_name: dict[str, Category] = getattr(self, "_by_name")
        if name not in by_name:
            raise ModelError(f"unknown category name: {name!r}")
        return by_name[name]


@dataclass(frozen=True)
class SpanAnnotation:
    """One annotated span: ``[start, end)`` offsets, category index, and
    optionally the annotator's reason and the literal surface string."""

    start: int
    end: int
    category: int
    reason: str | None = None
    surface: str | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ModelError(
                f"span must satisfy 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.category < 0:
            raise ModelError(f"category index must be non-negative, got {self.category}")

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.start, self.end, self.category)


@dataclass(frozen=True)
class AnnotationSet:
    """All annotations one annotator produced for one example.

    An empty set is meaningful: it records that the annotator looked at
    the example and found nothing. Annotations are kept sorted by
    (start, end, category).
    """

    example_id: str
    annotations: tuple[SpanAnnotation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        keys = [a.sort_key for a in self.annotations]
        if keys != sorted(keys):
            raise ModelError(
                f"annotations for {self.example_id!r} must be sorted by "
                "(start, end, category); use normalize_annotation_set"
            )

    def __len__(self) -> int:
        return len(self.annotations)

    def __iter__(self) -> Iterator[SpanAnnotation]:
        return iter(self.annotations)


def normalize_annotation_set(
    raw: Iterable[SpanAnnotation],
    text: str,
    no_overlap: bool = False,
    example_id: str = "",
) -> tuple[AnnotationSet, tuple[SpanAnnotation, ...]]:
    """Sort, deduplicate and (optionally) de-overlap raw annotations.

    Returns the normalized set plus the annotations dropped by the
    overlap rule. Duplicates share (start, end, category); the first in
    sort order survives. Under ``no_overlap``, a span overlapping any
    earlier kept span is dropped. Surviving annotations are never
    modified. Raises ModelError for spans outside the text.
    """
    items = sorted(raw, key=lambda a: a.sort_key)
    for a in items:
        if a.end > len(text):
            raise ModelError(
                f"span [{a.start}, {a.end}) of category "
                f"{a.category} exceeds text length {len(text)}"
            )

    kept: list[SpanAnnotation] = []
    dropped: list[SpanAnnotation] = []
    seen: set[tuple[int, int, int]] = set()
    max_end = 0
    for a in items:
        if a.sort_key in seen:
            continue
        seen.add(a.sort_key)
        # Kept spans are disjoint with increasing starts and ends, so a
        # new span overlaps one of them iff it starts before the last end.
        if no_overlap and kept and a.start < max_end:
            dropped.append(a)
            continue
        kept.append(a)
        max_end = max(max_end, a.end)
    return AnnotationSet(example_id, tuple(kept)), tuple(dropped)


@dataclass(frozen=True)
class Example:
    """One evaluable unit: the target text plus an optional source input."""

    id: str
    text: str
    source: str | None = None
    task: str = "generic"
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ModelError("example id must be non-empty")
        if not self.text:
            raise ModelError(f"example {self.id!r} has empty text")
        if self.task not in TASKS:
            raise ModelError(f"unknown task {self.task!r}; expected one of {TASKS}")
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))


@dataclass(frozen=True)
class Dataset:
    """A corpus of examples with the category inventory and guidelines
    shared by every annotator working on it."""

    examples: tuple[Example, ...]
    categories: CategorySet
    guidelines: str = ""
    no_overlap: bool = False

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        by_id: dict[str, Example] = {}
        for ex in self.examples:
            if ex.id in by_id:
                raise ModelError(f"duplicate example id {ex.id!r}")
            by_id[ex.id] = ex
        object.__setattr__(self, "_by_id", by_id)

    @property
    def k(self) -> int:
        return self.categories.k

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, example_id: str) -> Example:
        by_id: dict[str, Example] = getattr(self, "_by_id")
        if example_id not in by_id:
            raise ModelError(f"unknown example id {example_id!r}")
        return by_id[example_id]

    def __contains__(self, example_id: str) -> bool:
        return example_id in getattr(self, "_by_id")


@dataclass(frozen=True)
class Trace:
    """Raw-output record kept alongside an annotation set.

    ``failed`` marks an example where the annotator never produced a
    usable answer; that is different from a genuine empty set.
    """

    example_id: str
    model_id: str = ""
    variant: str = ""
    raw_output: str = ""
    reasoning: str = ""
    latency_s: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    retries: int = 0
    failed: bool = False


@dataclass(frozen=True)
class Campaign:
    """One annotator's pass over a dataset: a set per annotated example.

    An example absent from ``sets`` was never annotated; present with an
    empty set means the annotator found nothing there.
    """

    annotator_id: str
    sets: Mapping[str, AnnotationSet]
    traces: Mapping[str, Trace] = field(default_factory=dict)

    def __post_init__(self):
        for example_id, aset in self.sets.items():
            if aset.example_id != example_id:
                raise ModelError(
                    f"annotation set keyed {example_id!r} claims example "
                    f"{aset.example_id!r}"
                )
        object.__setattr__(self, "sets", MappingProxyType(dict(self.sets)))
        object.__setattr__(self, "traces", MappingProxyType(dict(self.traces)))

    def example_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.sets))

    def failed_ids(self) -> frozenset[str]:
        return frozenset(t.example_id for t in self.traces.values() if t.failed)

    def __len__(self) -> int:
        return len(self.sets)
