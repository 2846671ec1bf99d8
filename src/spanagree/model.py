"""Core domain model: categories, span annotations, examples, campaigns.

All types are immutable after construction and safe to share across
threads. Offsets are 0-based half-open character (Unicode scalar)
intervals, so the length of a span is simply ``end - start``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

TASKS = ("d2t", "mt", "propaganda", "generic")

_setattr = object.__setattr__
_EMPTY: Mapping = MappingProxyType({})


class ModelError(ValueError):
    """Invalid construction of a core domain object, or spans that gamma
    cannot score."""


class Record:
    """Base of spanagree's record types. A record's fields are the names in
    its class's ``__slots__`` that do not start with "_", in constructor
    order; its ``__init__`` checks the arguments and stores them with
    ``_init``. Records compare and print by field value, and copy and
    pickle through their constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def asdict(self) -> dict:
        """The fields by name; values are not copied."""
        return dict(zip(self._fields, self._values()))

    def replace(self, **changes):
        """A new record with ``changes`` applied, checked as on construction."""
        return type(self)(**{**self.asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return self._repr(self._fields)

    def _repr(self, names: Iterable[str]) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # Through the constructor, which a frozen record's __setattr__
        # leaves as the only way in; read-only mappings go as dicts, since
        # a mappingproxy does not pickle.
        return type(self), tuple(
            dict(v) if type(v) is MappingProxyType else v for v in self._values()
        )


class FrozenRecord(Record):
    """A record whose fields cannot change after construction; hashable."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Category(FrozenRecord):
    """One annotation category: integer code, short name, guideline text."""

    __slots__ = ("index", "name", "description")

    def __init__(self, index: int, name: str, description: str = ""):
        if index < 0:
            raise ModelError(f"category index must be non-negative, got {index}")
        if not name:
            raise ModelError("category name must be non-empty")
        self._init(index, name, description)


class CategorySet(FrozenRecord):
    """Dense, ordered inventory of categories with indices 0..k-1."""

    __slots__ = ("categories", "_by_name")

    def __init__(self, categories: tuple[Category, ...]):
        categories = tuple(categories)
        for i, cat in enumerate(categories):
            if cat.index != i:
                raise ModelError(
                    f"category indices must be dense 0..k-1; "
                    f"position {i} holds index {cat.index}"
                )
        names = [c.name for c in categories]
        if len(set(names)) != len(names):
            raise ModelError("category names must be unique")
        self._init(categories)
        _setattr(self, "_by_name", {c.name: c for c in categories})

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
        if name not in self._by_name:
            raise ModelError(f"unknown category name: {name!r}")
        return self._by_name[name]


class SpanAnnotation(FrozenRecord):
    """One annotated span: ``[start, end)`` offsets, category index, and
    optionally the annotator's reason and the literal surface string."""

    __slots__ = ("start", "end", "category", "reason", "surface")

    def __init__(self, start: int, end: int, category: int,
                 reason: str | None = None, surface: str | None = None):
        if not (0 <= start < end):
            raise ModelError(f"span must satisfy 0 <= start < end, got [{start}, {end})")
        if category < 0:
            raise ModelError(f"category index must be non-negative, got {category}")
        self._init(start, end, category, reason, surface)

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.start, self.end, self.category)


class AnnotationSet(FrozenRecord):
    """All annotations one annotator produced for one example.

    An empty set is meaningful: it records that the annotator looked at
    the example and found nothing. Annotations are kept sorted by
    (start, end, category).
    """

    __slots__ = ("example_id", "annotations")

    def __init__(self, example_id: str, annotations: tuple[SpanAnnotation, ...] = ()):
        annotations = tuple(annotations)
        keys = [a.sort_key for a in annotations]
        if keys != sorted(keys):
            raise ModelError(
                f"annotations for {example_id!r} must be sorted by "
                "(start, end, category); use normalize_annotation_set"
            )
        self._init(example_id, annotations)

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


class Example(FrozenRecord):
    """One evaluable unit: the target text plus an optional source input."""

    __slots__ = ("id", "text", "source", "task", "metadata")

    def __init__(self, id: str, text: str, source: str | None = None,
                 task: str = "generic", metadata: Mapping[str, str] = _EMPTY):
        if not id:
            raise ModelError("example id must be non-empty")
        if not text:
            raise ModelError(f"example {id!r} has empty text")
        if task not in TASKS:
            raise ModelError(f"unknown task {task!r}; expected one of {TASKS}")
        self._init(id, text, source, task, MappingProxyType(dict(metadata)))


class Dataset(FrozenRecord):
    """A corpus of examples with the category inventory and guidelines
    shared by every annotator working on it."""

    __slots__ = ("examples", "categories", "guidelines", "no_overlap", "_by_id")

    def __init__(self, examples: tuple[Example, ...], categories: CategorySet,
                 guidelines: str = "", no_overlap: bool = False):
        examples = tuple(examples)
        by_id: dict[str, Example] = {}
        for ex in examples:
            if ex.id in by_id:
                raise ModelError(f"duplicate example id {ex.id!r}")
            by_id[ex.id] = ex
        self._init(examples, categories, guidelines, no_overlap)
        _setattr(self, "_by_id", by_id)

    @property
    def k(self) -> int:
        return self.categories.k

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, example_id: str) -> Example:
        if example_id not in self._by_id:
            raise ModelError(f"unknown example id {example_id!r}")
        return self._by_id[example_id]

    def __contains__(self, example_id: str) -> bool:
        return example_id in self._by_id


class Trace(FrozenRecord):
    """Raw-output record kept alongside an annotation set.

    ``failed`` marks an example where the annotator never produced a
    usable answer; that is different from a genuine empty set.
    """

    __slots__ = ("example_id", "model_id", "variant", "raw_output", "reasoning",
                 "latency_s", "prompt_tokens", "completion_tokens", "retries", "failed")

    def __init__(self, example_id: str, model_id: str = "", variant: str = "",
                 raw_output: str = "", reasoning: str = "", latency_s: float = 0.0,
                 prompt_tokens: int = 0, completion_tokens: int = 0, retries: int = 0,
                 failed: bool = False):
        self._init(example_id, model_id, variant, raw_output, reasoning, latency_s,
                   prompt_tokens, completion_tokens, retries, failed)


class Campaign(FrozenRecord):
    """One annotator's pass over a dataset: a set per annotated example.

    An example absent from ``sets`` was never annotated; present with an
    empty set means the annotator found nothing there.
    """

    __slots__ = ("annotator_id", "sets", "traces")

    def __init__(self, annotator_id: str, sets: Mapping[str, AnnotationSet],
                 traces: Mapping[str, Trace] = _EMPTY):
        for example_id, aset in sets.items():
            if aset.example_id != example_id:
                raise ModelError(
                    f"annotation set keyed {example_id!r} claims example "
                    f"{aset.example_id!r}"
                )
        self._init(annotator_id, MappingProxyType(dict(sets)),
                   MappingProxyType(dict(traces)))

    def example_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.sets))

    def failed_ids(self) -> frozenset[str]:
        return frozenset(t.example_id for t in self.traces.values() if t.failed)

    def __len__(self) -> int:
        return len(self.sets)
