"""File I/O for corpora, category inventories, and campaigns.

One canonical JSONL interchange format covers every task; offsets in
files are 0-based half-open Unicode scalar positions, exactly as in
memory. Validation is strict: a bad line fails the whole file with its
line number, because silently dropped annotations corrupt agreement
statistics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Mapping

from .model import (
    AnnotationSet,
    Campaign,
    Category,
    CategorySet,
    Dataset,
    Example,
    FrozenRecord,
    ModelError,
    SpanAnnotation,
    Trace,
)

BUNDLED_TASKS = ("d2t", "mt", "propaganda")

# The confusion matrix, report.json and confusion.csv each hold k x k
# cells for k categories, so a long category file would make `evaluate`
# quadratic in its size. The bundled inventories have 6, 2 and 18.
MAX_CATEGORIES = 256


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, path: str | Path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


class CategoryFile(FrozenRecord):
    """Parsed category inventory: the task it belongs to, its overlap
    rule, the categories, and the guideline text rendered into prompts."""

    __slots__ = ("task", "no_overlap", "categories", "guidelines")

    def __init__(self, task: str, no_overlap: bool, categories: CategorySet,
                 guidelines: str):
        self._init(task, no_overlap, categories, guidelines)


# Names of the JSON types that check_object takes; (int, float) is a number.
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", list: "a list",
               dict: "an object", (int, float): "a number", float: "a number",
               type(None): "null"}


def _type_name(value: Any) -> str:
    return _TYPE_NAMES.get(type(value), type(value).__name__)


# A record's keys and their JSON types, as check_object takes them.
KeyTypes = Mapping[str, "type | tuple[type, ...]"]


def check_object(obj: Any, required: KeyTypes, optional: KeyTypes, where: str) -> None:
    """Check one JSON record: an object with every required key, no key
    outside required and optional, and each value of its declared type.

    A bool is never accepted as an int or a number. Null for an optional
    key passes, as if the key were absent. Raises IngestError naming the
    key.
    """
    if not isinstance(obj, dict):
        raise IngestError(f"{where}: expected an object, got {_type_name(obj)}")
    if not required.keys() <= obj.keys():
        raise IngestError(f"{where}: missing keys {sorted(required.keys() - obj.keys())}")
    for key, value in obj.items():
        expected = required.get(key) or optional.get(key)
        if expected is None:
            unknown = obj.keys() - required.keys() - optional.keys()
            raise IngestError(f"{where}: unknown keys {sorted(unknown)}")
        if isinstance(value, expected) and (expected is bool or type(value) is not bool):
            continue
        if value is None and key not in required:
            continue
        raise IngestError(
            f"{where}: {key!r} must be {_TYPE_NAMES[expected]}, "
            f"got {_type_name(value)}"
        )


class _Unplaced(json.JSONDecodeError):
    """Invalid JSON that the decoder does not place: input nested too
    deeply, or a lone surrogate escape; so the message carries no
    position."""

    def __init__(self, msg: str):
        super().__init__(msg, "", 0)

    def __str__(self) -> str:
        return self.msg


def decode_json(data: str | bytes) -> Any:
    """``json.loads``, except that two more inputs raise JSONDecodeError,
    like any other invalid JSON: input nested too deeply for the decoder
    (RecursionError in ``json.loads``), and a lone surrogate escape such
    as ``\\ud800``, which ``json.loads`` takes but no UTF-8 file can hold.
    Their message names no position: a caller reports ``str(exc)``, or the
    line of a JSONL record."""
    try:
        value = json.loads(data)
    except RecursionError:
        raise _Unplaced("nested too deeply") from None
    reject_lone_surrogates(data, value)
    return value


def reject_lone_surrogates(data: str | bytes, value: Any) -> None:
    """Raise JSONDecodeError, naming the escape, if ``value``, decoded
    from the JSON text ``data``, holds a lone surrogate, which no UTF-8
    output can write. Only text holding ``\\ud`` or ``\\uD``, the start
    of every surrogate escape, is checked."""
    marks = (b"\\ud", b"\\uD") if isinstance(data, bytes) else ("\\ud", "\\uD")
    if marks[0] in data or marks[1] in data:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            raise _Unplaced(f"lone surrogate escape \\u{ord(char):04x}") from None


def load_category_file(path: str | Path) -> CategoryFile:
    """Load and validate a category JSON file."""
    path = Path(path)
    try:
        payload = decode_json(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    check_object(
        payload,
        {"task": str, "no_overlap": bool, "categories": list, "guidelines": str},
        {},
        str(path),
    )
    entries = payload["categories"]
    if not entries:
        raise IngestError(f"{path}: categories must be a non-empty list")
    if len(entries) > MAX_CATEGORIES:
        raise IngestError(f"{path}: at most {MAX_CATEGORIES} categories, got {len(entries)}")
    categories = []
    for pos, entry in enumerate(entries):
        check_object(
            entry, {"index": int, "name": str}, {"description": str}, f"{path}: category {pos}"
        )
        categories.append(
            Category(
                index=entry["index"],
                name=entry["name"],
                description=entry.get("description") or "",
            )
        )
    try:
        category_set = CategorySet(tuple(categories))
    except ModelError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return CategoryFile(
        task=payload["task"],
        no_overlap=payload["no_overlap"],
        categories=category_set,
        guidelines=payload["guidelines"],
    )


def bundled_category_file(task: str) -> CategoryFile:
    """Load one of the shipped inventories: d2t (6 categories), mt (2),
    or propaganda (18)."""
    if task not in BUNDLED_TASKS:
        raise IngestError(f"no bundled categories for task {task!r}")
    # Imported here: it loads tempfile, and only the bundled inventories need it.
    from importlib import resources

    with resources.as_file(resources.files("spanagree.data") / f"{task}.json") as path:
        return load_category_file(path)


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, text without its line break) for every non-blank
    line of a UTF-8 file; raises ParseError at the first line that is not
    UTF-8."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, lineno, f"not UTF-8 at byte {exc.start}") from exc
            if text.strip():
                yield lineno, text.rstrip("\r\n")


def read_jsonl(
    path: Path, id_key: str, required: KeyTypes, optional: KeyTypes
) -> list[tuple[int, dict]]:
    """(line number, record) for every non-blank line of a JSONL file,
    each record checked by check_object and no two with the same id_key."""
    rows = []
    first_line: dict[str, int] = {}
    for lineno, text in _lines(path):
        try:
            row = decode_json(text)
            check_object(row, required, optional, "line")
        except json.JSONDecodeError as exc:
            raise ParseError(path, lineno, f"invalid JSON: {exc.msg}") from exc
        except IngestError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        first = first_line.setdefault(row[id_key], lineno)
        if first != lineno:
            raise ParseError(
                path, lineno, f"duplicate {id_key} {row[id_key]!r} (first seen on line {first})"
            )
        rows.append((lineno, row))
    return rows


def load_dataset(corpus_path: str | Path, category_path: str | Path) -> Dataset:
    """Load a JSONL corpus against a category file and cross-validate.

    Corpus lines carry {id, text, source?, task?, metadata?}; a line's
    task, when present, must match the category file's task.
    """
    corpus_path = Path(corpus_path)
    schema = load_category_file(category_path)
    examples = []
    for lineno, row in read_jsonl(
        corpus_path, "id", {"id": str, "text": str}, {"source": str, "task": str, "metadata": dict}
    ):
        task = schema.task if row.get("task") is None else row["task"]
        if task != schema.task:
            raise ParseError(
                corpus_path,
                lineno,
                f"example task {task!r} does not match category file task {schema.task!r}",
            )
        try:
            examples.append(
                Example(
                    id=row["id"],
                    text=row["text"],
                    source=row.get("source"),
                    task=task,
                    metadata=row.get("metadata") or {},
                )
            )
        except ModelError as exc:
            raise ParseError(corpus_path, lineno, str(exc)) from exc
    # keyed by id, so permuting corpus lines yields an equal Dataset
    examples.sort(key=lambda ex: ex.id)
    return Dataset(
        examples=tuple(examples),
        categories=schema.categories,
        guidelines=schema.guidelines,
        no_overlap=schema.no_overlap,
    )


def annotation_to_dict(a: SpanAnnotation) -> dict:
    """Wire format of one span, shared by campaigns, traces and the cache."""
    out: dict[str, Any] = {"start": a.start, "end": a.end, "type": a.category}
    if a.reason is not None:
        out["reason"] = a.reason
    if a.surface is not None:
        out["text"] = a.surface
    return out


_SPAN_KEYS = {"start": int, "end": int, "type": int}
_SPAN_OPTIONAL_KEYS = {"reason": str, "text": str}


def annotation_from_dict(obj: Any, where: str) -> SpanAnnotation:
    """Decode one span written by annotation_to_dict; raises IngestError."""
    check_object(obj, _SPAN_KEYS, _SPAN_OPTIONAL_KEYS, where)
    try:
        return SpanAnnotation(
            start=obj["start"],
            end=obj["end"],
            category=obj["type"],
            reason=obj.get("reason"),
            surface=obj.get("text"),
        )
    except ModelError as exc:
        raise IngestError(f"{where}: {exc}") from exc


def export_campaign(campaign: Campaign, path: str | Path) -> None:
    """Write one JSONL line per annotated example, sorted by id.

    Empty sets are written (annotated, nothing found); examples the
    annotator never reached are simply absent. Failed examples carry a
    "failed": true marker.
    """
    path = Path(path)
    failed = campaign.failed_ids()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for example_id in campaign.example_ids():
            record: dict[str, Any] = {
                "example_id": example_id,
                "annotator_id": campaign.annotator_id,
                "annotations": [
                    annotation_to_dict(a) for a in campaign.sets[example_id]
                ],
            }
            if example_id in failed:
                record["failed"] = True
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _check_span(ann: SpanAnnotation, example: Example, k: int) -> SpanAnnotation:
    """The span, once it lies inside the example's text and its category
    is below k; raises IngestError otherwise."""
    if ann.end > len(example.text):
        raise IngestError(
            f"span [{ann.start}, {ann.end}) exceeds text length {len(example.text)} "
            f"of example {example.id!r}"
        )
    if ann.category >= k:
        raise IngestError(f"category {ann.category} out of range for k={k}")
    return ann


def _span_set(example_id: str, spans: list[SpanAnnotation], no_overlap: bool) -> AnnotationSet:
    """One example's checked spans, sorted; raises IngestError when two of
    them share (start, end, category), which ``annotate`` never writes,
    or, in a no-overlap task, when two of them overlap."""
    spans.sort(key=lambda a: a.sort_key)
    for ann, after in zip(spans, spans[1:]):
        if ann.sort_key == after.sort_key:
            raise IngestError(
                f"duplicate span [{ann.start}, {ann.end}) of category {ann.category} "
                f"in example {example_id!r}"
            )
    if no_overlap:
        last_end = 0
        for ann in spans:
            if ann.start < last_end:
                raise IngestError(
                    f"overlapping annotations in a no-overlap task (example {example_id!r})"
                )
            last_end = max(last_end, ann.end)
    return AnnotationSet(example_id, tuple(spans))


def load_campaign(path: str | Path, dataset: Dataset) -> Campaign:
    """Load a campaign JSONL file and validate it against the dataset."""
    path = Path(path)
    sets: dict[str, AnnotationSet] = {}
    traces: dict[str, Trace] = {}
    annotator_id: str | None = None
    for lineno, row in read_jsonl(
        path, "example_id", {"example_id": str, "annotator_id": str, "annotations": list},
        {"failed": bool},
    ):
        example_id = row["example_id"]
        if example_id not in dataset:
            raise ParseError(path, lineno, f"unknown example {example_id!r}")
        if annotator_id is None:
            annotator_id = row["annotator_id"]
        elif row["annotator_id"] != annotator_id:
            raise ParseError(
                path,
                lineno,
                f"mixed annotator ids: {row['annotator_id']!r} vs {annotator_id!r}",
            )
        example = dataset[example_id]
        try:
            spans = [
                _check_span(annotation_from_dict(obj, f"annotation {pos}"), example, dataset.k)
                for pos, obj in enumerate(row["annotations"])
            ]
            sets[example_id] = _span_set(example_id, spans, dataset.no_overlap)
        except IngestError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        if row.get("failed"):
            traces[example_id] = Trace(example_id=example_id, failed=True)
    return Campaign(annotator_id=annotator_id or path.stem, sets=sets, traces=traces)


def import_offset_tsv(
    path: str | Path, dataset: Dataset, annotator_id: str = "gold"
) -> Campaign:
    """Import tab-separated gold rows: article_id, technique, start, end.

    Offsets in the source files are already 0-based and end-exclusive,
    so no conversion is applied. Technique names map to category indices
    through the dataset's category names, and the spans pass the checks
    of load_campaign, the no-overlap rule included. Every dataset example
    gets a set; examples with no rows come out empty.
    """
    path = Path(path)
    spans: dict[str, list[SpanAnnotation]] = {ex.id: [] for ex in dataset.examples}
    for lineno, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(path, lineno, f"expected 4 fields, got {len(fields)}")
        article_id, technique, start, end = fields
        if article_id not in dataset:
            raise ParseError(path, lineno, f"unknown article {article_id!r}")
        try:
            start, end = int(start), int(end)
        except ValueError as exc:
            raise ParseError(path, lineno, f"non-integer offsets: {exc}") from exc
        try:
            ann = SpanAnnotation(start, end, dataset.categories.by_name(technique).index)
            spans[article_id].append(_check_span(ann, dataset[article_id], dataset.k))
        except (IngestError, ModelError) as exc:
            raise ParseError(path, lineno, str(exc)) from exc
    try:
        sets = {eid: _span_set(eid, items, dataset.no_overlap) for eid, items in spans.items()}
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return Campaign(annotator_id=annotator_id, sets=sets)
