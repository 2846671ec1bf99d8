"""End-to-end annotation runs: render, request, ground, persist.

Runs are resumable: every successfully annotated example is appended to
an on-disk cache keyed by (model, variant, schema mode, decoding,
rendered prompt), and a rerun only issues requests for examples without
a cached success. A fresh reply and a cached one go through the same
derivation, ``derive_annotations``, so a rerun derives every example's
spans from the provider's reply with the current grounding code; a
cached reply that no longer derives is requested again. Malformed model
output is retried with the identical prompt; after the retry budget the
example's trace is flagged failed, which is kept distinct from a genuine
"nothing to annotate" answer, and nothing is cached for it, so a rerun
requests it again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from collections import deque
from pathlib import Path
from typing import TextIO

from ..config import AnnotatorConfig, PromptVariant, SchemaMode
from ..grounding import (
    GroundingError,
    GroundingReport,
    extract_last_json_object,
    ground_annotations,
    parse_annotation_payload,
    split_reasoning,
)
from ..ingest import IngestError, annotation_to_dict, check_object, decode_json, encode_json
from ..model import (
    AnnotationSet,
    Campaign,
    Dataset,
    Example,
    Trace,
    normalize_annotation_set,
)
from .adapters import ProviderAdapter, ProviderError
from .templates import build_annotation_schema, prompt_head, render_prompt


def _warn(message: str, *args: object) -> None:
    """Log a warning from this module, reported at the caller's line."""
    # Imported here, so that a run that warns of nothing does not load it.
    import logging

    logging.getLogger(__name__).warning(message, *args, stacklevel=2)


def _key_fields(config: AnnotatorConfig) -> str:
    """What a cache key hashes before the prompt: the config fields, each
    followed by a unit separator."""
    return "\x1f".join(
        [
            config.model_id,
            config.variant.value,
            config.schema_mode.value,
            repr(config.decoding.temperature),
            repr(config.decoding.seed),
            "",
        ]
    )


def cache_key(config: AnnotatorConfig, prompt: str) -> str:
    return hashlib.sha256((_key_fields(config) + prompt).encode("utf-8")).hexdigest()


def _run_keyer(config: AnnotatorConfig, head: str):
    """``cache_key`` for one run's prompts. The config fields and ``head``
    are hashed once; each prompt that starts with ``head`` adds only its
    rest to a copy of that state, and any other prompt is keyed whole."""
    prefix = hashlib.sha256((_key_fields(config) + head).encode("utf-8"))
    cut = len(head)

    def key(prompt: str) -> str:
        if not prompt.startswith(head):
            return cache_key(config, prompt)
        state = prefix.copy()
        state.update(prompt[cut:].encode("utf-8"))
        return state.hexdigest()

    return key


def trace_record(trace: Trace, aset: AnnotationSet) -> dict:
    """Wire format for one trace line."""
    return {
        "example_id": trace.example_id,
        "model_id": trace.model_id,
        "variant": trace.variant,
        "raw_output": trace.raw_output,
        "reasoning": trace.reasoning,
        "annotations": [annotation_to_dict(a) for a in aset],
        "latency_s": trace.latency_s,
        "usage": {
            "prompt_tokens": trace.prompt_tokens,
            "completion_tokens": trace.completion_tokens,
        },
        "retries": trace.retries,
        "failed": trace.failed,
    }


class CacheError(OSError):
    """A trace cache line other than the last one, or a record looked up
    in it, cannot be read."""


class TraceCache:
    """Append-only JSONL store of successfully annotated examples, keyed
    by prompt hash.

    Every record is appended together with its newline, so a final line
    without one was cut short by a kill mid-append. A load keeps the
    last success of each key. After reading any other line (torn, blank,
    failed or superseded), it renames a rewrite of the kept records over
    the file. That would drop the appends of a second run on the same
    file, so one run at a time may use a cache file. A malformed
    complete line raises CacheError, and so does a record with a missing
    reply or a field of the wrong type when it is looked up.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[str, dict] = {}
        self._handle: TextIO | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            return
        number = 0
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    _warn("%s: dropping a torn final line of %d bytes", self.path, len(line))
                    break
                if not line.strip():
                    continue
                try:
                    record = decode_json(line)
                    if not record.get("failed"):
                        self._records[record["key"]] = record
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise CacheError(
                        f"{self.path}: line {number} is not a cache record ({exc}); "
                        "remove the line or the file to re-annotate"
                    ) from exc
        if number != len(self._records):
            tmp = self.path.with_name(self.path.name + ".tmp")
            lines = [encode_json(r) + "\n" for r in self._records.values()]
            tmp.write_text("".join(lines), encoding="utf-8", newline="\n")
            os.replace(tmp, self.path)

    def get(self, key: str) -> dict | None:
        """The record stored under key when the cache was opened.

        Records put since are not returned, so a run's lookups do not
        depend on how far its own writes have got.
        """
        return self._records.get(key)

    def put(self, key: str, record: dict) -> None:
        """Append one record and flush it to the file, which the first
        put opens; ``close`` closes it."""
        line = encode_json({"key": key, **record}) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8", newline="\n")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def derive_annotations(
    raw: str, example: Example, dataset: Dataset, config: AnnotatorConfig
) -> tuple[str, tuple[AnnotationSet, GroundingReport] | None]:
    """Turn one provider reply into the example's spans.

    Returns the reply's reasoning and either the normalized annotation
    set with its grounding report, or None when the reply holds no
    usable payload. The reasoning comes back in both cases, so a failed
    example's trace keeps that of its last answered attempt. Fresh
    replies and cached ones both go through here, so every run derives
    its spans with the current grounding code.
    """
    if config.schema_mode is SchemaMode.CONSTRAINED:
        reasoning = ""
        try:
            payload = decode_json(raw)
        except json.JSONDecodeError:
            return reasoning, None
    else:
        cleaned, reasoning = split_reasoning(raw)
        try:
            payload = extract_last_json_object(cleaned)
        except GroundingError:
            return reasoning, None
    try:
        raws, report = parse_annotation_payload(payload, dataset.k)
    except GroundingError:
        return reasoning, None
    spans, ground_report = ground_annotations(raws, example.text)
    report.merge(ground_report)
    # A DEBUG record reaches a handler only if logging was configured, which imports it.
    if report.dropped and "logging" in sys.modules:
        import logging

        logging.getLogger(__name__).debug(
            "example %s: %d grounded, %d dropped", example.id, report.grounded,
            report.dropped,
        )
    aset, _ = normalize_annotation_set(spans, example.text, dataset.no_overlap, example.id)
    return reasoning, (aset, report)


def annotate_example(
    example: Example,
    dataset: Dataset,
    config: AnnotatorConfig,
    adapter: ProviderAdapter,
    prompt: str | None = None,
) -> tuple[AnnotationSet, Trace]:
    """Annotate one example: prompt, complete, ground, normalize.

    Malformed output (no JSON, wrong payload shape) is retried with the
    identical prompt, and so is a transport error, up to
    config.max_retries attempts in all; exhaustion yields an empty set
    and a trace flagged failed. ``prompt`` is the already rendered
    prompt, if the caller has it.
    """
    if prompt is None:
        prompt = render_prompt(
            example, dataset.categories, dataset.guidelines, config.variant,
            config.fewshot_examples,
        )
    schema = (
        build_annotation_schema(config.variant is not PromptVariant.NOREASON)
        if config.schema_mode is SchemaMode.CONSTRAINED
        else None
    )

    failures = 0
    latency = 0.0
    prompt_tokens = 0
    completion_tokens = 0
    raw = ""
    reasoning = ""
    aset: AnnotationSet | None = None

    for _ in range(config.max_retries):
        try:
            result = adapter.complete(
                prompt, config.decoding, schema=schema, request_id=example.id
            )
        except ProviderError as exc:
            failures += 1
            _warn("transport error for %s: %s", example.id, exc)
            continue
        latency += result.latency_s
        prompt_tokens += result.prompt_tokens
        completion_tokens += result.completion_tokens
        raw = result.text
        reasoning, derived = derive_annotations(raw, example, dataset, config)
        if derived is None:
            failures += 1
            continue
        aset = derived[0]
        break

    trace = Trace(
        example_id=example.id,
        model_id=config.model_id,
        variant=config.variant.value,
        raw_output=raw,
        reasoning=reasoning,
        latency_s=latency,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        retries=failures,
        failed=aset is None,
    )
    # AnnotationSet defines __len__, so an empty set is falsy: test for None.
    if aset is None:
        aset = AnnotationSet(example.id)
    return aset, trace


def _cache_record(trace: Trace) -> dict:
    """A cache record, without its key: what a hit reads and the example id
    that a CacheError names. Every hit derives the spans from raw_output
    again. Older records are whole trace_records, so their other keys stay
    optional."""
    return {
        "example_id": trace.example_id,
        "raw_output": trace.raw_output,
        "latency_s": trace.latency_s,
        "usage": {
            "prompt_tokens": trace.prompt_tokens,
            "completion_tokens": trace.completion_tokens,
        },
        "retries": trace.retries,
    }


_RECORD_KEYS = {"raw_output": str}
_RECORD_OPTIONAL_KEYS = {
    **dict.fromkeys(("key", "example_id", "model_id", "variant", "reasoning"), str),
    "annotations": list, "latency_s": (int, float), "usage": dict, "retries": int,
    "failed": bool,
}
_USAGE_KEYS = {"prompt_tokens": int, "completion_tokens": int}
# The Trace fields a record and its usage fill; a null or absent one
# takes the Trace default.
_TRACE_FIELDS = ("latency_s", "prompt_tokens", "completion_tokens", "retries")


def _from_record(
    example: Example, record: dict, dataset: Dataset, config: AnnotatorConfig, path: Path
) -> tuple[AnnotationSet, Trace] | None:
    """The set and trace of a cached success, or None when its reply no
    longer derives and the example must be requested again.

    The cache key pins the model and the variant, so the trace takes
    them from the config.
    """
    try:
        check_object(record, _RECORD_KEYS, _RECORD_OPTIONAL_KEYS, "record")
        usage = record.get("usage") or {}
        check_object(usage, {}, _USAGE_KEYS, "usage")
    except IngestError as exc:
        raise CacheError(
            f"{path}: the record for example {example.id!r} cannot be read ({exc}); "
            "remove its line or the file to re-annotate"
        ) from exc
    raw = record["raw_output"]
    reasoning, derived = derive_annotations(raw, example, dataset, config)
    if derived is None:
        _warn(
            "%s: the cached reply for example %r gives no usable payload; "
            "requesting it again", path, example.id,
        )
        return None
    values = {**record, **usage}
    trace = Trace(
        example.id, config.model_id, config.variant.value, raw, reasoning,
        **{key: values[key] for key in _TRACE_FIELDS if values.get(key) is not None},
    )
    return derived[0], trace


def annotate_dataset(
    dataset: Dataset,
    config: AnnotatorConfig,
    adapter: ProviderAdapter,
    cache_path: str | Path | None = None,
) -> Campaign:
    """Annotate every example, reusing cached successes.

    config.concurrency_limit worker threads, or one per example if there
    are fewer, take the examples in id order, one at a time, while the
    calling thread waits for them; the campaign is assembled in
    example-id order, so its content is independent of completion order.
    Transport-dead examples are flagged failed rather than aborting the
    run. Any other error, or a Ctrl-C, stops the run once the examples
    in flight finish, and the first error raised in a worker is raised
    here.
    """
    cache = TraceCache(cache_path) if cache_path is not None else None
    examples = sorted(dataset.examples, key=lambda e: e.id)
    # What every example shares is built once here. An example of another
    # task than the first one's is keyed from its whole prompt.
    head = ""
    if examples:
        head = prompt_head(
            examples[0].task, dataset.categories, dataset.guidelines, config.variant,
            config.fewshot_examples,
        )[0]
    keyer = _run_keyer(config, head)
    queue = deque(examples)
    results: dict[str, tuple[AnnotationSet, Trace]] = {}
    errors: list[BaseException] = []

    # Each worker takes the next example and finishes it, writing its
    # record, before it takes another, so a kill loses only the examples
    # in flight. With one worker the records keep example order. A worker
    # that raises records the error for the calling thread, so that it
    # never reaches threading.excepthook, and empties the queue, so the
    # others stop after their current example.
    def work() -> None:
        try:
            while True:
                try:
                    example = queue.popleft()
                except IndexError:
                    return
                prompt = render_prompt(
                    example, dataset.categories, dataset.guidelines, config.variant,
                    config.fewshot_examples,
                )
                key = keyer(prompt)
                cached = cache.get(key) if cache is not None else None
                if cached is not None:
                    hit = _from_record(example, cached, dataset, config, cache.path)
                    if hit is not None:
                        results[example.id] = hit
                        continue
                aset, trace = annotate_example(example, dataset, config, adapter, prompt)
                if cache is not None and not trace.failed:
                    cache.put(key, _cache_record(trace))
                results[example.id] = aset, trace
        except BaseException as exc:
            errors.append(exc)
            queue.clear()

    n_workers = max(1, min(config.concurrency_limit, len(examples)))
    workers = [threading.Thread(target=work) for _ in range(n_workers)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        # After a Ctrl-C here, only the examples in flight finish. It can
        # come before every worker has started, and join() refuses those.
        queue.clear()
        for worker in workers:
            if worker.is_alive():
                worker.join()
        if cache is not None:
            cache.close()
    if errors:
        raise errors[0]

    sets = {e.id: results[e.id][0] for e in examples}
    traces = {e.id: results[e.id][1] for e in examples}
    return Campaign(annotator_id=config.resolved_annotator_id, sets=sets, traces=traces)
