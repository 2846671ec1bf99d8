from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from spanagree.annotator import (
    AnnotatorConfig,
    DecodingParams,
    MissingApiKey,
    MockAdapter,
    OpenAIChatAdapter,
    PromptVariant,
    ProviderError,
    SchemaMode,
    annotate_dataset,
    annotate_example,
    trace_record,
)
from spanagree.annotator import runner
from spanagree.annotator.runner import CacheError, TraceCache
from spanagree.grounding import GroundingReport
from spanagree.ingest import ParseError, load_dataset
from spanagree.model import AnnotationSet, Dataset, Trace

from conftest import make_dataset, write_bundled_categories


def reply(items) -> str:
    return json.dumps({"annotations": items})


@pytest.fixture
def dataset(tmp_path) -> Dataset:
    categories = write_bundled_categories(tmp_path, "d2t")
    corpus = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "a", "text": "the cat sat on the mat", "source": "{}"},
        {"id": "b", "text": "rain is expected tomorrow", "source": "{}"},
        {"id": "c", "text": "nothing wrong with this", "source": "{}"},
    ]
    corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return load_dataset(corpus, categories)


def config(**kw) -> AnnotatorConfig:
    return AnnotatorConfig(model_id="test-model", **kw)


class TestAnnotateExample:
    def test_happy_path_grounds_two_spans(self, dataset):
        adapter = MockAdapter({"a": [reply([
            {"reason": "r1", "text": "the cat", "type": 0},
            {"reason": "r2", "text": "the mat", "type": 1},
        ])]})
        aset, trace = annotate_example(dataset["a"], dataset, config(), adapter)
        assert [(s.start, s.end, s.category) for s in aset] == [(0, 7, 0), (15, 22, 1)]
        assert trace.failed is False and trace.retries == 0

    def test_think_tags_stripped_and_last_object_used(self, dataset):
        raw = (
            "<think>let me think about this</think>"
            'draft {"annotations": []} final: '
            + reply([{"reason": "", "text": "rain", "type": 2}])
        )
        adapter = MockAdapter({"b": [raw]})
        aset, trace = annotate_example(dataset["b"], dataset, config(), adapter)
        assert len(aset) == 1 and aset.annotations[0].category == 2
        assert trace.reasoning == "let me think about this"
        assert trace.raw_output == raw

    def test_malformed_exhausts_retries_and_flags_failed(self, dataset):
        adapter = MockAdapter({"a": ["garbage", "more garbage", "<think>hmm</think> still bad"]})
        aset, trace = annotate_example(dataset["a"], dataset, config(), adapter)
        assert len(aset) == 0
        assert trace.failed is True
        assert trace.retries == 3
        assert adapter.calls == 3
        # the failed trace keeps the reasoning of its last answered attempt
        assert trace.reasoning == "hmm"

    def test_recovers_on_second_attempt(self, dataset):
        adapter = MockAdapter({"a": ["not json", reply([])]})
        aset, trace = annotate_example(dataset["a"], dataset, config(), adapter)
        assert trace.failed is False and trace.retries == 1

    def test_all_transport_failures_give_failed_trace(self, dataset):
        adapter = MockAdapter({"other": [reply([])]})  # no replies for "a"
        aset, trace = annotate_example(dataset["a"], dataset, config(), adapter)
        assert aset == AnnotationSet("a")
        assert trace == Trace("a", "test-model", "base", retries=3, failed=True)
        assert adapter.calls == 3

    def test_empty_answer_is_not_failed(self, dataset):
        adapter = MockAdapter({"c": [reply([])]})
        aset, trace = annotate_example(dataset["c"], dataset, config(), adapter)
        assert len(aset) == 0 and trace.failed is False

    def test_constrained_mode_parses_body_directly(self, dataset):
        adapter = MockAdapter({"a": [reply([{"reason": "", "text": "cat", "type": 0}])]})
        aset, trace = annotate_example(
            dataset["a"], dataset, config(schema_mode=SchemaMode.CONSTRAINED), adapter
        )
        assert len(aset) == 1

    def test_constrained_too_deep_body_is_retried(self, dataset):
        deep = '{"annotations": ' * 3000 + "[]" + "}" * 3000
        adapter = MockAdapter({"a": [deep, reply([{"reason": "", "text": "cat", "type": 0}])]})
        aset, trace = annotate_example(
            dataset["a"], dataset, config(schema_mode=SchemaMode.CONSTRAINED), adapter
        )
        assert len(aset) == 1
        assert trace.retries == 1 and trace.failed is False

    def test_trace_record_wire_format(self, dataset):
        adapter = MockAdapter({"a": [reply([{"reason": "why", "text": "cat", "type": 1}])]})
        aset, trace = annotate_example(dataset["a"], dataset, config(), adapter)
        record = trace_record(trace, aset)
        assert set(record) == {
            "example_id", "model_id", "variant", "raw_output", "reasoning",
            "annotations", "latency_s", "usage", "retries", "failed",
        }
        assert set(record["usage"]) == {"prompt_tokens", "completion_tokens"}
        assert record["annotations"][0]["type"] == 1


class TestAnnotateDataset:
    def full_mock(self):
        return MockAdapter({
            "a": [reply([{"reason": "", "text": "cat", "type": 0}])],
            "b": [reply([])],
            "c": ["junk", "junk", "junk"],
        })

    def all_succeed(self):
        return MockAdapter({
            "a": [reply([{"reason": "", "text": "cat", "type": 0}])],
            "b": [reply([])],
            "c": [reply([{"reason": "", "text": "wrong", "type": 1}])],
        })

    def tamper(self, cache, change):
        records = [json.loads(l) for l in cache.read_text().splitlines()]
        for record in records:
            change(record)
        cache.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_fresh_run_covers_all_examples(self, dataset, tmp_path):
        adapter = self.full_mock()
        campaign = annotate_dataset(dataset, config(), adapter, tmp_path / "cache.jsonl")
        assert set(campaign.sets) == {"a", "b", "c"}
        assert campaign.failed_ids() == {"c"}
        assert adapter.calls == 5  # 1 + 1 + 3 retries

    def test_resume_skips_cached_successes(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = self.full_mock()
        annotate_dataset(dataset, config(), first, cache)
        second = self.full_mock()
        campaign = annotate_dataset(dataset, config(), second, cache)
        # only the failed example is retried on resume
        assert second.calls == 3
        assert campaign.failed_ids() == {"c"}

    def test_resume_after_cache_record_removal(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        records = [json.loads(l) for l in cache.read_text().splitlines()]
        kept = [r for r in records if r["example_id"] != "a"]
        cache.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        adapter = self.full_mock()
        annotate_dataset(dataset, config(), adapter, cache)
        # one fresh request for "a" plus 3 for the always-failing "c"
        assert adapter.calls == 4

    def test_torn_final_line_is_dropped_and_reannotated(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        lines = cache.read_bytes().splitlines(keepends=True)
        kept = b"".join(lines[:-1])
        cache.write_bytes(kept + lines[-1][: len(lines[-1]) // 2])
        torn_cache = TraceCache(cache)
        assert cache.read_bytes() == kept  # repaired before anything is appended
        assert torn_cache.get(json.loads(lines[-1])["key"]) is None

        adapter = self.all_succeed()
        resumed = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 1  # only the example whose record was torn
        assert dict(resumed.sets) == dict(first.sets)
        assert cache.read_bytes().splitlines() == [l.rstrip(b"\n") for l in lines]

    def test_corrupt_inner_line_raises_cache_error(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        lines = cache.read_text().splitlines()
        cache.write_text("\n".join([lines[0][:10], *lines[1:]]) + "\n")
        with pytest.raises(CacheError, match="line 1"):
            annotate_dataset(dataset, config(), self.full_mock(), cache)

    def test_too_deep_inner_line_raises_cache_error(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        lines = cache.read_text().splitlines()
        cache.write_text("\n".join(["[" * 100_000, *lines]) + "\n")
        with pytest.raises(CacheError, match="line 1 .*nested too deeply"):
            annotate_dataset(dataset, config(), self.full_mock(), cache)

    @pytest.mark.parametrize("field, value", [
        ("raw_output", None),
        ("raw_output", 7),
        ("raw_output", {"annotations": []}),
        ("latency_s", "0.5"),
        ("annotations", {"start": 4}),
        ("annotations", 7),
        ("usage", []),
    ])
    def test_undecodable_record_raises_cache_error(self, dataset, tmp_path, field, value):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        self.tamper(cache, lambda r: r["example_id"] == "a" and r.update({field: value}))
        with pytest.raises(CacheError, match=r"cache\.jsonl: the record for example 'a'"):
            annotate_dataset(dataset, config(), self.full_mock(), cache)

    def test_null_record_fields_read_as_their_defaults(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        raw = "<think>the cat</think>" + reply([{"reason": "", "text": "cat", "type": 0}])
        adapter = MockAdapter({"a": [raw], "b": [reply([])], "c": ["junk"]})
        annotate_dataset(dataset, config(), adapter, cache)

        def null_fields(record):
            if record["example_id"] == "a":
                for field in ("model_id", "variant", "reasoning", "latency_s", "retries"):
                    record[field] = None
                record["usage"] = {"prompt_tokens": None, "completion_tokens": None}

        self.tamper(cache, null_fields)
        resumed = annotate_dataset(dataset, config(), self.full_mock(), cache)
        # the cache key pins model and variant; the reasoning is derived from the reply
        assert resumed.traces["a"] == Trace("a", "test-model", "base", raw, "the cat")

    def test_stored_spans_are_not_read(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cold = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        bad = [{"start": 7, "end": 4, "type": "0", "surprise": 1}]
        self.tamper(cache, lambda r: r.update(annotations=bad))
        adapter = self.all_succeed()
        warm = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        assert dict(warm.sets) == dict(cold.sets)
        assert dict(warm.traces) == dict(cold.traces)

    def test_grounding_change_reaches_cached_examples(self, dataset, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        cold = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        assert any(len(s) for s in cold.sets.values())

        def drop_every_span(raws, text):
            return [], GroundingReport(dropped_unmatched=len(raws))

        monkeypatch.setattr(runner, "ground_annotations", drop_every_span)
        adapter = self.all_succeed()
        warm = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        assert dict(warm.sets) == {i: AnnotationSet(i) for i in ("a", "b", "c")}
        assert dict(warm.traces) == dict(cold.traces)

    def test_cached_reply_that_no_longer_derives_is_requested_again(
        self, dataset, tmp_path, caplog
    ):
        cache = tmp_path / "cache.jsonl"
        cold = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        self.tamper(cache, lambda r: r["example_id"] == "a" and r.update(raw_output="junk"))
        lines = cache.read_text().splitlines()

        adapter = self.all_succeed()
        with caplog.at_level("WARNING", logger="spanagree.annotator.runner"):
            resumed = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 1
        assert f"{cache}: the cached reply for example 'a'" in caplog.text
        assert dict(resumed.sets) == dict(cold.sets)
        appended = cache.read_text().splitlines()
        assert appended[:-1] == lines
        assert json.loads(appended[-1])["example_id"] == "a"

        adapter = self.all_succeed()
        annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        # that load dropped the superseded record of "a"
        final = cache.read_text().splitlines()
        assert len(final) == 3 and set(final) == set(appended) - {lines[0]}

    def test_constrained_mode_resumes_from_the_cache(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        constrained = config(schema_mode=SchemaMode.CONSTRAINED)
        cold = annotate_dataset(dataset, constrained, self.all_succeed(), cache)
        assert not cold.failed_ids()
        adapter = self.all_succeed()
        warm = annotate_dataset(dataset, constrained, adapter, cache)
        assert adapter.calls == 0
        assert dict(warm.sets) == dict(cold.sets)
        assert dict(warm.traces) == dict(cold.traces)

    def test_cache_records_decode_to_the_annotated_sets(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        adapter = MockAdapter({
            "a": [reply([
                {"reason": "why", "text": "the cat", "type": 0},
                {"reason": "", "text": "mat", "type": 1},
            ])],
            "b": [reply([])],
            "c": [reply([{"reason": "r", "text": "wrong", "type": 1}])],
        })
        first = annotate_dataset(dataset, config(), adapter, cache)
        resumed = annotate_dataset(dataset, config(), self.full_mock(), cache)
        assert dict(resumed.sets) == dict(first.sets)
        assert dict(resumed.traces) == dict(first.traces)

    def test_records_hold_only_what_a_hit_reads(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        records = [json.loads(l) for l in cache.read_text().splitlines()]
        assert [r["example_id"] for r in records] == ["a", "b"]
        for record in records:
            assert list(record) == [
                "key", "example_id", "raw_output", "latency_s", "usage", "retries",
            ]

    def test_load_keeps_one_line_per_key(self, dataset, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        cold = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        canonical = cache.read_bytes()
        a, b, c = [json.loads(l) for l in canonical.splitlines()]
        superseded = {**a, "raw_output": "junk"}
        # the whole trace_record an older version cached for a failure
        failed = {**trace_record(cold.traces["c"], AnnotationSet("c")), "key": c["key"]}
        failed.update(raw_output="junk", failed=True)
        head = "".join(json.dumps(r) + "\n" for r in (superseded, failed))
        cache.write_bytes(head.encode() + canonical + b'{"key": "torn')
        with caplog.at_level("WARNING", logger="spanagree.annotator.runner"):
            TraceCache(cache)
        assert "dropping a torn final line of 13 bytes" in caplog.text
        assert cache.read_bytes() == canonical
        assert not cache.with_name("cache.jsonl.tmp").exists()

        adapter = self.all_succeed()
        warm = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        assert dict(warm.sets) == dict(cold.sets)

    def test_load_leaves_a_canonical_file_alone(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.all_succeed(), cache)
        canonical = cache.read_bytes()
        os.utime(cache, ns=(10**18, 10**18))
        adapter = self.all_succeed()
        annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        assert cache.read_bytes() == canonical
        assert cache.stat().st_mtime_ns == 10**18
        assert not cache.with_name("cache.jsonl.tmp").exists()

    def test_leftover_temporary_file_does_not_break_a_load(self, dataset, tmp_path):
        # a kill between writing the rewrite and renaming it leaves both files
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.all_succeed(), cache)
        canonical = cache.read_bytes()
        leftover = cache.with_name("cache.jsonl.tmp")
        leftover.write_bytes(canonical[: len(canonical) // 2])
        adapter = self.all_succeed()
        annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0 and cache.read_bytes() == canonical

        cache.write_bytes(canonical + b"\n")  # a blank line: the load rewrites
        TraceCache(cache)
        assert cache.read_bytes() == canonical and not leftover.exists()

    def test_whole_trace_records_of_older_versions_resume(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cold = annotate_dataset(dataset, config(), self.all_succeed(), cache)
        keys = {r["example_id"]: r["key"] for r in map(json.loads, cache.read_text().splitlines())}
        fat = "".join(
            json.dumps({"key": keys[i], **trace_record(cold.traces[i], cold.sets[i])}) + "\n"
            for i in ("a", "b", "c")
        )
        cache.write_text(fat)
        adapter = self.all_succeed()
        warm = annotate_dataset(dataset, config(), adapter, cache)
        assert adapter.calls == 0
        assert dict(warm.sets) == dict(cold.sets)
        assert dict(warm.traces) == dict(cold.traces)
        assert cache.read_text() == fat  # not slimmed: only a dropped line rewrites

    def test_cache_directory_created_on_open(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "cache.jsonl"
        cache = TraceCache(path)
        assert path.parent.is_dir() and not path.exists()
        cache.put("k", {"failed": False})
        assert json.loads(path.read_text()) == {"key": "k", "failed": False}
        cache.close()

    def test_each_prompt_rendered_once(self, dataset, tmp_path, monkeypatch):
        calls = []
        original = runner.render_prompt

        def counting(*args, **kwargs):
            calls.append(args[0].id)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "render_prompt", counting)
        annotate_dataset(dataset, config(), self.full_mock(), tmp_path / "cache.jsonl")
        assert sorted(calls) == ["a", "b", "c"]

    def test_duplicate_prompts_each_get_their_own_reply(self, tmp_path):
        # one worker finishes d1, and caches it, before d5 is looked up
        categories = write_bundled_categories(tmp_path, "d2t")
        corpus = tmp_path / "corpus.jsonl"
        ids = ["d1", "d2", "d3", "d4", "d5"]
        texts = {"d1": "same text here", "d5": "same text here"}
        corpus.write_text("".join(
            json.dumps({"id": i, "text": texts.get(i, f"text of {i}"), "source": "{}"}) + "\n"
            for i in ids
        ), encoding="utf-8")
        dataset = load_dataset(corpus, categories)
        surfaces = {"d1": "same", "d5": "here"}
        adapter = MockAdapter({
            i: [reply([{"reason": "", "text": surfaces.get(i, "text"), "type": 0}])]
            for i in ids
        })
        campaign = annotate_dataset(dataset, config(), adapter, tmp_path / "cache.jsonl")
        assert adapter.calls == 5
        assert [(a.start, a.end) for a in campaign.sets["d1"]] == [(0, 4)]
        assert [(a.start, a.end) for a in campaign.sets["d5"]] == [(10, 14)]

    def test_changed_variant_invalidates_cache(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        annotate_dataset(dataset, config(), self.full_mock(), cache)
        adapter = self.full_mock()
        annotate_dataset(
            dataset, config(variant=PromptVariant.NOGUIDE), adapter, cache
        )
        assert adapter.calls == 5  # full re-annotation

    def test_interrupted_run_resumes_to_same_campaign(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        # simulate an interrupt: first run only has replies for "a"
        partial = MockAdapter({"a": [reply([{"reason": "", "text": "cat", "type": 0}])]})
        interrupted = annotate_dataset(dataset, config(), partial, cache)
        assert interrupted.failed_ids() == {"b", "c"}
        resumed = annotate_dataset(dataset, config(), self.full_mock(), cache)
        clean = annotate_dataset(dataset, config(), self.full_mock(), tmp_path / "c2.jsonl")
        assert dict(resumed.sets) == dict(clean.sets)
        assert resumed.failed_ids() == clean.failed_ids()

    def test_concurrency_does_not_change_result(self, dataset, tmp_path):
        serial = annotate_dataset(dataset, config(concurrency_limit=1), self.full_mock())
        threaded = annotate_dataset(dataset, config(concurrency_limit=3), self.full_mock())
        assert dict(serial.sets) == dict(threaded.sets)
        assert serial.failed_ids() == threaded.failed_ids()

    def test_each_record_is_written_as_its_example_finishes(self, dataset, tmp_path):
        cache = tmp_path / "cache.jsonl"
        seen = []

        class SlowFirstExample(MockAdapter):
            # "a" waits for "b", which the other worker annotates, to be cached
            def complete(self, prompt, decoding, schema=None, request_id=""):
                if request_id == "a":
                    deadline = time.monotonic() + 5.0
                    while not self.cached("b") and time.monotonic() < deadline:
                        time.sleep(0.01)
                    seen.append(self.cached("b"))
                return super().complete(prompt, decoding, schema, request_id)

            @staticmethod
            def cached(example_id):
                return cache.exists() and f'"example_id": "{example_id}"' in cache.read_text()

        adapter = SlowFirstExample({
            "a": [reply([{"reason": "", "text": "cat", "type": 0}])],
            "b": [reply([])],
            "c": [reply([])],
        })
        campaign = annotate_dataset(dataset, config(concurrency_limit=2), adapter, cache)
        assert seen == [True]
        assert sorted(campaign.sets) == ["a", "b", "c"]

    def test_many_workers_take_each_example_once(self, tmp_path):
        dataset = make_dataset({f"e{i:03d}": "the cat sat" for i in range(200)})
        adapter = MockAdapter({
            e.id: [reply([{"reason": "", "text": "cat", "type": 0}])] for e in dataset.examples
        })
        cache = tmp_path / "cache.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            campaign = annotate_dataset(dataset, config(concurrency_limit=8), adapter, cache)
            assert time.perf_counter() - started < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert adapter.calls == 200
        assert sorted(campaign.sets) == [e.id for e in dataset.examples]
        assert all(len(aset) == 1 for aset in campaign.sets.values())
        cached = [json.loads(line)["example_id"] for line in cache.read_text().splitlines()]
        assert sorted(cached) == [e.id for e in dataset.examples]

    def test_error_stops_after_requests_in_flight(self, tmp_path):
        dataset = make_dataset({f"e{i:02d}": "the cat sat" for i in range(12)})

        class FailsThirdRequest(MockAdapter):
            requests = 0

            def complete(self, prompt, decoding, schema=None, request_id=""):
                with self._lock:
                    self.requests += 1
                    number = self.requests
                if number == 3:
                    raise OSError("disk full")
                time.sleep(0.01)
                return super().complete(prompt, decoding, schema, request_id)

        adapter = FailsThirdRequest({e.id: [reply([])] for e in dataset.examples})
        with pytest.raises(OSError, match="disk full"):
            annotate_dataset(
                dataset, config(concurrency_limit=2), adapter, tmp_path / "cache.jsonl"
            )
        # the failing request and at most one in flight on the other worker
        assert adapter.requests <= 4

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_ctrl_c_stops_after_requests_in_flight(self, concurrency, tmp_path):
        script = f"""
import os, signal, time
from conftest import make_dataset
from spanagree.annotator import AnnotatorConfig, MockAdapter, annotate_dataset

class SignalsOnThirdRequest(MockAdapter):
    requests = 0

    def complete(self, prompt, decoding, schema=None, request_id=""):
        with self._lock:
            self.requests += 1
            number = self.requests
        if number == 3:
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.05)
        return super().complete(prompt, decoding, schema, request_id)

dataset = make_dataset({{f"e{{i:02d}}": "the cat sat" for i in range(20)}})
adapter = SignalsOnThirdRequest({{e.id: ['{{"annotations": []}}'] for e in dataset.examples}})
config = AnnotatorConfig(model_id="m", concurrency_limit={concurrency})
try:
    annotate_dataset(dataset, config, adapter, {str(tmp_path / "cache.jsonl")!r})
except KeyboardInterrupt:
    print(adapter.requests)
    raise
"""
        tests = Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]
        )}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert "KeyboardInterrupt" in run.stderr
        # the third request sent the signal
        assert int(run.stdout) - 3 <= concurrency
        # the records of the finished examples are in the cache for a resume
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) >= 2

    @pytest.mark.parametrize("error", [None, OSError("disk full"), KeyboardInterrupt()])
    def test_one_cache_handle_per_run_closed_when_it_ends(self, error, tmp_path, monkeypatch):
        dataset = make_dataset({f"e{i}": "the cat sat" for i in range(6)})
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        class FailsLastExample(MockAdapter):
            def complete(self, prompt, decoding, schema=None, request_id=""):
                if error is not None and request_id == "e5":
                    raise error
                return super().complete(prompt, decoding, schema, request_id)

        monkeypatch.setattr(runner, "open", recording_open, raising=False)
        adapter = FailsLastExample({e.id: [reply([])] for e in dataset.examples})
        cache = tmp_path / "cache.jsonl"
        if error is None:
            annotate_dataset(dataset, config(), adapter, cache)
        else:
            with pytest.raises(type(error)):
                annotate_dataset(dataset, config(), adapter, cache)
        # one append handle for every record, closed however the run ended
        assert [h.mode for h in handles] == ["a"] and handles[0].closed
        records = cache.read_text(encoding="utf-8").splitlines()
        assert len(records) == (6 if error is None else 5)

    def test_no_more_workers_than_examples(self, dataset, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        barrier = threading.Barrier(3, timeout=5.0)

        class AllInFlight(MockAdapter):
            # every example waits until all three are in flight
            def complete(self, prompt, decoding, schema=None, request_id=""):
                barrier.wait()
                return super().complete(prompt, decoding, schema, request_id)

        adapter = AllInFlight({i: [reply([])] for i in ("a", "b", "c")})
        campaign = annotate_dataset(dataset, config(concurrency_limit=8), adapter)
        assert len(campaign) == 3 and not campaign.failed_ids()
        assert len(started) == 3

        empty = annotate_dataset(make_dataset({}), config(concurrency_limit=8), adapter)
        assert len(empty) == 0

    def test_works_without_cache(self, dataset):
        campaign = annotate_dataset(dataset, config(), self.full_mock())
        assert len(campaign) == 3

    def test_annotator_id_defaults_to_model_and_variant(self, dataset):
        campaign = annotate_dataset(dataset, config(), self.full_mock())
        assert campaign.annotator_id == "test-model-base"


_REPLY_BODY = json.dumps({
    "choices": [{"message": {"content": reply([])}}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 3},
}).encode()


class _FakeChatHandler(BaseHTTPRequestHandler):
    """Records each request and answers it with ``status`` and ``body``;
    ``declared_length``, when set, is the Content-Length sent instead of
    the body's own length."""

    requests: list[dict] = []
    status = 200
    body = _REPLY_BODY
    declared_length: int | None = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        cls = type(self)
        cls.requests.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "payload": payload}
        )
        self.send_response(cls.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(cls.declared_length or len(cls.body)))
        self.end_headers()
        self.wfile.write(cls.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_chat_server(monkeypatch):
    monkeypatch.setattr(_FakeChatHandler, "requests", [])
    server = HTTPServer(("127.0.0.1", 0), _FakeChatHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


class TestMockAdapter:
    def test_repeated_example_id_raises(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        lines = [{"example_id": "a", "reply": "first"}, {"example_id": "a", "reply": "second"}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(
            ParseError, match=r":2: duplicate example_id 'a' \(first seen on line 1\)"
        ):
            MockAdapter.from_jsonl(path)

        lines[1]["example_id"] = "b"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        mock = MockAdapter.from_jsonl(path)
        assert mock.complete("p", DecodingParams(), request_id="a").text == "first"
        assert mock.complete("p", DecodingParams(), request_id="b").text == "second"


class TestDecodingParams:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_temperature_rejected(self, value):
        with pytest.raises(ValueError, match="temperature must be finite"):
            DecodingParams(temperature=value)


class TestOpenAIChatAdapter:
    def test_missing_key_names_env_var(self, monkeypatch):
        monkeypatch.delenv("SPANAGREE_TEST_KEY", raising=False)
        with pytest.raises(MissingApiKey, match="SPANAGREE_TEST_KEY"):
            OpenAIChatAdapter(model_id="m", api_key_env="SPANAGREE_TEST_KEY")

    @pytest.mark.parametrize("base_url", ["localhost:11434/v1", "file:///tmp", "ftp://host/v1"])
    def test_base_url_must_be_http(self, monkeypatch, base_url):
        monkeypatch.setenv("SPANAGREE_TEST_KEY", "sk-unit")
        with pytest.raises(ValueError, match="http:// or https://"):
            OpenAIChatAdapter(model_id="m", base_url=base_url, api_key_env="SPANAGREE_TEST_KEY")

    def test_request_and_response_shape(self, monkeypatch, fake_chat_server):
        monkeypatch.setenv("SPANAGREE_TEST_KEY", "sk-unit")
        adapter = OpenAIChatAdapter(
            model_id="test-model",
            base_url=fake_chat_server,
            api_key_env="SPANAGREE_TEST_KEY",
        )
        schema = {"type": "object"}
        result = adapter.complete(
            "hello", DecodingParams(temperature=0.0, seed=42), schema=schema
        )
        assert result.text == reply([])
        assert result.prompt_tokens == 12 and result.completion_tokens == 3
        request = _FakeChatHandler.requests[0]
        assert request["path"] == "/v1/chat/completions"
        assert request["auth"] == "Bearer sk-unit"
        assert request["payload"]["temperature"] == 0.0
        assert request["payload"]["seed"] == 42
        assert request["payload"]["messages"] == [{"role": "user", "content": "hello"}]
        assert request["payload"]["response_format"]["json_schema"]["schema"] == schema

    def test_transport_error_wrapped(self, monkeypatch):
        monkeypatch.setenv("SPANAGREE_TEST_KEY", "sk-unit")
        adapter = OpenAIChatAdapter(
            model_id="m",
            base_url="http://127.0.0.1:9",  # nothing listens here
            api_key_env="SPANAGREE_TEST_KEY",
            timeout=0.2,
        )
        with pytest.raises(ProviderError):
            adapter.complete("x", DecodingParams())

    @pytest.fixture
    def stub_adapter(self, monkeypatch, fake_chat_server):
        """Makes an adapter whose server answers every post with ``status``
        and ``content``."""
        monkeypatch.setenv("SPANAGREE_TEST_KEY", "sk-unit")

        def make(content: bytes, status: int = 200, declared_length: int | None = None):
            monkeypatch.setattr(_FakeChatHandler, "status", status)
            monkeypatch.setattr(_FakeChatHandler, "body", content)
            monkeypatch.setattr(_FakeChatHandler, "declared_length", declared_length)
            return OpenAIChatAdapter(
                model_id="m", base_url=fake_chat_server, api_key_env="SPANAGREE_TEST_KEY"
            )

        return make

    @pytest.mark.parametrize("status, declared_length, named", [
        (401, None, "HTTP Error 401"),
        (429, None, "HTTP Error 429"),
        (500, None, "HTTP Error 500"),
        (200, len(_REPLY_BODY) + 100, "IncompleteRead"),
    ], ids=["401", "429", "500", "short-body"])
    def test_http_failure_is_a_provider_error(self, stub_adapter, status, declared_length, named):
        adapter = stub_adapter(_REPLY_BODY, status, declared_length)
        with pytest.raises(ProviderError, match=f"request failed: .*{named}"):
            adapter.complete("x", DecodingParams())

    def test_too_deep_response_body_is_a_provider_error(self, stub_adapter):
        adapter = stub_adapter(b"[" * 100_000)
        with pytest.raises(ProviderError, match="invalid JSON"):
            adapter.complete("x", DecodingParams())

    @pytest.mark.parametrize("body, named", [
        ({"choices": [{"message": {"content": 5}}]}, "'content' must be a string"),
        ({"choices": [{"message": {"content": "{}"}}], "usage": [1]}, "'usage' must be"),
        ({"choices": [{"message": {"content": "{}"}}], "usage": {"prompt_tokens": "n/a"}},
         "'prompt_tokens' must be an integer"),
        ({"choices": [{"message": {"content": "{}"}}],
          "usage": {"completion_tokens": True}}, "'completion_tokens' must be"),
        ({"choices": []}, "'choices' is empty"),
        ({"choices": [{"message": "hi"}]}, "'message' must be"),
        ([1], "expected an object"),
    ], ids=["content-int", "usage-list", "tokens-string", "tokens-bool", "no-choices",
            "message-string", "body-list"])
    def test_malformed_response_shape_is_a_provider_error(self, stub_adapter, body, named):
        adapter = stub_adapter(json.dumps(body).encode())
        with pytest.raises(ProviderError, match=f"malformed provider response: .*{named}"):
            adapter.complete("x", DecodingParams())

    def test_null_content_and_token_count_read_as_empty(self, stub_adapter):
        body = {
            "id": "chatcmpl-1",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": None}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": None, "total_tokens": 7},
        }
        adapter = stub_adapter(json.dumps(body).encode())
        result = adapter.complete("x", DecodingParams())
        assert (result.text, result.prompt_tokens, result.completion_tokens) == ("", 7, 0)

    def test_malformed_response_is_retried(self, stub_adapter, dataset):
        body = {"choices": [{"message": {"content": 5}}]}
        adapter = stub_adapter(json.dumps(body).encode())
        aset, trace = annotate_example(dataset["a"], dataset, config(max_retries=2), adapter)
        assert len(aset) == 0 and trace.failed is True and trace.retries == 2
