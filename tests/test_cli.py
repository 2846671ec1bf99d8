from __future__ import annotations

import hashlib
import importlib
import json
import os
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spanagree
from spanagree import cli
from spanagree.annotator import MockAdapter, OpenAIChatAdapter, ProviderError
from spanagree.annotator.runner import cache_key
from spanagree.cli import ConfigError, _apply_overrides, build_parser, load_run_config, main

from conftest import FIXTURES, write_bundled_categories

# Loaded only by the OpenAI-compatible adapter when it sends a request.
NETWORK_MODULES = ["http.client", "urllib.request", "ssl", "email.parser"]
# What each command leaves to the other: the scorer and the annotate runtime.
SCORER_MODULES = ["spanagree.gamma", "spanagree.metrics", "spanagree.report", "csv"]
ANNOTATE_MODULES = ["spanagree.annotator", "spanagree.grounding"]
# Slow to import and needed by no command: dataclasses pulls in inspect,
# ast, dis and tokenize.
SLOW_MODULES = ["dataclasses", "inspect"]


@pytest.fixture
def mock_config(tmp_path):
    """Config wired to the bundled 10-example fixture with a mock provider."""
    categories = write_bundled_categories(tmp_path, "d2t")
    out = tmp_path / "out"
    config = {
        "corpus": str(FIXTURES / "corpus10.jsonl"),
        "categories": str(categories),
        "campaigns": {
            "gold": str(FIXTURES / "gold10.jsonl"),
            "llm": str(out / "campaign.jsonl"),
        },
        "output_dir": str(out),
        "cache": str(tmp_path / "cache.jsonl"),
        "annotator": {
            "annotator_id": "mock-base",
            "model_id": "mock-model",
            "variant": "base",
            "schema_mode": "freeform",
            "provider": {"kind": "mock", "replies": str(FIXTURES / "replies10.jsonl")},
            "concurrency": 2,
        },
        "metrics": {"gamma": {"n_samples": 10, "seed": 42}},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2))
    return path, out


DELETE = object()


@pytest.fixture
def relative_run(tmp_path):
    """The 10-example fixture run with every path relative to the config's
    directory, so the config bytes, and with them config_hash, are the same
    wherever the run is made."""
    shutil.copy(FIXTURES / "corpus10.jsonl", tmp_path / "corpus.jsonl")
    shutil.copy(FIXTURES / "gold10.jsonl", tmp_path / "gold.jsonl")
    shutil.copy(FIXTURES / "replies10.jsonl", tmp_path / "replies.jsonl")
    shutil.copy(write_bundled_categories(tmp_path, "d2t"), tmp_path / "categories.json")
    config = {
        "corpus": "corpus.jsonl",
        "categories": "categories.json",
        "campaigns": {"gold": "gold.jsonl", "llm": "out/campaign.jsonl"},
        "output_dir": "out",
        "cache": "cache.jsonl",
        "annotator": {
            "annotator_id": "mock-base",
            "model_id": "mock-model",
            "provider": {"kind": "mock", "replies": "replies.jsonl"},
            "concurrency": 2,
        },
        "metrics": {"gamma": {"n_samples": 10, "seed": 42}},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


class TestConfigLoading:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "x", "categories": "y", "output_dir": "z", "surprise": 1,
        }))
        with pytest.raises(ConfigError, match="surprise"):
            load_run_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"corpus": "x", "categories": "y"}))
        with pytest.raises(ConfigError, match="output_dir"):
            load_run_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "x", "categories": "y", "output_dir": "z",
            "metrics": {"gamma": {"n_samples": 5, "temperature": 1}},
        }))
        with pytest.raises(ConfigError, match="temperature"):
            load_run_config(path)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "data/corpus.jsonl", "categories": "cats.json",
            "output_dir": "out",
        }))
        config = load_run_config(path)
        assert config.corpus == tmp_path / "data/corpus.jsonl"
        assert config.output_dir == tmp_path / "out"

    def test_null_annotator_seed_sends_unseeded_requests(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "x", "categories": "y", "output_dir": "z",
            "annotator": {"model_id": "m", "seed": None},
        }))
        config = load_run_config(path)
        assert config.annotator.decoding.seed is None
        # the key an unseeded config has always had, so its cache still hits
        assert cache_key(config.annotator, "prompt") == (
            "158624b6fb65c7ca8caac08201144708e7d1c09736706f45497ed7c2814b4d09"
        )

    def test_integer_temperature_keys_like_the_default(self, tmp_path):
        keys = []
        for extra in ({}, {"temperature": 0}, {"temperature": 0.0}):
            path = tmp_path / "c.json"
            path.write_text(json.dumps({
                "corpus": "x", "categories": "y", "output_dir": "z",
                "annotator": {"model_id": "m", **extra},
            }))
            config = load_run_config(path)
            assert type(config.annotator.decoding.temperature) is float
            keys.append(cache_key(config.annotator, "prompt"))
        assert len(set(keys)) == 1

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "x", "categories": "y", "output_dir": "z",
            "annotator": {"model_id": "m", "variant": "sevenshot"},
        }))
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": "x", "categories": "y", "output_dir": "z", "bogus": 1,
        }))
        assert main(["stats", "--config", str(path), "gold"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", pytest.param("1" + "0" * 400, id="int-beyond-float-range"),
    ])
    @pytest.mark.parametrize("section, key", [
        ("metrics.gamma", "alpha"),
        ("metrics.gamma", "beta"),
        ("metrics.gamma", "delta_empty"),
        ("annotator", "temperature"),
    ])
    def test_non_finite_number_exits_2(self, mock_config, capsys, section, key, literal):
        # Python's JSON decoder reads these literals; the config must not.
        path, out = mock_config
        text = path.read_text()
        anchor = {"metrics.gamma": '"n_samples": 10', "annotator": '"model_id": "mock-model"'}
        text = text.replace(anchor[section], f'"{key}": {literal}, {anchor[section]}')
        path.write_text(text)
        assert main(["evaluate", "--config", str(path), "gold", "gold"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "run.json" in err and "must be finite" in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("weights", [
        '"alpha": 1e308, "beta": 1e308',
        '"alpha": 1e-320, "beta": 0',
    ])
    def test_overflowing_cost_scale_exits_2(self, mock_config, capsys, weights):
        path, out = mock_config
        path.write_text(path.read_text().replace('"n_samples": 10', f'{weights}, "n_samples": 10'))
        assert main(["evaluate", "--config", str(path), "gold", "gold"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "run.json" in err and "cost scale" in err
        assert not (out / "report.json").exists()

    def test_overflowing_delta_empty_exits_2(self, mock_config, capsys):
        # Gold against itself scores 1.0 before any cost is summed, so the
        # overflow shows only against the annotated campaign.
        path, out = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        path.write_text(path.read_text().replace(
            '"n_samples": 10', '"delta_empty": 1e308, "n_samples": 10'))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path), "gold", "llm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "delta_empty=1e+308" in err and "gamma is nan" in err
        assert not (out / "report.json").exists()

    def test_ctrl_c_exits_130_without_traceback(self, mock_config, capsys, monkeypatch):
        path, _ = mock_config

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "annotate_dataset", interrupted)
        assert main(["annotate", "--config", str(path)]) == 130
        # one line, no traceback
        assert capsys.readouterr().err == "interrupted\n"

    @pytest.mark.parametrize("bug", [RuntimeError("bug"), KeyError("bug")])
    def test_other_exception_types_propagate(self, mock_config, monkeypatch, bug):
        # Only ValueError and OSError are the user's to fix; the rest are bugs.
        path, _ = mock_config

        def broken(*args, **kwargs):
            raise bug

        monkeypatch.setattr(cli, "aggregate", broken)
        with pytest.raises(type(bug)):
            main(["evaluate", "--config", str(path), "gold", "gold"])

    @pytest.mark.parametrize("command, key", [
        *(("evaluate", key) for key in ("corpus", "categories", "output_dir", "campaigns.gold")),
        ("annotate", "cache"),
        *(("annotate", f"annotator.{key}") for key in (
            "model_id", "annotator_id", "variant", "schema_mode", "max_retries",
            "concurrency", "fewshot", "temperature", "seed")),
        *(("annotate", f"annotator.provider.{key}")
          for key in ("kind", "base_url", "api_key_env", "replies")),
        *(("evaluate", f"metrics.gamma.{key}")
          for key in ("alpha", "beta", "delta_empty", "n_samples", "seed")),
    ])
    def test_hostile_run_json_value_exits_0_2_or_3(
        self, mock_config, capsys, monkeypatch, command, key
    ):
        def offline(*args, **kwargs):
            raise ProviderError("offline")

        # No value may make the sweep send a request.
        monkeypatch.setattr(OpenAIChatAdapter, "complete", offline)
        path, _ = mock_config
        config = json.loads(path.read_text())
        *parents, last = key.split(".")
        if last in ("base_url", "api_key_env"):
            # Read only by the HTTP adapter.
            config["annotator"]["provider"] = {
                "kind": "openai", "api_key_env": "SPANAGREE_SWEEP_KEY",
                "base_url": "https://provider.invalid/v1",
            }
            monkeypatch.setenv("SPANAGREE_SWEEP_KEY", "sk-unit")
        names = ["gold", "gold"] if command == "evaluate" else []
        codes = {}
        for value in ["\u0000", "a\u0000b", 10**400, -1, 0, "", [], {}, True, None]:
            section = config
            for part in parents:
                section = section[part]
            section[last] = value
            path.write_text(json.dumps(config))
            codes[repr(value)[:12]] = main([command, "--config", str(path), *names])
        capsys.readouterr()
        assert set(codes.values()) <= {0, 2, 3}, codes

    @pytest.mark.parametrize("argv", [
        ["stats", "gold", "--seed", "1"],
        ["stats", "gold", "--output", "x"],
        ["stats", "gold", "--mock", "x"],
        ["evaluate", "gold", "gold", "--mock", "x"],
    ])
    def test_option_the_command_ignores_exits_2(self, mock_config, capsys, argv):
        path, _ = mock_config
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(path), *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["stats", "--config", str(tmp_path / "nope.json"), "g"]) == 3

    def test_missing_api_key_exits_2_naming_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("UNSET_KEY_VAR", raising=False)
        categories = write_bundled_categories(tmp_path, "d2t")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": str(FIXTURES / "corpus10.jsonl"),
            "categories": str(categories),
            "output_dir": str(tmp_path / "out"),
            "annotator": {
                "model_id": "m",
                "provider": {"kind": "openai", "api_key_env": "UNSET_KEY_VAR"},
            },
        }))
        assert main(["annotate", "--config", str(path)]) == 2
        assert "UNSET_KEY_VAR" in capsys.readouterr().err

    @pytest.mark.parametrize("provider, message", [
        (DELETE, "error: config has no annotator section"),
        ({"kind": "ftp"}, "run.json: unknown provider kind 'ftp'"),
        ({"kind": "mock"}, "error: mock provider needs a replies file (--mock PATH)"),
    ], ids=["no-annotator-section", "unknown-provider-kind", "mock-without-replies"])
    def test_annotate_without_a_usable_provider_exits_2(
        self, mock_config, capsys, provider, message
    ):
        path, out = mock_config
        config = json.loads(path.read_text())
        if provider is DELETE:
            del config["annotator"]
        else:
            config["annotator"]["provider"] = provider
        path.write_text(json.dumps(config))
        assert main(["annotate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_base_url_without_http_scheme_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPANAGREE_TEST_KEY", "sk-unit")
        categories = write_bundled_categories(tmp_path, "d2t")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "corpus": str(FIXTURES / "corpus10.jsonl"),
            "categories": str(categories),
            "output_dir": str(tmp_path / "out"),
            "annotator": {
                "model_id": "m",
                "provider": {"kind": "openai", "api_key_env": "SPANAGREE_TEST_KEY",
                             "base_url": "localhost:11434/v1"},
            },
        }))
        assert main(["annotate", "--config", str(path)]) == 2
        assert "'localhost:11434/v1'" in capsys.readouterr().err

    def test_corrupt_cache_line_exits_3(self, mock_config, capsys):
        path, _ = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        cache = path.parent / "cache.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        cache.write_text("\n".join(["{not json", *lines]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["annotate", "--config", str(path)]) == 3
        assert "line 1 is not a cache record" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("raw_output", 7), ("usage", [])])
    def test_unreadable_cache_record_exits_3(self, mock_config, capsys, field, value):
        path, _ = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        cache = path.parent / "cache.jsonl"
        records = [json.loads(l) for l in cache.read_text(encoding="utf-8").splitlines()]
        target = records[0]
        target[field] = value
        cache.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["annotate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert str(cache) in err and repr(target["example_id"]) in err

    def test_unknown_campaign_id_exits_2(self, mock_config, capsys):
        path, _ = mock_config
        assert main(["stats", "--config", str(path), "missing"]) == 2

    @pytest.mark.parametrize("command, file, key, value, named", [
        ("evaluate", "run.json", "metrics", [], "metrics"),
        ("evaluate", "run.json", "metrics.gamma", 5, "gamma"),
        ("evaluate", "run.json", "campaigns", [], "campaigns"),
        ("evaluate", "run.json", "corpus", 5, "corpus"),
        ("annotate", "run.json", "annotator", [], "annotator"),
        ("annotate", "run.json", "annotator.provider", [], "provider"),
        ("annotate", "run.json", "annotator.max_retries", "3", "max_retries"),
        ("annotate", "run.json", "annotator.concurrency", 1.5, "concurrency"),
        ("annotate", "run.json", "annotator.fewshot", [1], "fewshot"),
        ("evaluate", "run.json", "metrics.gamma.n_samples", "30", "n_samples"),
        ("evaluate", "run.json", "metrics.gamma.n_samples", 2.5, "n_samples"),
        ("evaluate", "run.json", "metrics.gamma.alpha", "1", "alpha"),
        ("evaluate", "corpus.jsonl", "id", [1], "id"),
        ("evaluate", "corpus.jsonl", "text", 5, "text"),
        ("evaluate", "corpus.jsonl", "metadata", 5, "metadata"),
        ("evaluate", "corpus.jsonl", None, b'{"id": "ex01", "text": "caf\xe9"}', "UTF-8"),
        ("evaluate", "categories.json", "categories.0.index", "0", "index"),
        ("evaluate", "gold.jsonl", "annotations", 5, "annotations"),
        ("evaluate", "gold.jsonl", "example_id", [1], "example_id"),
        ("annotate", "replies.jsonl", None, b"{not json", "invalid JSON"),
        ("evaluate", "run.json", None, b"{not json", "invalid JSON"),
        ("annotate", "replies.jsonl", "example_id", DELETE, "example_id"),
        ("annotate", "replies.jsonl", "replies", [], "replies"),
        pytest.param("evaluate", "corpus.jsonl", None, b"[" * 100_000, "nested too deeply",
                     id="evaluate-corpus.jsonl-too-deep"),
        pytest.param("evaluate", "run.json", None, b"[" * 100_000, "nested too deeply",
                     id="evaluate-run.json-too-deep"),
        pytest.param("annotate", "corpus.jsonl", "text", "bad \ud800 text here",
                     "lone surrogate escape \\ud800", id="annotate-corpus.jsonl-text-surrogate"),
        pytest.param("annotate", "categories.json", "guidelines", "hints \udc00",
                     "lone surrogate escape \\udc00",
                     id="annotate-categories.json-guidelines-surrogate"),
        pytest.param("evaluate", "gold.jsonl", "annotator_id", "gold \ud800",
                     "lone surrogate escape \\ud800",
                     id="evaluate-gold.jsonl-annotator_id-surrogate"),
        pytest.param("annotate", "replies.jsonl", "replies", ["{} \ud800"],
                     "lone surrogate escape \\ud800",
                     id="annotate-replies.jsonl-replies-surrogate"),
        pytest.param("annotate", "run.json", "output_dir", "out \ud800",
                     "lone surrogate escape \\ud800", id="annotate-run.json-output_dir-surrogate"),
        pytest.param("evaluate", "categories.json", "categories", [],
                     "categories must be a non-empty list", id="evaluate-categories.json-empty"),
        pytest.param("evaluate", "categories.json", "categories",
                     [{"index": i, "name": f"c{i}"} for i in range(257)],
                     "at most 256 categories, got 257", id="evaluate-categories.json-257"),
        pytest.param("evaluate", "categories.json", None, b'{"task": "caf\xe9"}', "not UTF-8",
                     id="evaluate-categories.json-not-utf8"),
        pytest.param("evaluate", "corpus.jsonl", "text", "", "has empty text",
                     id="evaluate-corpus.jsonl-empty-text"),
        pytest.param("evaluate", "gold.jsonl", "annotations", [{"start": 5, "end": 5, "type": 0}],
                     "span must satisfy 0 <= start < end, got [5, 5)",
                     id="evaluate-gold.jsonl-empty-span"),
        pytest.param("evaluate", "gold.jsonl", "annotations",
                     [{"start": 0, "end": 5, "type": 0}, {"start": 0, "end": 5, "type": 0}],
                     "duplicate span [0, 5) of category 0 in example 'ex01'",
                     id="evaluate-gold.jsonl-duplicate-span"),
        pytest.param("annotate", "run.json", "annotator.max_retries", 0,
                     "max_retries must be at least 1", id="annotate-run.json-max_retries-0"),
        pytest.param("annotate", "run.json", "annotator.concurrency", 0,
                     "concurrency_limit must be at least 1", id="annotate-run.json-concurrency-0"),
        pytest.param("evaluate", "run.json", "metrics.gamma.n_samples", 0,
                     "n_samples must be at least 1", id="evaluate-run.json-n_samples-0"),
        *(pytest.param("annotate", "run.json", "annotator.max_retries", value,
                       "max_retries must be at most 100",
                       id=f"annotate-run.json-max_retries-{name}")
          for name, value in (("101", 101), ("1e400", 10**400))),
        *(pytest.param("annotate", "run.json", "annotator.concurrency", value,
                       "concurrency_limit must be at most 64",
                       id=f"annotate-run.json-concurrency-{name}")
          for name, value in (("65", 65), ("1e400", 10**400))),
        *(pytest.param("evaluate", "run.json", "metrics.gamma.n_samples", value,
                       "n_samples must be at most 10000",
                       id=f"evaluate-run.json-n_samples-{name}")
          for name, value in (("10001", 10_001), ("1e400", 10**400))),
    ])
    def test_malformed_input_exits_2_naming_file_and_key(
        self, relative_run, capsys, monkeypatch, command, file, key, value, named
    ):
        # the llm campaign to evaluate against, from the valid inputs
        assert main(["annotate", "--config", str(relative_run)]) == 0
        capsys.readouterr()

        def not_reached(*args, **kwargs):
            raise AssertionError("a malformed input must exit before any work")

        # No request, thread or resample before the exit.
        monkeypatch.setattr(cli, "annotate_dataset", not_reached)
        monkeypatch.setattr(cli, "aggregate", not_reached)
        target = relative_run.parent / file
        jsonl = file.endswith(".jsonl")
        lines = target.read_bytes().splitlines(keepends=True)
        if key is None:
            lines[0] = value + b"\n"
        else:
            record = json.loads(lines[0] if jsonl else b"".join(lines))
            *parents, last = key.split(".")
            inner = record
            for part in parents:
                inner = inner[int(part)] if part.isdigit() else inner[part]
            if value is DELETE:
                del inner[last]
            else:
                inner[last] = value
            lines = [json.dumps(record).encode() + b"\n", *(lines[1:] if jsonl else [])]
        target.write_bytes(b"".join(lines))

        names = ["gold", "llm"] if command == "evaluate" else []
        assert main([command, "--config", str(relative_run), *names]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (f"{file}:1: " if jsonl else f"{file}: ") in err
        assert named in err

    @pytest.mark.parametrize("encode, named", [
        (lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"), "Unexpected UTF-8 BOM"),
        (lambda text: text.encode("utf-16"), "not UTF-8 at byte 0"),
    ], ids=["bom", "utf-16"])
    def test_run_json_is_read_as_utf8(self, relative_run, capsys, encode, named):
        # Like every other input file: json.loads alone would take both.
        relative_run.write_bytes(encode(relative_run.read_text(encoding="utf-8")))
        assert main(["stats", "--config", str(relative_run), "gold"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{relative_run}: " in err and named in err

    @pytest.mark.parametrize("variant, shots, drop_source, named", [
        ("fiveshot", 3, False, "fiveshot needs exactly 5 examples, got 3"),
        ("base", 5, False, "variant base takes no few-shot examples"),
        ("base", 0, True, "example 'ex01' has no source but the d2t prompt requires one"),
    ], ids=["fiveshot-with-3-shots", "base-with-shots", "d2t-without-source"])
    def test_prompt_error_exits_2(
        self, relative_run, capsys, variant, shots, drop_source, named
    ):
        config = json.loads(relative_run.read_text(encoding="utf-8"))
        config["annotator"]["variant"] = variant
        if shots:
            shot = {"text": "t", "data": "d", "annotations": []}
            config["annotator"]["fewshot"] = [shot] * shots
        relative_run.write_text(json.dumps(config), encoding="utf-8")
        if drop_source:
            corpus = relative_run.parent / "corpus.jsonl"
            first, *rest = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
            record = json.loads(first)
            del record["source"]
            corpus.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
        assert main(["annotate", "--config", str(relative_run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert named in err

    def test_d2t_fiveshot_entry_without_data_exits_2(self, relative_run, capsys):
        config = json.loads(relative_run.read_text(encoding="utf-8"))
        config["annotator"]["variant"] = "fiveshot"
        shot = {"text": "t", "data": "d", "annotations": []}
        config["annotator"]["fewshot"] = [shot] * 4 + [{"text": "t", "annotations": []}]
        relative_run.write_text(json.dumps(config), encoding="utf-8")
        assert main(["annotate", "--config", str(relative_run)]) == 2
        err = capsys.readouterr().err
        assert err == "error: few-shot example 5 needs a 'data' field\n"
        assert not (relative_run.parent / "out").exists()

    @pytest.mark.parametrize("file", ["run.json", "categories.json"])
    def test_too_deep_json_after_line_1_names_no_position(self, relative_run, capsys, file):
        assert main(["annotate", "--config", str(relative_run)]) == 0
        capsys.readouterr()
        target = relative_run.parent / file
        target.write_bytes(b'{\n  "task": "d2t",\n  "guidelines": ' + b"[" * 100_000 + b"\n")
        assert main(["evaluate", "--config", str(relative_run), "gold", "llm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{file}: " in err and "nested too deeply" in err
        assert "line 1 column 1" not in err and f"{file}:1:" not in err


class TestLoneSurrogateInReply:
    """A reply whose JSON payload escapes a lone surrogate, which no UTF-8
    campaign can hold, counts as invalid JSON, whether it is fresh or read
    back from the cache."""

    # the backslash escape as the model wrote it, inside the reply text
    SURROGATE_REPLY = (
        '{"annotations": [{"reason": "bad \\ud800 half", '
        '"text": "reach 25 degrees on Monday", "type": 0}]}'
    )

    @staticmethod
    def set_replies(run, example_id, replies):
        path = run.parent / "replies.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for record in records:
            if record["example_id"] == example_id:
                record["replies"] = replies
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    @staticmethod
    def outputs(run):
        out = run.parent / "out"
        # strict UTF-8, as every reader of the campaign takes it
        campaign = [json.loads(l) for l in (out / "campaign.jsonl").read_text("utf-8").splitlines()]
        traces = [json.loads(l) for l in (out / "traces.jsonl").read_text("utf-8").splitlines()]
        return {r["example_id"]: r for r in campaign}, {r["example_id"]: r for r in traces}

    def test_fresh_reply_is_a_failed_attempt_and_retried(self, relative_run, capsys):
        assert main(["annotate", "--config", str(relative_run)]) == 0
        plain, _ = self.outputs(relative_run)
        good = json.loads((relative_run.parent / "replies.jsonl").read_text().splitlines()[0])
        assert good["example_id"] == "ex01"
        shutil.rmtree(relative_run.parent / "out")
        (relative_run.parent / "cache.jsonl").unlink()

        self.set_replies(relative_run, "ex01", [self.SURROGATE_REPLY, *good["replies"]])
        capsys.readouterr()
        assert main(["annotate", "--config", str(relative_run)]) == 0
        assert "failed: 1 (ex03)" in capsys.readouterr().out
        campaign, traces = self.outputs(relative_run)
        assert campaign == plain
        assert traces["ex01"]["retries"] == 1

        shutil.rmtree(relative_run.parent / "out")
        (relative_run.parent / "cache.jsonl").unlink()
        self.set_replies(relative_run, "ex01", [self.SURROGATE_REPLY])
        assert main(["annotate", "--config", str(relative_run)]) == 0
        captured = capsys.readouterr()
        assert "failed: 2 (ex01, ex03)" in captured.out and "Traceback" not in captured.err
        campaign, _ = self.outputs(relative_run)
        assert campaign["ex01"]["failed"] and campaign["ex01"]["annotations"] == []

    def test_cached_reply_fails_on_rederive_and_is_requested_again(
        self, relative_run, capsys, monkeypatch
    ):
        assert main(["annotate", "--config", str(relative_run)]) == 0
        plain, _ = self.outputs(relative_run)
        # a cache written before such replies were rejected
        cache = relative_run.parent / "cache.jsonl"
        records = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
        for record in records:
            if record["example_id"] == "ex01":
                record["raw_output"] = self.SURROGATE_REPLY
        cache.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

        requested = []
        complete = MockAdapter.complete

        def recording(self, prompt, decoding, schema=None, request_id=""):
            requested.append(request_id)
            return complete(self, prompt, decoding, schema, request_id)

        monkeypatch.setattr(MockAdapter, "complete", recording)
        shutil.rmtree(relative_run.parent / "out")
        assert main(["annotate", "--config", str(relative_run)]) == 0
        assert "ex01" in requested
        assert self.outputs(relative_run)[0] == plain

        # put the tampered cache back; this time no good reply is left to request
        cache.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        self.set_replies(relative_run, "ex01", [self.SURROGATE_REPLY])
        capsys.readouterr()
        assert main(["annotate", "--config", str(relative_run)]) == 0
        captured = capsys.readouterr()
        assert "failed: 2 (ex01, ex03)" in captured.out and "Traceback" not in captured.err
        assert self.outputs(relative_run)[0]["ex01"]["failed"]


class TestHostileReplyRetried:
    # A reply packed with candidate objects and one closing brace: it took
    # 1.6-1.8 s of CPU to reject on 2 vCPUs while every candidate decoded
    # the rest of the reply.
    HOSTILE_REPLY = '{"a": ' * 16_000 + "}"

    def test_hostile_first_reply_is_retried_quickly(self, relative_run, capsys):
        assert main(["annotate", "--config", str(relative_run)]) == 0
        plain, _ = TestLoneSurrogateInReply.outputs(relative_run)
        good = json.loads((relative_run.parent / "replies.jsonl").read_text().splitlines()[0])
        assert good["example_id"] == "ex01"
        shutil.rmtree(relative_run.parent / "out")
        (relative_run.parent / "cache.jsonl").unlink()

        TestLoneSurrogateInReply.set_replies(
            relative_run, "ex01", [self.HOSTILE_REPLY, *good["replies"]])
        capsys.readouterr()
        started = time.process_time()
        assert main(["annotate", "--config", str(relative_run)]) == 0
        assert time.process_time() - started < 0.5
        assert "failed: 1 (ex03)" in capsys.readouterr().out
        campaign, traces = TestLoneSurrogateInReply.outputs(relative_run)
        assert traces["ex01"]["retries"] == 1 and not traces["ex01"]["failed"]
        assert campaign["ex01"] == plain["ex01"] and campaign["ex01"]["annotations"]


class TestCommands:
    def test_annotate_then_evaluate_then_stats(self, mock_config, capsys):
        path, out = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert "annotated 10 examples" in stdout
        assert "failed: 1 (ex03)" in stdout
        assert "mean latency" in stdout
        assert (out / "campaign.jsonl").exists()
        assert (out / "traces.jsonl").exists()

        assert main(["evaluate", "--config", str(path), "gold", "llm"]) == 0
        stdout = capsys.readouterr().out
        assert "F1(hard)=" in stdout
        for name in ("report.json", "summary.csv", "per_example.csv", "confusion.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["counts"]["failed"] == 1
        assert report["gamma_config"]["seed"] == 42
        # enough provenance to reproduce every number in the file
        assert report["tool"]["name"] == "spanagree" and report["tool"]["version"]
        assert len(report["config_hash"]) == 64
        assert report["gamma_config"]["n_samples"] == 10

        assert main(["stats", "--config", str(path), "llm"]) == 0
        stdout = capsys.readouterr().out
        for column in ("Ann:", "Ann/Ex:", "w/o%:", "Char/Ann:"):
            assert column in stdout

    def test_failed_example_is_requested_again_but_not_cached(self, mock_config, monkeypatch):
        # ex03's replies hold no JSON, so every run exhausts its retries
        path, _ = mock_config
        cache = path.parent / "cache.jsonl"
        requested = []
        complete = MockAdapter.complete

        def recording(self, prompt, decoding, schema=None, request_id=""):
            requested.append(request_id)
            return complete(self, prompt, decoding, schema, request_id)

        monkeypatch.setattr(MockAdapter, "complete", recording)
        assert main(["annotate", "--config", str(path)]) == 0
        first = cache.read_bytes()
        requested.clear()
        assert main(["annotate", "--config", str(path)]) == 0
        assert cache.read_bytes() == first
        assert len(first.splitlines()) == 9
        assert set(requested) == {"ex03"}

    def test_self_evaluation_scores_one(self, mock_config, capsys):
        path, out = mock_config
        assert main(["evaluate", "--config", str(path), "gold", "gold"]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        header, row = summary[0].split(","), summary[1].split(",")
        values = dict(zip(header, row))
        assert values["f1_hard"] == "1.000"
        assert values["f1_soft"] == "1.000"
        assert values["gamma"] == "1.000"
        assert values["pearson"] == "1.000"

    def test_seed_override_recorded_in_report(self, mock_config):
        path, out = mock_config
        assert main(["evaluate", "--config", str(path), "gold", "gold", "--seed", "7"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gamma_config"]["seed"] == 7

    def test_seed_override_keeps_other_settings(self, mock_config):
        path, _ = mock_config
        config = load_run_config(path)
        args = build_parser().parse_args(
            ["annotate", "--config", str(path), "--seed", "7"]
        )
        overridden = _apply_overrides(load_run_config(path), args)
        assert overridden.gamma == config.gamma.replace(seed=7)
        assert overridden.annotator == config.annotator.replace(
            decoding=config.annotator.decoding.replace(seed=7)
        )

    @staticmethod
    def assert_leaves_out(modules, code, flags=()):
        """``code`` runs in a fresh interpreter, started with ``flags``,
        without importing any of ``modules``."""
        src = Path(spanagree.__file__).parent.parent
        script = f"import sys\n{code}\nassert not set({modules!r}) & set(sys.modules)\n"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, *flags, "-c", script], env=env, check=True,
                       capture_output=True)

    @classmethod
    def assert_run_leaves_out(cls, module, argv, flags=()):
        """``main(argv)`` in a fresh interpreter exits 0 without importing
        ``module``."""
        cls.assert_leaves_out(
            [module], f"from spanagree.cli import main\nassert main({argv!r}) == 0", flags
        )

    @pytest.mark.parametrize(
        "module",
        ["numpy", "scipy", "requests", "urllib3", *NETWORK_MODULES, "concurrent.futures",
         *ANNOTATE_MODULES, *SLOW_MODULES, "logging"],
    )
    def test_evaluate_does_not_import(self, mock_config, module):
        path, _ = mock_config
        self.assert_run_leaves_out(module, ["evaluate", "--config", str(path), "gold", "gold"])

    @pytest.mark.parametrize(
        "module",
        ["numpy", "scipy", "requests", *NETWORK_MODULES, *SCORER_MODULES, *SLOW_MODULES,
         "logging", "concurrent.futures"],
    )
    def test_annotate_mock_does_not_import(self, mock_config, module):
        path, _ = mock_config
        replies = str(FIXTURES / "replies10.jsonl")
        self.assert_run_leaves_out(module, ["annotate", "--config", str(path), "--mock", replies])

    def test_commands_do_not_import_resources(self, mock_config):
        # Without site (-S), which may import importlib.resources through a .pth file.
        path, _ = mock_config
        replies = str(FIXTURES / "replies10.jsonl")
        for argv in (["evaluate", "--config", str(path), "gold", "gold"],
                     ["annotate", "--config", str(path), "--mock", replies]):
            self.assert_run_leaves_out("importlib.resources", argv, flags=["-S"])

    def test_import_does_not_load_network_or_pool(self):
        # What every command pays before it parses its arguments.
        self.assert_leaves_out(
            [*NETWORK_MODULES, "concurrent.futures", *SCORER_MODULES, *ANNOTATE_MODULES,
             *SLOW_MODULES, "logging"],
            "import spanagree.cli",
        )

    def test_warning_reaches_stderr_without_logging_set_up(self, mock_config):
        # pytest sets up logging in this process, so the warning is checked
        # in a fresh interpreter, where only logging's last-resort handler
        # can print it.
        path, _ = mock_config
        replies = str(FIXTURES / "replies10.jsonl")
        argv = ["annotate", "--config", str(path), "--mock", replies]
        assert main(argv) == 0
        cache = path.parent / "cache.jsonl"
        torn = b'{"key": "0'
        with open(cache, "ab") as handle:
            handle.write(torn)
        src = Path(spanagree.__file__).parent.parent
        result = subprocess.run([sys.executable, "-m", "spanagree.cli", *argv],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        line = f"{cache}: dropping a torn final line of {len(torn)} bytes"
        assert line in result.stderr.splitlines()

    def test_deferred_names_resolve_on_first_use(self):
        for module, names in cli._DEFERRED.items():
            owner = importlib.import_module(f"spanagree.{module}")
            assert all(getattr(cli, name) is getattr(owner, name) for name in names)
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    @pytest.mark.filterwarnings("ignore:'spanagree.cli' found in sys.modules:RuntimeWarning")
    def test_commands_run_through_runpy(self, mock_config, capsys, monkeypatch):
        # run_module runs the file in a namespace that no module owns, as
        # `python -m cProfile -m spanagree.cli` does.
        path, out = mock_config
        for argv in (["stats", "--config", str(path), "gold"],
                     ["evaluate", "--config", str(path), "gold", "gold"]):
            monkeypatch.setattr(sys, "argv", ["spanagree", *argv])
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("spanagree.cli", run_name="__main__")
            assert exc.value.code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("annotator: gold\n") and "\ngold vs gold: " in stdout
        assert (out / "report.json").exists()

    def test_run_module_before_any_import(self, mock_config):
        # Here spanagree.cli runs under its own name before any import has
        # put it in sys.modules.
        path, out = mock_config
        argv = ["evaluate", "--config", str(path), "gold", "gold"]
        code = (f"import runpy, sys\nnamespace = runpy.run_module('spanagree.cli')\n"
                f"sys.exit(namespace['main']({argv!r}))")
        src = Path(spanagree.__file__).parent.parent
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert (out / "report.json").exists()

    def test_evaluate_runs_under_cprofile(self, mock_config):
        path, out = mock_config
        src = Path(spanagree.__file__).parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", os.devnull, "-m", "spanagree.cli",
             "evaluate", "--config", str(path), "gold", "gold"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "report.json").exists()

    def test_output_override(self, mock_config, tmp_path):
        path, _ = mock_config
        other = tmp_path / "elsewhere"
        assert main(["evaluate", "--config", str(path), "gold", "gold",
                     "--output", str(other)]) == 0
        assert (other / "report.json").exists()

    def test_mock_flag_overrides_provider(self, tmp_path, capsys):
        categories = write_bundled_categories(tmp_path, "d2t")
        out = tmp_path / "out"
        config = {
            "corpus": str(FIXTURES / "corpus10.jsonl"),
            "categories": str(categories),
            "output_dir": str(out),
            "annotator": {
                "model_id": "m",
                "provider": {"kind": "openai", "api_key_env": "UNSET_KEY_VAR"},
            },
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code = main(["annotate", "--config", str(path),
                     "--mock", str(FIXTURES / "replies10.jsonl")])
        assert code == 0

    def test_evaluate_mismatched_campaigns_exits_2(self, mock_config, tmp_path):
        path, out = mock_config
        # gold file trimmed to 9 examples cannot be compared to itself full
        trimmed = tmp_path / "gold9.jsonl"
        lines = (FIXTURES / "gold10.jsonl").read_text().splitlines()
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        config = json.loads(path.read_text())
        config["campaigns"]["gold9"] = str(trimmed)
        path.write_text(json.dumps(config))
        assert main(["evaluate", "--config", str(path), "gold", "gold9"]) == 2


# sha256 of every file the fixture annotate + evaluate run writes; a change
# that must alter an output regenerates these and says why.
GOLDEN_OUTPUT_DIGESTS = {
    "campaign.jsonl": "443f7a15364a41f209d713084eab0dd68f7e8e688a91e077067f7bac0b4921dd",
    "traces.jsonl": "56e2b03feb7d105af0ebf8b4c602b3a378657f08d7110dfaae798623286bdc0d",
    "report.json": "efa52f32d391a31147e2f51b600dac5f7021914f2306675528977607396ecf62",
    "summary.csv": "cac8cbad9bda2704ad1584b0b8eb3c18debadc1b01b8cd1bd9d2c95fb4d367c3",
    "per_example.csv": "44d944bb2803fa6e250335cc75e9789917cb13e31dd0a58cd789134b63107962",
    "confusion.csv": "9c1b0fd2d3347a3a85020500c3b632f7c74e71f7271a0878e47ee91db4f0b25b",
}


class TestGoldenOutputs:
    def test_fixture_run_outputs_match_golden_digests(self, relative_run):
        out = relative_run.parent / "out"
        assert main(["annotate", "--config", str(relative_run)]) == 0
        assert main(["evaluate", "--config", str(relative_run), "gold", "llm"]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_OUTPUT_DIGESTS
        }
        assert digests == GOLDEN_OUTPUT_DIGESTS

    def test_csv_tables_are_views_of_report_json(self, relative_run, tmp_path):
        # An archived report.json regenerates the three tables byte for byte.
        out = relative_run.parent / "out"
        assert main(["annotate", "--config", str(relative_run)]) == 0
        assert main(["evaluate", "--config", str(relative_run), "gold", "llm"]) == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        again = tmp_path / "again"
        again.mkdir()
        for name, write in [("summary.csv", cli.write_summary_csv),
                            ("per_example.csv", cli.write_per_example_csv),
                            ("confusion.csv", cli.write_confusion_csv)]:
            write(again / name, payload)
            assert (again / name).read_bytes() == (out / name).read_bytes(), name
