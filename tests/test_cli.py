from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import spanagree
from spanagree.cli import ConfigError, _apply_overrides, build_parser, load_run_config, main

from conftest import FIXTURES, write_bundled_categories


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

    def test_corrupt_cache_line_exits_3(self, mock_config, capsys):
        path, _ = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        cache = path.parent / "cache.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        cache.write_text("\n".join(["{not json", *lines]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["annotate", "--config", str(path)]) == 3
        assert "line 1 is not a cache record" in capsys.readouterr().err

    @pytest.mark.parametrize("span", [
        {"start": 0, "end": 3},
        {"start": 0, "end": 3, "type": "0"},
    ])
    def test_undecodable_cache_span_exits_3(self, mock_config, capsys, span):
        path, _ = mock_config
        assert main(["annotate", "--config", str(path)]) == 0
        cache = path.parent / "cache.jsonl"
        records = [json.loads(l) for l in cache.read_text(encoding="utf-8").splitlines()]
        target = next(r for r in records if not r["failed"])
        target["annotations"] = [span]
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
        assert overridden.gamma == replace(config.gamma, seed=7)
        assert overridden.annotator == replace(
            config.annotator, decoding=replace(config.annotator.decoding, seed=7)
        )

    def test_evaluate_does_not_import_scipy(self, mock_config):
        path, _ = mock_config
        src = Path(spanagree.__file__).parent.parent
        script = (
            "import sys\n"
            "from spanagree.cli import main\n"
            f"code = main(['evaluate', '--config', {str(path)!r}, 'gold', 'gold'])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       capture_output=True)

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
