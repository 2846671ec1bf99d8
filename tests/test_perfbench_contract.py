"""The benchmark's traced run hooks spanagree's functions by name, in the
modules where their callers look them up (`perfbench/tracing.py`). These
tests load that file as committed, read-only, and check that every hook
point still exists and that the commands call through the hooked names,
so a change to `src` cannot silently drop the benchmark's per-layer
metrics."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from spanagree import cli

from conftest import FIXTURES, write_bundled_categories, write_run_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "Tracer"):
        pytest.skip("perfbench/tracing.py installs no Tracer hooks")
    tracer = module.Tracer()
    tracer.install()
    try:
        yield module, tracer
    finally:
        tracer.uninstall()


def test_every_hook_point_exists(tracing):
    _, tracer = tracing
    assert tracer.absent == []


def test_commands_call_through_the_hooked_cli_names(tracing, tmp_path, capsys):
    module, tracer = tracing
    run = write_run_config(
        tmp_path,
        FIXTURES / "corpus10.jsonl",
        write_bundled_categories(tmp_path),
        {"gold": FIXTURES / "gold10.jsonl", "llm": tmp_path / "out" / "campaign.jsonl"},
        annotator={
            "model_id": "mock-model",
            "provider": {"kind": "mock", "replies": str(FIXTURES / "replies10.jsonl")},
        },
        gamma={"n_samples": 10, "seed": 42},
    )
    # As the traced run calls it: through the module, so `main` is hooked too.
    assert cli.main(["annotate", "--config", str(run)]) == 0
    assert cli.main(["evaluate", "--config", str(run), "gold", "llm"]) == 0
    hooked = {name for owner, _, name, _ in module.HOOKS if owner == "spanagree.cli"}
    assert hooked - {span.name for span in tracer.spans} == set()
