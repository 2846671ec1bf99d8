from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import spanagree

ROOT = Path(spanagree.__file__).parent
TESTS = Path(__file__).parent


def _imported_top_level_modules(root: Path = ROOT) -> set[str]:
    """Top-level names of every absolute import under ``root``, less the
    stdlib, spanagree and the modules that live in ``root`` itself."""
    names: set[str] = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    local = {path.stem for path in root.glob("*.py")}
    return names - set(sys.stdlib_module_names) - {"spanagree"} - local


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in requirements}


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    pyproject = (ROOT.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    return tomllib.loads(pyproject)["project"]


def test_declared_dependencies_match_imports():
    names = _requirement_names(_project()["dependencies"])
    assert _imported_top_level_modules() == names


def test_test_extra_covers_test_imports():
    project = _project()
    declared = _requirement_names(
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    imported = _imported_top_level_modules(TESTS)
    # the scan sees the tests' own numpy import and skips their local modules
    assert "numpy" in imported and "conftest" not in imported
    assert imported <= declared, imported - declared


@pytest.mark.parametrize("package", ["spanagree", "spanagree.gamma", "spanagree.annotator"])
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it does not define: {missing}"


# The config types that each module uses, or as a package re-exports,
# since they all moved to spanagree.config; each hands out the same object.
_CONFIG_IMPORT_PATHS = {
    "spanagree.annotator": ["AnnotatorConfig", "DecodingParams", "FewshotExample",
                            "PromptVariant", "SchemaMode", "TemplateError",
                            "fewshot_from_config"],
    "spanagree.annotator.adapters": ["DecodingParams"],
    "spanagree.annotator.runner": ["AnnotatorConfig", "SchemaMode"],
    "spanagree.annotator.templates": ["FewshotExample", "PromptVariant", "TemplateError"],
    "spanagree.cli": ["ConfigError", "ProviderSettings", "RunConfig", "TemplateError",
                      "load_run_config"],
    "spanagree.gamma": ["DissimilarityConfig", "GammaConfig"],
    "spanagree.gamma.alignment": ["GammaConfig"],
    "spanagree.gamma.dissimilarity": ["DissimilarityConfig"],
}


@pytest.mark.parametrize("package", sorted(_CONFIG_IMPORT_PATHS))
def test_config_types_keep_their_import_paths(package):
    from spanagree import config

    module = importlib.import_module(package)
    moved = [name for name in _CONFIG_IMPORT_PATHS[package]
             if getattr(module, name, None) is not getattr(config, name)]
    assert not moved, f"{package} no longer hands out spanagree.config's {moved}"


def _defined_exception_classes() -> list[type]:
    """Every exception class defined in a module of the spanagree package."""
    classes = []
    for info in pkgutil.walk_packages(spanagree.__path__, "spanagree."):
        module = importlib.import_module(info.name)
        classes.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == info.name
        )
    return classes


def test_every_exception_class_leaves_through_an_exit_code_or_is_absorbed():
    from spanagree.annotator import MissingApiKey, ProviderError, TemplateError
    from spanagree.cli import ConfigError
    from spanagree.grounding import GroundingError
    from spanagree.ingest import IngestError
    from spanagree.metrics import MetricError
    from spanagree.model import ModelError

    # the types cli.main turns into exit code 2 or 3
    mapped = (ConfigError, IngestError, MetricError, ModelError, TemplateError,
              MissingApiKey, OSError)
    # annotate_example retries on the first two; every decode_json caller
    # converts the third
    absorbed = (ProviderError, GroundingError, json.JSONDecodeError)
    classes = _defined_exception_classes()
    assert GroundingError in classes and ConfigError in classes
    stray = [cls.__qualname__ for cls in classes if not issubclass(cls, mapped + absorbed)]
    assert not stray, f"exception classes outside cli.main's exit codes: {stray}"
