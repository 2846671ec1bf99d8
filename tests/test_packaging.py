from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import spanagree

ROOT = Path(spanagree.__file__).parent


def _imported_top_level_modules() -> set[str]:
    """Top-level names of every absolute import in the package source."""
    names: set[str] = set()
    for path in ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"spanagree"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    pyproject = (ROOT.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    declared = tomllib.loads(pyproject)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in declared}
    assert _imported_top_level_modules() == names
