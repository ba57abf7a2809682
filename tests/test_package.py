"""Tests for the package root."""

import ast
import importlib
from pathlib import Path

import dtwsi


def test_root_imports_only_public_names():
    # a name the root takes from a submodule must be in that submodule's
    # __all__, so a stale re-export through another module's imports fails
    tree = ast.parse(Path(dtwsi.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dtwsi.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} is not in dtwsi.{node.module}.__all__"
