"""Tests for the package root."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


# Prints the public scipy subpackages loaded after importing the package and
# its command line, then again after one skew-normal draw.
IMPORT_PROBE = """
import json, sys
def subpackages():
    return sorted(
        name.split(".")[1] for name, module in list(sys.modules.items())
        if name.startswith("scipy.") and name.count(".") == 1
        and not name.split(".")[1].startswith("_") and hasattr(module, "__path__")
    )
import dtwsi, dtwsi.cli
before = subpackages()
from dtwsi.harness import ExperimentConfig, generate_pair
generate_pair(ExperimentConfig(n=3, m=2, noise="skew-normal-10"), 0)
print(json.dumps([before, subpackages()]))
"""


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.stats pulls in optimize, linalg, sparse, spatial and more: most of
    # the start-up time, for the skew-normal draws alone
    src = str(Path(dtwsi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == ["special"]
    assert "stats" in after
