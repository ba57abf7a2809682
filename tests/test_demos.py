"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtwsi

SRC = str(Path(dtwsi.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos that write files put them under TMPDIR, here the test's own folder
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=300, env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
