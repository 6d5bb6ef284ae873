"""Every demo script runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import revrank

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Demos write their files under tempfile's directory, so point it here.
    env = dict(os.environ, PYTHONPATH=str(Path(revrank.__file__).parents[1]),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
