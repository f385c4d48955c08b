"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("demo_*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory: the phase-transition demo writes its SVG there
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
