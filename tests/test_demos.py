"""Every demo script runs to completion, and the README's quick start
prints what its comments say."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("demo_*.py"))


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


def test_readme_quick_start_prints_its_comments(tmp_path):
    # every print in the block writes one line; a "# value" comment after
    # a print is the line that it must write
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = proc.stdout.splitlines()
    assert len(printed) == len(prints)
    claims = [(line, got) for line, got in zip(prints, printed) if "  # " in line]
    assert len(claims) == 3
    for line, got in claims:
        assert got == line.split("  # ", 1)[1].strip(), line
