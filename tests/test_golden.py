"""Byte-for-byte comparison of the CLI's outputs with a committed fixture.

`golden_outputs.json` maps each command line to its exit code and its
output: stdout for `solve` and `verify`, the written CSV for `sweep`, and
the sha256 of the written SVG for `render`.  Regenerate it only for an
intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from hexbubble import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

SOLVE_ALPHAS = (
    "1e-12", "0.05", "0.1", "0.125", "0.1524572115391493",
    "0.3", "0.6666666666666666", "0.9", "1.0",
)
RENDER_ALPHAS = ("0.05", "0.1524572115391493", "0.5", "5e-15")

COMMANDS = (
    [f"solve --alpha {a} --format {f}" for a in SOLVE_ALPHAS for f in ("text", "json")]
    + ["sweep --from 1e-12 --to 1 --steps 200"]
    + [f"render --alpha {a}" for a in RENDER_ALPHAS]
    + ["verify --suite quick --seed 0", "verify --suite full --seed 0"]
)


def run_command(command: str) -> dict:
    """Exit code and output of one CLI command, run in this process."""
    argv = command.split()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        if argv[0] in ("sweep", "render"):
            argv += ["--out", path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        if argv[0] == "sweep":
            with open(path, encoding="ascii", newline="") as fh:
                out = fh.read()
        elif argv[0] == "render":
            with open(path, "rb") as fh:
                out = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "output": out}


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_command():
    assert sorted(_fixture()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_fixture(command, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert run_command(command) == _fixture()[command]


if __name__ == "__main__":
    table = {command: run_command(command) for command in COMMANDS}
    with open(FIXTURE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
