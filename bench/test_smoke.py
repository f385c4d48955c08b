"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest -q bench/test_smoke.py     (from the repository root)

Takes about a minute: every workload runs once untraced and twice traced.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "predictions.json")) as fh:
    PREDICTIONS = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_json(workload: str, trace: int) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_names_and_predictions() -> None:
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for metric in declared:
        assert NAME.fullmatch(metric["name"]) and metric["unit"], metric
    assert {m["name"] for m in SPEC["per_layer"]} == set(PREDICTIONS["moves"])
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for moves in PREDICTIONS["moves"].values():
        for workload, metric in moves:
            assert workload in NAMES and metric in gated, (workload, metric)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    result = run_json(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and metric["unit"], name
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_predicted_zeros_hold(workload: str) -> None:
    first = run_json(workload, 1)
    second = run_json(workload, 1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".count")}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".count")}
    for name in PREDICTIONS["zero"].get(workload, []):
        assert first["metrics"][name]["value"] == 0, name


def test_corrupted_results_count_as_failures() -> None:
    from hexbubble import solver

    below = solver.solve(0.05)
    above = solver.solve(0.5)
    tally = workloads.Tally()
    tally.record(workloads.check_solve(0.05, dataclasses.replace(below, case="kissing"), False))
    bad_candidates = {**above.candidates, "kissing": above.candidates["kissing"] + 1e-6}
    tally.record(workloads.check_solve(0.5, dataclasses.replace(above, candidates=bad_candidates), True))
    tally.record(workloads.check_alpha0(workloads.ALPHA0 + 1e-7))
    tally.record(workloads.check_pair(0.5, -1e-3))
    tally.record(workloads.check_verify(1, "FAIL sign-change-scan: 3 sign changes\nresult: FAIL (15/16)\n"))
    cli = subprocess.CompletedProcess([], 0, stdout=json.dumps({"perimeter": "1.0"}), stderr="")
    tally.record(workloads.check_cli(0.5, cli, above.perimeter))
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 6, 6)
    # a check that raised inside the suite failed, but found no wrong value
    crashed = workloads.check_verify(1, "FAIL oracle-fixed-side: raised ValueError: x\nresult: FAIL (15/16)\n")
    assert crashed is not None and not crashed.wrong
    # the same outputs uncorrupted pass
    assert workloads.check_solve(0.05, below, True) is None
    assert workloads.check_solve(0.5, above, True) is None


def test_exits_nonzero_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(str(tmp_path), "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
