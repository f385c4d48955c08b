"""hexbubble benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload solve-mixed --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Run from the repository root; hexbubble is imported from ./src, and
--seconds defaults to run_seconds of BENCHMARK.json.  With
--trace 0 the run is untraced and reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs a fixed seeded batch alternately
plain and traced and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A results file
with provenance goes to bench/out/.  `--workload all` runs every
workload in turn and ends with one JSON object keyed by workload.

Exit codes: 0 done, 2 usage error or hexbubble not found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from typing import Optional

from machine import Machine
from workloads import WORKLOADS, Tally, import_split, known_defects, timed_run, traced_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PREDICTIONS = os.path.join(HERE, "predictions.json")


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_hexbubble() -> Optional[str]:
    """Import hexbubble from ./src; an error message if that is impossible."""
    if not os.path.isfile(os.path.join(SRC, "hexbubble", "__init__.py")):
        return f"no hexbubble package under {SRC}; run from the repository root"
    sys.path.insert(0, SRC)
    import hexbubble

    if not os.path.abspath(hexbubble.__file__).startswith(SRC + os.sep):
        return f"imported hexbubble from {hexbubble.__file__}, not from {SRC}"
    return None


def provenance(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "hexbubble")
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    machine = Machine()
    tally = Tally()
    if trace:
        raw = traced_run(name, seed, seconds, machine, tally)
        raw.update(import_split(SRC, ROOT, machine, tally))
        wanted = spec["per_layer"]
    else:
        raw = timed_run(name, seed, seconds, SRC, ROOT, machine, tally)
        wanted = spec["end_to_end"]
    extras = {k: raw.pop(k) for k in list(raw) if k.startswith("_")}

    def quoted(value: float, unit: str, n: int, measured: Optional[float] = None) -> dict:
        metric = {"value": value, "unit": unit, "n": n}
        if measured is not None:
            metric["measured"] = measured
        return metric

    metrics = {}
    for m in wanted:
        metric = quoted(*raw.pop(m["name"]))
        if metric["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']} measured in {metric['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = metric
    ungated = {k: quoted(*v) for k, v in raw.items() if v is not None}
    return {
        "workload": name,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "known_defects": known_defects(name),
        "metrics": metrics,
        "ungated": ungated,
        "machine": machine.summary(),
        "runs": extras.get("_runs", {}),
        "check_ms": extras.get("_check_ms"),
        "spans": extras.get("_spans"),
    }


def zero_violations(name: str, metrics: dict) -> list[str]:
    with open(PREDICTIONS) as fh:
        zero = json.load(fh)["zero"].get(name, [])
    return [m for m in zero if m in metrics and metrics[m]["value"] != 0]


def report(result: dict, aliases: dict[str, str]) -> None:
    name = result["workload"]
    for key, m in list(result["metrics"].items()) + list(result["ungated"].items()):
        note = "" if key in result["metrics"] else "  [extra]"
        alias = f"  ({aliases[key]})" if key in aliases else ""
        measured = f"  measured {m['measured']:.6g}" if "measured" in m else ""
        print(f"{name:16s} {key:34s} {m['value']:>12.6g} {m['unit']:5s} n={m['n']}{measured}{alias}{note}")
    print(
        f"{name:16s} {'failed_frac':34s} {result['failed_frac']:>12.6g} {'frac':5s} "
        f"n={result['attempted']}  (failed {result['failed']}, wrong outputs {result['wrong']})"
    )
    for problem in result["problems"]:
        print(f"{name:16s}   failure: {problem}")
    for what, how in result["known_defects"].items():
        print(f"{name:16s} known defect, not timed or counted: {what} {how}")
    mach = result["machine"]
    print(
        f"{name:16s} machine: reference loop best {1e6 * mach['reference_loop_best_s']:.2f} us; "
        f"{mach['checkpoints']} checkpoints, "
        f"{mach['slow_share']:.2f} found the vCPU slow, {mach['migrations']} vCPU moves"
    )
    print(f"{name:16s} runs: {result['runs']}")
    for bad in result.get("zero_violations", []):
        print(f"{name:16s} PREDICTION MISSED: {bad} should be 0")


def write_results(result: dict, prov: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    stem = f"{prov['workload']}-seed{prov['seed']}-trace{int(prov['trace'])}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT, stem + "-spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    path = os.path.join(OUT, stem + ".json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1)
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(SPEC):
        return _fail(f"no {SPEC}; run from the repository root")
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        return _fail(f"unknown workload {args.workload!r}; choose from {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not seconds > 0:
        return _fail("--seconds must be positive")
    problem = _import_hexbubble()
    if problem is not None:
        return _fail(problem)

    results = {}
    for name in chosen:
        t0 = time.perf_counter()
        result = run_one(name, args.seed, seconds, bool(args.trace), spec)
        if args.trace:
            result["zero_violations"] = zero_violations(name, result["metrics"])
        prov = provenance(name, args.seed, seconds, bool(args.trace), spec)
        prov["wall_s"] = time.perf_counter() - t0
        report(result, WORKLOADS[name].aliases)
        print(f"{name:16s} results: {os.path.relpath(write_results(result, prov), ROOT)}")
        results[name] = result

    def line(r: dict) -> dict:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in r["metrics"].items()}
        return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}

    if len(chosen) == 1:
        print(json.dumps(line(results[chosen[0]])))
    else:
        print(json.dumps({name: line(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
