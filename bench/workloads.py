"""The three workloads: seeded inputs, timed loops and output checks.

Each workload calls hexbubble's public API from this one process, as a
single closed-loop caller: the next call starts when the previous one
returns.  hexbubble receives only the generated ratios.  Nothing in
hexbubble queues or runs concurrently, so no waiting-time metric exists
and none is reported.

How the timings are made steady.  The seed fixes a set of inputs; the
run cycles through the whole set again and again until its time is up.
Each input keeps its best time, since interference from other tenants
only ever adds time, and that best time is quoted at the reference
machine speed with the factor measured around it (see machine.py).  The
gated metrics are then `op_ms.p50`, the median over the set of those
best times, and `ops_per_s`, the set's size over the sum of its best
times.  Each metric also carries its value as measured (best raw times,
or plain medians for launches), and the raw per-call distribution is
reported too, ungated.  Fresh-interpreter launches are spread evenly
over the run.

Output checks run outside the timed calls.  Every call counts as
attempted; a call that raises, or whose output fails a check, counts as
failed.  A failure is *wrong* only when a check found a wrong value; a
raise, or an output that hexbubble's own measurement refuses to
evaluate, is failed but not wrong.  The inputs keep clear of hexbubble's
known defects, so that no operation fails; known_defects() shows those
defects on every run, apart from the timed and counted operations.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from machine import LAUNCH_REFERENCE_S, Machine
from tracer import TRACED, Tracer

ALPHA0 = 0.1524572115391493
ALPHA0_TOL = 1e-8
SIDE_SKIP = 1e-6  # ratios this close to alpha0 are not held to a side
GEOM_TOL = 1e-9
# The lowest band is log-uniform over (1e-13, 1/8).  Below about 7e-15
# solve raises, or double_bubble_perimeter refuses the geometry it returns
# (the tiny-ratio domain hole); no timed input is drawn there, and
# known_defects() probes the hole on every run instead.
TINY_LOG10 = -13.0
DEEP_EVERY = 8  # every 8th solve input also has its geometry re-measured
SOLVE_INPUTS = 128  # 32 per band
BLOCK_SOLVES = 16  # solve calls between checkpoints
BRACKETS = 32
PAIRS_PER_BRACKET = 4
LAUNCHES = 12  # per untraced run, for setup_s and for cli_solve_cold_s each
IMPORT_LAUNCHES = 5  # per traced run, for the import split
VERIFY_PASS = "result: PASS (16/16)"
# Seeds of 0..399 for which `verify full` fails its oracle-fixed-side check
# ("witness is not a feasible point of the box").  The suite seed is drawn
# from the others; known_defects() runs the first of these on every
# verify-full run.
VERIFY_FAILING_SEEDS = (20, 35, 50, 103, 114, 199, 232, 241, 249, 264, 368)
VERIFY_SEEDS = tuple(s for s in range(400) if s not in VERIFY_FAILING_SEEDS)


class Failure(NamedTuple):
    text: str
    wrong: bool  # a check found a wrong value


def _raised(what: str, exc: Exception) -> Failure:
    return Failure(f"{what}: raised {type(exc).__name__}: {exc}", False)


# a check to run later: checker and its arguments
Pending = tuple[Callable[..., Optional[Failure]], tuple[Any, ...]]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, failure: Optional[Failure]) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.wrong += failure.wrong
        if len(self.problems) < 5:
            self.problems.append(failure.text)

    def check(self, pending: list[Pending]) -> None:
        for checker, args in pending:
            self.record(checker(*args))


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args), or the exception it raised: the loops keep running and
    the checks count the failure."""
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation by the checks
        return exc


class Best:
    """Best quoted time per input of a fixed set.  Times taken in a block
    wait in `pending` until the block's checkpoint supplies its factor."""

    def __init__(self, n: int) -> None:
        self.best = [math.inf] * n  # quoted at the reference speed
        self.best_measured = [math.inf] * n
        self.all: list[float] = []  # every measured time
        self.pending: list[tuple[int, float]] = []

    def time(self, i: int, fn: Callable[..., Any], *args: Any) -> Any:
        t0 = time.perf_counter()
        out = _call(fn, *args)
        elapsed = time.perf_counter() - t0
        self.pending.append((i, elapsed))
        self.all.append(elapsed)
        return out

    def settle(self, factor: float) -> None:
        # the best is chosen by measured time, then quoted with its own
        # block's factor; choosing by quoted time would favour blocks whose
        # reference readings happened to overstate the slowdown
        for i, elapsed in self.pending:
            if elapsed < self.best_measured[i]:
                self.best_measured[i] = elapsed
                self.best[i] = elapsed * factor
        self.pending = []

    def metrics(self) -> dict[str, Any]:
        n = len(self.best)
        return {
            "op_ms.p50": (
                1e3 * statistics.median(self.best), "ms", n, 1e3 * statistics.median(self.best_measured)
            ),
            "ops_per_s": (n / math.fsum(self.best), "1/s", n, n / math.fsum(self.best_measured)),
            "op_ms.p90": _quantile_ms(self.best, 10, 9),
            "raw_ms.p50": _quantile_ms(self.all, 2, 1),
            "raw_ms.p99": _quantile_ms(self.all, 100, 99),
        }


def _quantile_ms(values: list[float], n: int, k: int) -> Optional[tuple[float, str, int]]:
    """k-th n-quantile in ms; None unless ten samples lie beyond it."""
    if len(values) * (n - k) < 10 * n:
        return None
    return (1e3 * statistics.quantiles(values, n=n)[k - 1], "ms", len(values))


# ---------------------------------------------------------------- solve-mixed


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points of [0, 1), one in each 1/n slice, in seeded order: the
    set covers its range evenly whatever the seed, so its statistics
    barely move from seed to seed."""
    points = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(points)
    return points


def solve_inputs(seed: int, n: int = SOLVE_INPUTS) -> list[tuple[float, bool]]:
    """n (alpha, deep-check) pairs, n/4 per band; every 4 consecutive
    inputs hold one ratio per band, in seeded order."""
    rng = random.Random(seed)
    top = math.log10(0.125)
    bands: list[Callable[[float], float]] = [
        lambda u: 10.0 ** (TINY_LOG10 + (top - TINY_LOG10) * u),  # kissing closed form
        lambda u: 0.125 + (ALPHA0 - 0.125) * u,  # embedded wins, kissing P3 bisection
        lambda u: ALPHA0 + (2.0 / 3.0 - ALPHA0) * (1.0 - u),  # rho2 closed form
        lambda u: 2.0 / 3.0 + (1.0 / 3.0) * (1.0 - u),  # rho2 numeric scan
    ]
    per_band = [[band(u) for u in _strata(rng, n // 4)] for band in bands]
    alphas: list[float] = []
    for group in zip(*per_band):
        order = list(range(4))
        rng.shuffle(order)
        alphas.extend(group[b] for b in order)
    return [(a, i % DEEP_EVERY == 0) for i, a in enumerate(alphas)]


def two_hexagons(alpha: float) -> float:
    """Perimeter of two separate optimal hexagons of areas 1 and alpha."""
    return 2.0 * 3.0 ** 0.25 * (math.sqrt(2.0) + math.sqrt(2.0 * alpha))


def check_solve(alpha: float, out: Any, deep: bool) -> Optional[Failure]:
    from hexbubble import hexnorm

    what = f"solve({alpha!r})"
    if isinstance(out, Exception):
        return _raised(what, out)
    if alpha < ALPHA0 - SIDE_SKIP and out.case != "embedded":
        return Failure(f"{what}: case {out.case} below alpha0", True)
    if alpha > ALPHA0 + SIDE_SKIP and out.case != "kissing":
        return Failure(f"{what}: case {out.case} above alpha0", True)
    if not out.perimeter < two_hexagons(alpha):
        return Failure(f"{what}: perimeter {out.perimeter!r} not below two hexagons", True)
    for entry in out.solutions:
        va = hexnorm.polygon_area(entry.geometry_a)
        vb = hexnorm.polygon_area(entry.geometry_b)
        if abs(va - 1.0) > GEOM_TOL or abs(vb - alpha) > GEOM_TOL:
            return Failure(f"{what}: cell areas {va!r}, {vb!r}", True)
        if not deep:
            continue
        try:
            total, joint = hexnorm.double_bubble_perimeter(entry.geometry_a, entry.geometry_b)
        except ValueError as exc:
            return _raised(f"double_bubble_perimeter of {what}", exc)
        if abs(total - out.candidates[entry.case]) > GEOM_TOL:
            return Failure(f"{what}: measured perimeter {total!r}", True)
        if abs(joint - entry.joint_length) > GEOM_TOL:
            return Failure(f"{what}: measured joint {joint!r}", True)
    return None


def _solve_timed(seed: int, seconds: float, tally: Tally, tick: Callable[[], float]) -> dict:
    from hexbubble import solver

    inputs = solve_inputs(seed)
    times = Best(len(inputs))
    _call(solver.solve, inputs[0][0])  # warm-up
    tick()
    cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        for start in range(0, len(inputs), BLOCK_SOLVES):
            pending: list[Pending] = [
                (check_solve, (alpha, times.time(i, solver.solve, alpha), deep))
                for i, (alpha, deep) in enumerate(inputs[start:start + BLOCK_SOLVES], start)
            ]
            times.settle(tick())
            tally.check(pending)
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    return {**times.metrics(), "_runs": {"inputs": len(inputs), "repeats": cycles}}


def _solve_batch(seed: int) -> Callable[[], list[Pending]]:
    from hexbubble import solver

    inputs = solve_inputs(seed, 4 * BLOCK_SOLVES)

    def run() -> list[Pending]:
        return [(check_solve, (alpha, _call(solver.solve, alpha), deep)) for alpha, deep in inputs]

    return run


# ---------------------------------------------------------------- transition-scan


def transition_inputs(seed: int, brackets: int = BRACKETS) -> list[tuple[float, float, list[float]]]:
    """(bracket lo, bracket hi, ratios) rounds: a seeded bracket around
    alpha0, then seeded ratios from the sign-change scan's range."""
    rng = random.Random(seed)
    los = [0.10 + 0.05 * u for u in _strata(rng, brackets)]
    his = [0.155 + 0.145 * u for u in _strata(rng, brackets)]
    ratios = [0.01 + 0.99 * u for u in _strata(rng, brackets * PAIRS_PER_BRACKET)]
    return [
        (lo, hi, ratios[j * PAIRS_PER_BRACKET:(j + 1) * PAIRS_PER_BRACKET])
        for j, (lo, hi) in enumerate(zip(los, his))
    ]


def check_alpha0(out: Any) -> Optional[Failure]:
    if isinstance(out, Exception):
        return _raised("find_alpha0", out)
    if abs(out - ALPHA0) > ALPHA0_TOL:
        return Failure(f"find_alpha0: {out!r} off by {out - ALPHA0:.3g}", True)
    return None


def check_pair(alpha: float, out: Any) -> Optional[Failure]:
    what = f"embedded_value - kissing_value at {alpha!r}"
    if isinstance(out, Exception):
        return _raised(what, out)
    if alpha < ALPHA0 - SIDE_SKIP and not out < 0.0:
        return Failure(f"{what} = {out!r} below alpha0", True)
    if alpha > ALPHA0 + SIDE_SKIP and not out > 0.0:
        return Failure(f"{what} = {out!r} above alpha0", True)
    return None


def value_pair(alpha: float) -> float:
    from hexbubble import solver

    return solver.embedded_value(alpha) - solver.kissing_value(alpha)


def _transition_round(
    lo: float, hi: float, ratios: list[float], j: int, alpha0: Best, pairs: Best
) -> list[Pending]:
    from hexbubble import solver

    pending: list[Pending] = [(check_alpha0, (alpha0.time(j, solver.find_alpha0, lo, hi),))]
    for k, alpha in enumerate(ratios, j * PAIRS_PER_BRACKET):
        pending.append((check_pair, (alpha, pairs.time(k, value_pair, alpha))))
    return pending


def _transition_timed(seed: int, seconds: float, tally: Tally, tick: Callable[[], float]) -> dict:
    from hexbubble import solver

    rounds = transition_inputs(seed)
    alpha0 = Best(len(rounds))
    pairs = Best(len(rounds) * PAIRS_PER_BRACKET)
    _call(solver.find_alpha0, *rounds[0][:2])  # warm-up
    tick()
    cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        for j, (lo, hi, ratios) in enumerate(rounds):
            pending = _transition_round(lo, hi, ratios, j, alpha0, pairs)
            factor = tick()
            alpha0.settle(factor)
            pairs.settle(factor)
            tally.check(pending)
        cycles += 1
        if time.perf_counter() >= deadline:
            break
    metrics = alpha0.metrics()
    metrics["ops_per_s"] = pairs.metrics()["ops_per_s"]
    metrics["_runs"] = {"brackets": len(rounds), "value_pairs": len(pairs.best), "repeats": cycles}
    return metrics


def _transition_batch(seed: int) -> Callable[[], list[Pending]]:
    lo, hi, ratios = transition_inputs(seed, 1)[0]

    def run() -> list[Pending]:
        return _transition_round(lo, hi, ratios, 0, Best(1), Best(PAIRS_PER_BRACKET))

    return run


# ---------------------------------------------------------------- verify-full


class _CheckClock(io.StringIO):
    """The buffer handed to run_verify.  run_verify prints one line per
    check, so each completed line is a check boundary, where the clock
    notes the time and runs the benchmark's between-operations step."""

    def __init__(self, tick: Callable[[], float]) -> None:
        super().__init__()
        self.tick = tick
        self.marks: list[tuple[float, float, float]] = []  # (line done, factor, next line starts)

    def write(self, text: str) -> int:
        n = super().write(text)
        if text.endswith("\n"):
            done = time.perf_counter()
            factor = self.tick()
            self.marks.append((done, factor, time.perf_counter()))
        return n

    def check_times(self) -> dict[str, tuple[float, float]]:
        """Check name -> (measured seconds, factor to the reference speed)."""
        lines = self.getvalue().splitlines()
        # three header lines come first; lines 3 .. n-2 each end one check
        return {
            lines[i].split(":")[0].split(" ", 1)[-1]: (self.marks[i][0] - self.marks[i - 1][2], self.marks[i][1])
            for i in range(3, min(len(lines), len(self.marks)) - 1)
        }


def check_verify(code: Any, text: str) -> Optional[Failure]:
    if isinstance(code, Exception):
        return _raised("run_verify", code)
    if code != 0 or VERIFY_PASS not in text.splitlines():
        failing = [line for line in text.splitlines() if line.startswith("FAIL")] or ["no result line"]
        # a check that raised is a failed operation, not a wrong value
        wrong = any(": raised " not in line for line in failing)
        return Failure(f"verify exit {code}: {failing[0]}", wrong)
    return None


def verify_seed(seed: int) -> int:
    """The suite seed handed to run_verify for a benchmark seed."""
    return random.Random(seed).choice(VERIFY_SEEDS)


def _verify_timed(seed: int, seconds: float, tally: Tally, tick: Callable[[], float]) -> dict:
    """One seeded input, the full suite, repeated; its best time is the sum
    of each check's best time (checks are timed one by one)."""
    from hexbubble import cli

    seed = verify_seed(seed)
    best: dict[str, float] = {}
    best_measured: dict[str, float] = {}
    suites: list[float] = []
    tick()
    deadline = time.perf_counter() + seconds
    while True:
        out = _CheckClock(tick)
        code = _call(cli.run_verify, "full", seed, out)
        tally.record(check_verify(code, out.getvalue()))
        checks = out.check_times()
        suites.append(math.fsum(elapsed for elapsed, _ in checks.values()))
        for name, (elapsed, factor) in checks.items():
            if elapsed < best_measured.get(name, math.inf):
                best_measured[name] = elapsed
                best[name] = elapsed * factor
        if time.perf_counter() >= deadline:
            break
    suite_s = math.fsum(best.values())
    measured_s = math.fsum(best_measured.values())
    return {
        "op_ms.p50": (1e3 * suite_s, "ms", 1, 1e3 * measured_s),
        "ops_per_s": (1.0 / suite_s, "1/s", 1, 1.0 / measured_s),
        "raw_suite_ms.p50": (1e3 * statistics.median(suites), "ms", len(suites)),
        "_runs": {"inputs": 1, "suite_seed": seed, "repeats": len(suites)},
        "_check_ms": {name: 1e3 * v for name, v in sorted(best.items())},
    }


def _verify_batch(seed: int) -> Callable[[], list[Pending]]:
    from hexbubble import cli

    seed = verify_seed(seed)

    def run() -> list[Pending]:
        out = io.StringIO()
        return [(check_verify, (_call(cli.run_verify, "full", seed, out), out.getvalue()))]

    return run


# ---------------------------------------------------------------- known defects


def _probe_solve(alpha: float) -> str:
    from hexbubble import hexnorm, solver

    try:
        for entry in solver.solve(alpha).solutions:
            hexnorm.double_bubble_perimeter(entry.geometry_a, entry.geometry_b)
    except Exception as exc:
        return f"raises {type(exc).__name__}: {exc}"
    return "fixed"


def _probe_verify(seed: int) -> str:
    from hexbubble import cli

    out = io.StringIO()
    failure = check_verify(_call(cli.run_verify, "full", seed, out), out.getvalue())
    return "fixed" if failure is None else failure.text


def known_defects(name: str) -> dict[str, str]:
    """Defects the workloads' inputs keep clear of, run once, untimed and
    outside attempted/failed, so that every run still shows them: what was
    run -> how it failed, or "fixed"."""
    found = {
        f"solve({alpha!r}) and double_bubble_perimeter": _probe_solve(alpha)
        for alpha in (1e-18, 1e-16, 5e-15)
    }
    if name == "verify-full":
        seed = VERIFY_FAILING_SEEDS[0]
        found[f"run_verify('full', {seed})"] = _probe_verify(seed)
    return found


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    timed: Callable[[int, float, Tally, Callable[[], float]], dict]
    batch: Callable[[int], Callable[[], list[Pending]]]
    # the names this workload's gated metrics also go by, printed beside them
    aliases: dict[str, str]


WORKLOADS: dict[str, Workload] = {
    "solve-mixed": Workload(
        _solve_timed,
        _solve_batch,
        {"op_ms.p50": "solve_ms.p50", "raw_ms.p99": "solve_ms.p99", "ops_per_s": "solve_per_s"},
    ),
    "transition-scan": Workload(
        _transition_timed,
        _transition_batch,
        {"op_ms.p50": "alpha0_ms.p50", "op_ms.p90": "alpha0_ms.p90", "ops_per_s": "value_pairs_per_s"},
    ),
    "verify-full": Workload(
        _verify_timed,
        _verify_batch,
        {"op_ms.p50": "verify_full_s, in ms", "ops_per_s": "verify-full suites per second"},
    ),
}


# ---------------------------------------------------------------- fresh interpreters


def _child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def check_cli(alpha: float, done: Any, perimeter: float) -> Optional[Failure]:
    what = f"hexbubble solve --alpha {alpha!r}"
    if done.returncode != 0:
        return Failure(f"{what}: exit {done.returncode}: {done.stderr.strip()[-200:]}", False)
    try:
        got = json.loads(done.stdout)["perimeter"]
    except (ValueError, KeyError, TypeError) as exc:
        return Failure(f"{what}: unreadable JSON ({exc})", True)
    if got != "%.12g" % perimeter:
        return Failure(f"{what}: perimeter {got} != {'%.12g' % perimeter}", True)
    return None


def _check_exit(what: str, done: Any) -> Optional[Failure]:
    if done.returncode == 0:
        return None
    return Failure(f"{what}: exit {done.returncode}: {done.stderr.strip()[-200:]}", False)


def _launch_metric(runs: list[tuple[float, float]], unit: str) -> tuple[float, str, int, float]:
    """Median over launches, quoted at the reference start-up speed: each
    launch's ratio to the bare start just before it, times the reference."""
    quoted = LAUNCH_REFERENCE_S * statistics.median(t / bare for t, bare in runs)
    return (quoted, unit, len(runs), statistics.median(t for t, _ in runs))


class Launches:
    """Fresh interpreters for setup_s and cli_solve_cold_s, spread evenly
    over the run: `due()` launches one pair when its slot has come,
    `finish()` launches whatever a short run left out."""

    def __init__(self, seed: int, seconds: float, src: str, root: str, machine: Machine, tally: Tally) -> None:
        self.rng = random.Random(seed)
        self.env = _child_env(src)
        self.root = root
        self.machine = machine
        self.tally = tally
        self.every = seconds / LAUNCHES
        self.next_at = time.perf_counter()
        self.setup: list[tuple[float, float]] = []
        self.cold: list[tuple[float, float]] = []
        self._pair(record=False)  # fills the bytecode cache

    def _pair(self, record: bool = True) -> None:
        from hexbubble import solver

        alpha = self.rng.uniform(0.01, 1.0)
        code = f"import hexbubble\nhexbubble.solve({alpha!r})\n"
        elapsed, bare, done = self.machine.launch([sys.executable, "-c", code], self.env, self.root)
        if record:
            self.setup.append((elapsed, bare))
            self.tally.record(_check_exit("import hexbubble and solve", done))
        argv = [sys.executable, "-m", "hexbubble.cli", "solve", "--alpha", repr(alpha), "--format", "json"]
        elapsed, bare, done = self.machine.launch(argv, self.env, self.root)
        if record:
            self.cold.append((elapsed, bare))
            self.tally.record(check_cli(alpha, done, solver.solve(alpha).perimeter))

    def due(self) -> None:
        if len(self.setup) < LAUNCHES and time.perf_counter() >= self.next_at:
            self._pair()
            self.next_at += self.every

    def finish(self) -> dict:
        while len(self.setup) < LAUNCHES:
            self._pair()
        return {
            "setup_s": _launch_metric(self.setup, "s"),
            "cli_solve_cold_s": _launch_metric(self.cold, "s"),
        }


def timed_run(name: str, seed: int, seconds: float, src: str, root: str, machine: Machine, tally: Tally) -> dict:
    launches = Launches(seed, seconds, src, root, machine, tally)

    def tick() -> float:
        factor = machine.checkpoint()
        launches.due()
        return factor

    metrics = WORKLOADS[name].timed(seed, seconds, tally, tick)
    metrics.update(launches.finish())
    return metrics


def import_split(src: str, root: str, machine: Machine, tally: Tally) -> dict:
    """Cumulative import times of numpy and hexbubble, from -X importtime."""
    env = _child_env(src)
    numpy_s: list[tuple[float, float]] = []
    package_s: list[tuple[float, float]] = []
    for i in range(IMPORT_LAUNCHES + 1):  # the first launch only fills the bytecode cache
        _, bare, done = machine.launch([sys.executable, "-X", "importtime", "-c", "import hexbubble"], env, root)
        if not i:
            continue
        tally.record(_check_exit("import hexbubble", done))
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        # numpy reads 0 once hexbubble stops importing it
        numpy_s.append((cumulative.get("numpy", 0.0), bare))
        package_s.append((cumulative.get("hexbubble", 0.0), bare))
    return {
        "setup.numpy_import_s": _launch_metric(numpy_s, "s"),
        "setup.hexbubble_import_s": _launch_metric(package_s, "s"),
    }


# ---------------------------------------------------------------- traced run


def traced_run(name: str, seed: int, seconds: float, machine: Machine, tally: Tally) -> dict:
    """Alternate plain and traced runs of one fixed seeded batch.

    Every batch has the same inputs, so every traced batch gives the same
    counts; counts come from the first one.  Self times are those of the
    fastest traced batch, quoted like the end-to-end timings; the tracing
    overhead is the fastest traced batch minus the fastest plain one.
    """
    run = WORKLOADS[name].batch(seed)
    plain = Best(1)
    traced = Best(1)
    self_s: dict[str, float] = {}
    first: Optional[Tracer] = None
    repeat = True
    machine.checkpoint()
    deadline = time.perf_counter() + seconds
    while True:
        pending = plain.time(0, run)
        plain.settle(machine.checkpoint())
        tally.check(pending)
        machine.checkpoint()

        tracer = Tracer()
        with tracer.installed():
            pending = traced.time(0, run)
        factor = machine.checkpoint()
        if traced.all[-1] < traced.best_measured[0]:  # self times of the best traced batch
            self_s = {span: spent * factor for span, spent in tracer.self_times().items()}
        traced.settle(factor)
        tally.check(pending)
        first = first or tracer
        repeat = repeat and tracer.counts() == first.counts()
        machine.checkpoint()
        if time.perf_counter() >= deadline:
            break
    counts = first.counts()
    batches = len(plain.all)
    metrics: dict[str, Any] = {}
    for span in TRACED:
        metrics[f"{span}.count"] = (counts[span], "count", 1)
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s", batches)
    trials = counts["oracle.perturb_trials"]
    metrics["oracle.grid_objective.count"] = (counts["oracle.grid_objective"], "count", 1)
    metrics["oracle.perturb_trials.count"] = (trials, "count", 1)
    # with no trials nothing was wasted either: 0/0 reads 0
    useful = counts["oracle.perturb_useful"] / trials if trials else 0.0
    metrics["oracle.perturb_useful_frac"] = (useful, "frac", 1)
    # as measured: the overhead is small next to the noise in two batches'
    # reference readings, so quoting each batch separately would drown it
    metrics["trace.overhead_s"] = (traced.best_measured[0] - plain.best_measured[0], "s", batches)
    metrics["_runs"] = {"batches": batches, "counts_repeat": repeat}
    metrics["_spans"] = first.spans
    return metrics
