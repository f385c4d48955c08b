"""Brute-force cross-checks for the closed-form solvers.

grid_refine_min scans a dense grid over an axis-aligned box and polishes
the best point with cyclic direction descent under a shrinking step.  It
is deliberately independent of every closed form in this package: tests
compare the two routes and neither is ever replaced by the other.

perturb_local_min jiggles a configuration's free parameters and reports
whether any jiggle beats the claimed minimum.  Randomness comes from a
self-contained linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
    uniform = (state >> 11) / 2^53

so trial sequences can be replayed bit-for-bit in any language.

Both oracles read infeasibility one way: the objective (or the rebuild)
raises ValueError at a point with no valid configuration, and the point
is skipped.  Any other exception propagates, so a bug in an objective is
never mistaken for an infeasible point.
"""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import Callable, Optional, Sequence

from . import hexnorm

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
LCG_MASK = (1 << 64) - 1

MIN_GRID = 16
IMPROVE_TOL = 1e-10  # perturbation must beat the baseline by more than this
BOX_SLACK = 1e-15  # a coordinate this far outside the box still counts as inside


def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, so True would otherwise pass as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Lcg:
    """64-bit linear congruential generator (documented in module docstring)."""

    def __init__(self, seed: int = 0) -> None:
        self.state = seed & LCG_MASK

    def next_u64(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & LCG_MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + (hi - lo) * u


def grid_refine_min(
    objective: Callable[[tuple[float, ...]], float],
    lower: Sequence[float],
    upper: Sequence[float],
    grid: int = 64,
    refine_iters: int = 60,
    directions: Optional[Sequence[tuple[float, ...]]] = None,
) -> tuple[tuple[float, ...], float]:
    """Dense grid scan of the box [lower, upper] followed by cyclic
    direction descent.

    Returns (argmin, value).  The scan uses an inclusive grid of `grid`
    points per axis (grid >= 16); descent then walks the best point along
    +/- each direction with per-axis steps equal to the grid spacing,
    halving the steps after every cycle that yields no improvement, for
    `refine_iters` cycles.  Fully deterministic.

    A point is in the box when every coordinate lies in
    [lower - BOX_SLACK, upper + BOX_SLACK].  That test is per axis, so the
    scan drops each axis's grid values outside the box once and visits the
    product of what is left with the last axis moving fastest.  The first
    point of that order to reach the least value wins a tie.

    Where the objective raises ValueError the point is infeasible: the
    scan skips it, and a descent walk ends there as it does at the box
    edge.  Raises ValueError if no grid point is feasible.

    `directions` defaults to the coordinate axes; extra unit directions
    (e.g. the diagonal, for objectives with a valley along it) may be
    supplied and are used with the same per-axis step scaling.  `grid` and
    `refine_iters` must be ints (not bool), and every direction finite,
    nonzero and of the box's dimension; anything else raises ValueError
    before the scan.
    """
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)
    if len(lower) != len(upper) or not lower:
        raise ValueError("lower/upper must be nonempty and equal length")
    for lo, hi in zip(lower, upper):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError("need finite lower < upper per axis")
    _require_int("grid", grid)
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID}")
    _require_int("refine_iters", refine_iters)
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    dim = len(lower)
    dirs: list[tuple[float, ...]] = []
    for given in () if directions is None else directions:
        d = tuple(float(c) for c in given)
        if len(d) != dim:
            raise ValueError(f"direction {d} has {len(d)} components, the box has {dim}")
        if not all(map(math.isfinite, d)) or not any(d):
            raise ValueError(f"direction {d} must be finite and nonzero")
        dirs.append(d)
    bounds = [(lo - BOX_SLACK, hi + BOX_SLACK) for lo, hi in zip(lower, upper)]
    axes = [
        [v for v in (lo + (hi - lo) * j / (grid - 1) for j in range(grid)) if a <= v <= b]
        for lo, hi, (a, b) in zip(lower, upper, bounds)
    ]

    best_x: Optional[tuple[float, ...]] = None
    best_f = math.inf
    for p in itertools.product(*axes):
        try:
            f = objective(p)
        except ValueError:
            continue
        if f < best_f:
            best_f, best_x = f, p
    if best_x is None:
        raise ValueError("no feasible grid point in the box")

    for i in range(dim):
        e = [0.0] * dim
        e[i] = 1.0
        dirs.append(tuple(e))
    signed = [d for base in dirs for d in (base, tuple(-c for c in base))]

    step = [(upper[i] - lower[i]) / (grid - 1) for i in range(dim)]
    x, fx = best_x, best_f
    for _ in range(refine_iters):
        improved = False
        for d in signed:
            delta = tuple([s * c for s, c in zip(step, d)])
            for _walk in range(64):  # bounded greedy walk along d
                cand = tuple(map(add, x, delta))
                if not all(a <= v <= b for v, (a, b) in zip(cand, bounds)):
                    break
                try:
                    fc = objective(cand)
                except ValueError:
                    break
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
                else:
                    break
        if not improved:
            step = [s * 0.5 for s in step]
    return x, fx


def perturb_local_min(
    geometry_a: "hexnorm.PolyChain",
    geometry_b: "hexnorm.PolyChain",
    rebuild: Callable[[tuple[float, ...]], tuple["hexnorm.PolyChain", "hexnorm.PolyChain"]],
    params: Sequence[float],
    trials: int = 500,
    eps: float = 1e-3,
    seed: int = 0,
) -> bool:
    """True iff no perturbed rebuild beats the given configuration.

    `rebuild(params)` reconstructs a volume-consistent configuration from
    free parameters, or raises ValueError when the parameters are
    infeasible; such trials are skipped.  Each trial multiplies every
    parameter by (1 + eps*u) with u drawn uniformly from [-1, 1] via the
    documented LCG, and the perturbed double-bubble perimeter must not
    undercut the baseline by more than 1e-10.  `trials` and `seed` must be
    ints (not bool), every parameter finite and some trial feasible.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError("eps must be in (0, 1e-2]")
    _require_int("trials", trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    _require_int("seed", seed)
    base = list(float(v) for v in params)
    if not all(map(math.isfinite, base)):
        raise ValueError(f"params must be finite, got {tuple(base)!r}")
    baseline, _ = hexnorm.double_bubble_perimeter(geometry_a, geometry_b)
    rng = Lcg(seed)
    rebuilt = 0
    for _ in range(trials):
        cand = tuple(v * (1.0 + eps * rng.uniform(-1.0, 1.0)) for v in base)
        try:
            built = rebuild(cand)
        except ValueError:
            continue
        rebuilt += 1
        total, _ = hexnorm.double_bubble_perimeter(built[0], built[1])
        if total < baseline - IMPROVE_TOL:
            return False
    if not rebuilt:
        raise ValueError(f"no trial rebuilt: all {trials} perturbations were infeasible")
    return True
