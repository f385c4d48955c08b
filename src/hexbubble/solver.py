"""Case comparison and the phase transition.

For each volume ratio alpha the optimal pair is either the nested
(embedded) configuration or the glued (kissing) one; the embedded case
wins below a critical ratio alpha0 ~ 0.152 and the kissing case above
it.  find_alpha0 locates alpha0 by safeguarded Newton steps on the
perimeter difference, which changes sign exactly once on (0, 1); the
envelope theorem gives its exact derivative.  Both cases' minima are
closed forms, so that loop is the only iteration on the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import embedded as embedded_mod
from . import kissing as kissing_mod
from .hexnorm import SQRT3, PolyChain
from .singlebubble import check_alpha

CASE_EMBEDDED = "embedded"
CASE_KISSING = "kissing"
CASE_BOTH = "both"

# perimeter agreement below this counts as a tie of the two cases
TIE_TOL = 1e-9

ALPHA0_BRACKET = (0.1, 0.3)
ALPHA0_TOL = 1e-9

# cap on find_alpha0's Newton steps; it takes at most 4 to ALPHA0_TOL,
# counted over the default bracket and 200 random ones in [0.10, 0.15] x
# [0.155, 0.30]; bisection alone narrows any bracket to adjacent floats in
# under 60
NEWTON_MAX_ITER = 60

# hoisted from _difference_and_slope, where each is evaluated first and on its own
_4SQRT3 = 4.0 * SQRT3
_2SQRT3 = 2.0 * SQRT3

FMT = "%.12g"  # every number in solve, sweep, iso and verify output


def fmt(x: float) -> str:
    return FMT % float(x)


# Frozen dataclasses whose hand-written __init__ fills __dict__ directly, where
# the generated one calls object.__setattr__ per field; the rest is generated.


@dataclass(frozen=True, init=False)
class SolutionEntry:
    case: str
    geometry_a: PolyChain
    geometry_b: PolyChain
    sides_a: tuple[float, ...]
    sides_b: tuple[float, ...]
    L1: float
    L2: float
    joint_length: float

    def __init__(self, case, geometry_a, geometry_b, sides_a, sides_b, L1, L2, joint_length):
        data = self.__dict__
        data["case"] = case
        data["geometry_a"] = geometry_a
        data["geometry_b"] = geometry_b
        data["sides_a"] = sides_a
        data["sides_b"] = sides_b
        data["L1"] = L1
        data["L2"] = L2
        data["joint_length"] = joint_length


@dataclass(frozen=True, init=False)
class DoubleBubbleResult:
    alpha: float
    case: str
    perimeter: float
    solutions: tuple[SolutionEntry, ...]
    joint_length: float  # of solutions[0]
    candidates: dict[str, float]

    def __init__(self, alpha, case, perimeter, solutions, joint_length, candidates):
        data = self.__dict__
        data["alpha"] = alpha
        data["case"] = case
        data["perimeter"] = perimeter
        data["solutions"] = solutions
        data["joint_length"] = joint_length
        data["candidates"] = candidates


def embedded_value(alpha: float) -> float:
    """Embedded-case optimal perimeter (no geometry construction)."""
    return embedded_mod.minimize_rho1(alpha).perimeter


def kissing_value(alpha: float) -> float:
    """Kissing-case optimal perimeter (no geometry construction)."""
    return kissing_mod.kissing_minimum(alpha).perimeter


def _embedded_entry(sol: embedded_mod.EmbeddedSolution, alpha: float) -> SolutionEntry:
    # cell A, holding volume 1, is the outer cell; the welded notch sides
    # sum to L1, the joint length
    cells = embedded_mod.embedded_geometry(sol.L1, sol.L2, 1.0, alpha)
    return SolutionEntry(CASE_EMBEDDED, *cells, sol.L1, sol.L2, sol.L1)


def _kissing_entry(sol: kissing_mod.KissingSolution, alpha: float) -> SolutionEntry:
    cells = kissing_mod.kissing_geometry(sol.L1, sol.L2, alpha)
    return SolutionEntry(CASE_KISSING, *cells, sol.L1, sol.L2, min(sol.L1, sol.L2))


def solve(alpha: float) -> DoubleBubbleResult:
    """Optimal double bubble at ratio alpha; ties within 1e-9 report both.

    `candidates` holds both cases' minima; cells are built only for the
    reported entries.  Each case's minimum checks the ratio; the nested one
    runs first, so a bad alpha raises there.
    """
    emb = embedded_mod.minimize_rho1(alpha)
    kis = kissing_mod.kissing_minimum(alpha)
    diff = emb.perimeter - kis.perimeter
    if abs(diff) <= TIE_TOL:
        case = CASE_BOTH
        entries = (_embedded_entry(emb, alpha), _kissing_entry(kis, alpha))
    elif diff < 0.0:
        case = CASE_EMBEDDED
        entries = (_embedded_entry(emb, alpha),)
    else:
        case = CASE_KISSING
        entries = (_kissing_entry(kis, alpha),)
    return DoubleBubbleResult(
        alpha,
        case,
        min(emb.perimeter, kis.perimeter),
        entries,
        entries[0].joint_length,
        {CASE_EMBEDDED: emb.perimeter, CASE_KISSING: kis.perimeter},
    )


def _difference_and_slope(alpha: float) -> tuple[float, float]:
    """(g, g') for g = embedded_value - kissing_value at alpha.

    Both values are minima over side lengths, so by the envelope theorem
    g' is their partial derivative in alpha at the minimizers:
    (4 sqrt(3)/3)/L1 for the nested pair, less 2 sqrt(3)/(3 u2) with
    u2 = sqrt((3 L2^2 + 4 sqrt(3) alpha)/21) for the six-sided cell B that
    both kissing branches glue.
    """
    emb = embedded_mod.minimize_rho1(alpha)
    kis = kissing_mod.kissing_minimum(alpha)
    g = emb.perimeter - kis.perimeter
    u2 = math.sqrt((3.0 * kis.L2 * kis.L2 + _4SQRT3 * alpha) / 21.0)
    return g, _4SQRT3 / (3.0 * emb.L1) - _2SQRT3 / (3.0 * u2)


def find_alpha0(lo: float = ALPHA0_BRACKET[0], hi: float = ALPHA0_BRACKET[1]) -> float:
    """The crossover ratio: embedded below, kissing above.

    Safeguarded Newton steps run on g = embedded_value - kissing_value,
    negative at the bracket's left end and positive at its right end, from
    the left end.  Above the 1/8 handoff, where alpha0 lies, g is
    increasing and concave, so a step from the left of the root does not
    pass it and the iterates climb from lo; below 1/8 g is convex, and
    below about 0.03 it decreases.  A step that leaves the shrinking sign
    bracket, lands back on one of its ends (only rounding can cause
    either) or comes from a slope that is not positive is replaced by
    bisection (Brent 1973).  Each step evaluates both minima in closed
    form, so g costs no inner iteration.

    The iteration stops at a step of ALPHA0_TOL = 1e-9 or less, returning
    the point that step reached; an exact zero of g or a step of 2 ulp or
    less stops it too.  After a Newton step that small the error is of
    order 1e-18; after a bisection step it is at most 1e-9.  It lands on
    alpha0 to the rounding of g, a few 1e-15.

    Raises if the bracket does not straddle the sign change.
    """
    gx, slope = _difference_and_slope(lo)
    ghi, _ = _difference_and_slope(hi)
    if not (gx < 0.0 < ghi):
        raise ValueError("bracket does not straddle the transition")
    x = lo
    for _ in range(NEWTON_MAX_ITER):
        if gx == 0.0:
            break
        if gx < 0.0:
            lo = x
        else:
            hi = x
        step = x - gx / slope if slope > 0.0 else math.nan
        if step != x and not lo < step < hi:
            # outside the bracket, or back on its other end; rounding
            # alone can send a step there, and the latter would cycle
            step = 0.5 * (lo + hi)
        x, dx = step, abs(step - x)
        # two comparisons: max(ALPHA0_TOL, ...) would add a builtin call per step
        if dx <= ALPHA0_TOL or dx <= 2.0 * math.ulp(x):
            break
        gx, slope = _difference_and_slope(x)
    return x


def sweep(alpha_min: float, alpha_max: float, steps: int) -> list[DoubleBubbleResult]:
    """solve() on an inclusive grid of `steps` ratios."""
    check_alpha(alpha_min)
    check_alpha(alpha_max)
    if alpha_min > alpha_max:
        raise ValueError("alpha_min must not exceed alpha_max")
    # bool is an int subclass, so True would otherwise pass as one step
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError("steps must be a positive integer")
    if steps == 1:
        alphas = [alpha_min]
    else:
        span = alpha_max - alpha_min
        # the formula can miss alpha_max by an ulp, so the grid ends on it exactly
        alphas = [alpha_min + span * i / (steps - 1) for i in range(steps - 1)] + [alpha_max]
    return [solve(a) for a in alphas]
