"""Fixed-side isoperimetric hexagon.

Fix one polygon side of length L along a lattice direction and enclose
area V above it with the least D-perimeter.  Walking counterclockwise
from the fixed side, the free sides x1..x5 point at 60, 120, 180, 240,
300 degrees; polygon closure forces x5 = x1 + x2 - x4 and
x3 = L + x1 - x4, and the shoelace area is

    V = (sqrt(3)/4) * (2 (x1+x2)(x3+x4) - x1^2 - x4^2).

Two regimes split at 3*sqrt(3)*L^2 = 16 V.  Below it the optimum is a
six-sided cell with x2 = x3 = x4 and x1 = x5 = 2 x2 - L; above it x1 and
x5 vanish, leaving a trapezoid with top side s = sqrt((3L^2 - 4 sqrt(3)V)/3),
slanted sides L - s, and perimeter 3L - s.  The two closed forms agree on
the boundary, where x1 hits zero.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .hexnorm import SQRT3, LATTICE_DIRECTIONS, PolyChain, merge_vertices

REGIME_SIX = "six-sided"
REGIME_FOUR = "four-sided"

# sides shorter than this give effectively unbounded perimeters
MIN_SIDE = 1e-8

# cap on newton_root's steps; P3 takes at most 8 on [1/8, 1], where the
# solver uses it (16 on direct calls down to 5e-324), and find_alpha0 at
# most 4 at its default tol (9 at 1e-15), counted over 4,001 ratios and
# 201 brackets; bisection alone narrows any bracket to adjacent floats in
# under 60
NEWTON_MAX_ITER = 60


def check_alpha(alpha: float) -> None:
    """Reject anything but a real volume ratio in (0, 1].

    bool is an int subclass, so True would otherwise pass as alpha = 1.
    """
    if isinstance(alpha, bool):
        raise ValueError("volume ratio must be a real number, not bool")
    if not math.isfinite(alpha) or not (0.0 < alpha <= 1.0):
        raise ValueError("volume ratio must lie in (0, 1]")


def _check_inputs(L: float, V: float) -> None:
    if not (math.isfinite(L) and math.isfinite(V)):
        raise ValueError("L and V must be finite")
    if V <= 0.0:
        raise ValueError("volume must be positive")
    if L < MIN_SIDE:
        raise ValueError(f"fixed side must be >= {MIN_SIDE}")


def x4_from_volume(x1: float, x2: float, L: float, V: float) -> float:
    """Invert the shoelace area for x4 >= 0 given x1, x2, L, V.

    Raises ValueError when the radicand is negative, i.e. the requested
    volume exceeds what any x4 can enclose with these sides.
    """
    rad = x1 * x1 + 2.0 * x1 * x2 + 2.0 * L * (x1 + x2) - 4.0 * V / SQRT3
    if rad < 0.0:
        raise ValueError("infeasible volume for the given sides")
    return math.sqrt(rad)


class SingleBubbleSolution(NamedTuple):
    L: float
    V: float
    regime: str
    sides: tuple[float, float, float, float, float]  # x1..x5
    perimeter: float

    def polygon(self) -> PolyChain:
        """Closed boundary, fixed side from (0, 0) to (L, 0), cell above."""
        return fixed_side_polygon(self.L, self.sides)


def fixed_side_vertices(L: float, sides: tuple[float, ...]) -> list[tuple[float, float]]:
    """Vertices of the polygon from the fixed side plus the five free sides.

    Zero-length sides collapse, so boundary-regime solutions come out as
    quadrilaterals without special-casing.
    """
    x, y = L, 0.0
    pts = [(0.0, 0.0), (x, y)]
    for k, s in enumerate(sides, start=1):
        dx, dy = LATTICE_DIRECTIONS[k % 6]
        x, y = x + s * dx, y + s * dy
        pts.append((x, y))
    return merge_vertices(pts, closed=True)


def fixed_side_polygon(L: float, sides: tuple[float, ...]) -> PolyChain:
    """Closed chain through fixed_side_vertices(L, sides)."""
    return PolyChain(tuple(fixed_side_vertices(L, sides)), closed=True)


def is_six_sided(L: float, V: float) -> bool:
    """Regime test: six-sided iff 3*sqrt(3)*L^2 < 16*V."""
    return 3.0 * SQRT3 * L * L < 16.0 * V


def solve_fixed_side(L: float, V: float) -> SingleBubbleSolution:
    """Minimal-perimeter cell over the fixed side L enclosing volume V."""
    _check_inputs(L, V)
    if is_six_sided(L, V):
        t = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * V) / 21.0)
        x1 = 2.0 * t - L
        if x1 < 0.0:
            # only roundoff at the regime boundary can put x1 below zero
            if x1 < -1e-12 * max(1.0, L):
                raise ValueError("inconsistent six-sided solution")
            x1 = 0.0
        sides = (x1, t, t, t, x1)
        return SingleBubbleSolution(L, V, REGIME_SIX, sides, 7.0 * t - L)
    rad = (3.0 * L * L - 4.0 * SQRT3 * V) / 3.0
    if rad < 0.0:
        raise ValueError("infeasible volume in the four-sided regime")
    s = math.sqrt(rad)
    if s > L:
        raise ValueError("inconsistent four-sided solution")  # cannot happen for V > 0
    sides = (0.0, L - s, s, L - s, 0.0)
    return SingleBubbleSolution(L, V, REGIME_FOUR, sides, 3.0 * L - s)


# the two closed forms on inputs already checked by _check_inputs


def _p1(L: float, V: float) -> float:
    return 7.0 * math.sqrt((3.0 * L * L + 4.0 * SQRT3 * V) / 21.0) - L


def _p2(L: float, V: float) -> float:
    rad = (3.0 * L * L - 4.0 * SQRT3 * V) / 3.0
    if rad < 0.0:
        raise ValueError("volume too large for a four-sided cell on this side")
    return 3.0 * L - math.sqrt(rad)


def perimeter_P1(L: float, V: float) -> float:
    """Six-sided closed-form perimeter 7*sqrt((3L^2 + 4 sqrt(3)V)/21) - L."""
    _check_inputs(L, V)
    return _p1(L, V)


def perimeter_P2(L: float, V: float) -> float:
    """Four-sided (trapezoid) closed-form perimeter 3L - sqrt((3L^2 - 4 sqrt(3)V)/3).

    Defined for 3L^2 >= 4*sqrt(3)*V, i.e. L >= 2*sqrt(V)/3^(1/4); below
    that no trapezoid over the side encloses V and a ValueError is raised.
    """
    _check_inputs(L, V)
    return _p2(L, V)


def optimal_perimeter(L: float, V: float) -> float:
    """Perimeter of the active regime (P1 below the threshold, else P2).

    Checks its inputs once, then applies is_six_sided's test inline and
    the active closed form.
    """
    _check_inputs(L, V)
    if 3.0 * SQRT3 * L * L < 16.0 * V:
        return _p1(L, V)
    return _p2(L, V)


def isoperimetric_optimum(V: float) -> tuple[float, float]:
    """(L0, perimeter) of the unconstrained optimum: the regular hexagon.

    L0 = sqrt(2V)/3^(3/4) makes all six sides equal and the perimeter is
    2*sqrt(2V)*3^(1/4).
    """
    if not (math.isfinite(V) and V > 0.0):
        raise ValueError("volume must be positive and finite")
    root = math.sqrt(2.0 * V)
    return root / 3.0 ** 0.75, 2.0 * root * 3.0 ** 0.25


def newton_root(
    fn: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    flo: float,
    slope_lo: float,
    tol: float = 0.0,
) -> float:
    """Root of an increasing, concave f in [lo, hi] by safeguarded Newton.

    fn(x) returns (f(x), f'(x)); the caller passes the pair at lo, where
    f <= 0.  Because f is concave, a Newton step from the left of the root
    does not pass it, so the iterates climb from lo.  A step that leaves the
    shrinking sign bracket, lands back on one of its ends (only rounding can
    cause either) or comes from a slope that is not positive is replaced by
    bisection (Brent 1973).  The iteration stops on an exact zero or once a
    step is at most max(tol, 2 ulp), returning the point that step reached.
    """
    x, fx, dfx = lo, flo, slope_lo
    for _ in range(NEWTON_MAX_ITER):
        if fx == 0.0:
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
        step = x - fx / dfx if dfx > 0.0 else math.nan
        if step != x and not lo < step < hi:
            # outside the bracket, or back on its other end; rounding
            # alone can send a step there, and the latter would cycle
            step = 0.5 * (lo + hi)
        x, dx = step, abs(step - x)
        # two comparisons: max(tol, ...) would add a builtin call per step
        if dx <= tol or dx <= 2.0 * math.ulp(x):
            break
        fx, dfx = fn(x)
    return x

