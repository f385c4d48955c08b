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
from typing import NamedTuple

from .hexnorm import DEDUP_TOL, SQRT3, LATTICE_DIRECTIONS, PolyChain

_WALK = tuple(map(tuple, LATTICE_DIRECTIONS))  # as plain pairs: the fixed side, then x1..x5

REGIME_SIX = "six-sided"
REGIME_FOUR = "four-sided"

# sides shorter than this give effectively unbounded perimeters
MIN_SIDE = 1e-8


def check_alpha(alpha: float) -> None:
    """Reject anything but a real volume ratio in (0, 1].

    bool is an int subclass, so True would otherwise pass as alpha = 1.
    """
    if alpha.__class__ is float and 0.0 < alpha <= 1.0:
        return
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

    Zero-length sides collapse as the walk goes, by merge_vertices' test,
    so boundary-regime solutions come out as quadrilaterals without
    special-casing.
    """
    x = y = px = py = 0.0  # (px, py): the last vertex kept
    pts = [(x, y)]
    for s, (dx, dy) in zip((L, *sides), _WALK):
        x, y = x + s * dx, y + s * dy
        if not (abs(px - x) <= DEDUP_TOL and abs(py - y) <= DEDUP_TOL):
            pts.append((x, y))
            px, py = x, y
    if len(pts) > 1 and abs(px) <= DEDUP_TOL and abs(py) <= DEDUP_TOL:
        pts.pop()  # the last vertex closes onto the first
    return pts


def fixed_side_polygon(L: float, sides: tuple[float, ...]) -> PolyChain:
    """Closed chain through fixed_side_vertices(L, sides)."""
    return PolyChain(tuple(fixed_side_vertices(L, sides)), closed=True)


# where a square or a radicand overflows, L is scaled by this power of two
# and V by its square (in two steps: 2^-1200 is below the smallest double),
# exactly; every form here is homogeneous, so the scaled form rounds as the
# direct one would with an unbounded exponent range (a term that underflows
# in it lies far below half an ulp of the other term)
_SCALE = 2.0 ** -600


def is_six_sided(L: float, V: float) -> bool:
    """Regime test: six-sided iff 3*sqrt(3)*L^2 < 16*V.

    Where both sides overflow (L above about 5.9e153, V above about
    1.1e307) they are compared at L 2^-600 and V 2^-1200, so an overflowed
    square is never read as four-sided.  Where only one overflows the
    direct comparison already answers right.
    """
    square, volume = 3.0 * SQRT3 * L * L, 16.0 * V
    if square < volume:
        return True
    if volume != math.inf:  # square does not undercut a finite volume
        return False
    return 3.0 * SQRT3 * (L * _SCALE) * (L * _SCALE) < 16.0 * (V * _SCALE * _SCALE)


def solve_fixed_side(L: float, V: float) -> SingleBubbleSolution:
    """Minimal-perimeter cell over the fixed side L enclosing volume V.

    The perimeter is optimal_perimeter(L, V) bit for bit, and the sides
    are computed with it: where a square overflows, the six-sided form is
    taken at L 2^-600 and V 2^-1200 and the four-sided top side as
    L sqrt(1 - (4/sqrt(3)) V/L^2), as in perimeter_P1 and perimeter_P2,
    and a perimeter that overflows raises.
    """
    _check_inputs(L, V)
    if is_six_sided(L, V):
        rad = (3.0 * L * L + 4.0 * SQRT3 * V) / 21.0
        if rad != math.inf:
            t = math.sqrt(rad)
            perimeter = 7.0 * t - L
        else:  # six-sided cells have L below about 2.4e154, so t is finite
            x, v = L * _SCALE, V * _SCALE * _SCALE
            t = math.sqrt((3.0 * x * x + 4.0 * SQRT3 * v) / 21.0)
            perimeter = (7.0 * t - x) / _SCALE
            t /= _SCALE
        x1 = 2.0 * t - L
        if x1 < 0.0:
            # only roundoff at the regime boundary can put x1 below zero
            if x1 < -1e-12 * max(1.0, L):
                raise ValueError("inconsistent six-sided solution")
            x1 = 0.0
        sides = (x1, t, t, t, x1)
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(SingleBubbleSolution, (L, V, REGIME_SIX, sides, perimeter))
    square = 3.0 * L * L
    if square != math.inf:
        rad = (square - 4.0 * SQRT3 * V) / 3.0
        if rad < 0.0:
            raise ValueError("infeasible volume in the four-sided regime")
        s = math.sqrt(rad)
        perimeter = 3.0 * L - s
    else:
        s = L * math.sqrt(1.0 - 4.0 / SQRT3 * (V / L) / L)
        perimeter = 2.0 * L + (L - s)  # 3L overflows before the perimeter
        if perimeter == math.inf:
            raise ValueError("fixed side too large: the perimeter overflows")
    if s > L:
        s = L  # only roundoff, with V negligible beside L^2, puts s above L
    sides = (0.0, L - s, s, L - s, 0.0)
    return tuple.__new__(SingleBubbleSolution, (L, V, REGIME_FOUR, sides, perimeter))


def perimeter_P1(L: float, V: float) -> float:
    """Six-sided closed-form perimeter 7*sqrt((3L^2 + 4 sqrt(3)V)/21) - L.

    Where the radicand overflows it is taken at L 2^-600 and V 2^-1200 and
    the perimeter scaled back by 2^600; a perimeter that overflows raises.
    """
    _check_inputs(L, V)
    rad = (3.0 * L * L + 4.0 * SQRT3 * V) / 21.0
    if rad != math.inf:
        return 7.0 * math.sqrt(rad) - L
    x, v = L * _SCALE, V * _SCALE * _SCALE
    perimeter = (7.0 * math.sqrt((3.0 * x * x + 4.0 * SQRT3 * v) / 21.0) - x) / _SCALE
    if perimeter == math.inf:
        raise ValueError("fixed side too large: the perimeter overflows")
    return perimeter


def perimeter_P2(L: float, V: float) -> float:
    """Four-sided (trapezoid) closed-form perimeter 3L - sqrt((3L^2 - 4 sqrt(3)V)/3).

    Defined for 3L^2 >= 4*sqrt(3)*V, i.e. L >= 2*sqrt(V)/3^(1/4); below
    that no trapezoid over the side encloses V and a ValueError is raised.
    Where 3L^2 overflows (L above about 1e154) the top side is
    L sqrt(1 - (4/sqrt(3)) V/L^2), and a perimeter that overflows raises.
    """
    _check_inputs(L, V)
    square = 3.0 * L * L
    huge = square == math.inf
    rad = 1.0 - 4.0 / SQRT3 * (V / L) / L if huge else (square - 4.0 * SQRT3 * V) / 3.0
    if rad < 0.0:
        raise ValueError("volume too large for a four-sided cell on this side")
    if not huge:
        return 3.0 * L - math.sqrt(rad)
    perimeter = 2.0 * L + (L - L * math.sqrt(rad))  # 3L overflows before the perimeter
    if perimeter == math.inf:
        raise ValueError("fixed side too large: the perimeter overflows")
    return perimeter


def optimal_perimeter(L: float, V: float) -> float:
    """Perimeter of the regime that is_six_sided names: P1, else P2.

    Both forms open with the same input check, so a bad input gets the
    same error whichever form the test picks.
    """
    return perimeter_P1(L, V) if is_six_sided(L, V) else perimeter_P2(L, V)


def isoperimetric_optimum(V: float) -> tuple[float, float]:
    """(L0, perimeter) of the unconstrained optimum: the regular hexagon.

    L0 = sqrt(2V)/3^(3/4) makes all six sides equal and the perimeter is
    2*sqrt(2V)*3^(1/4).
    """
    if not (math.isfinite(V) and V > 0.0):
        raise ValueError("volume must be positive and finite")
    twice = 2.0 * V
    # 2V overflows above about 9e307; halving V instead is exact there,
    # but not for a subnormal V, so the plain form is kept wherever it holds
    root = math.sqrt(twice) if twice != math.inf else 2.0 * math.sqrt(0.5 * V)
    return root / 3.0 ** 0.75, 2.0 * root * 3.0 ** 0.25
