"""One cell nested into a notch cut from the other's side.

The outer cell is a width-L2 hexagon with a rhombic wedge (two sides of
length L1/2 at 60 and 120 degrees) removed from its east corner region;
the inner cell is a width-L1 hexagon welded into that wedge, sticking
outward.  Writing V' = V_outer + sqrt(3) L1^2 / 8 for the material
hexagon's area (cell plus wedge), the shoelace identity fixes the outer's
horizontal sides at y1 = y4 = (8 sqrt(3) V' - 3 L2^2) / (12 L2) and its
slants at L2/2, so its boundary length is 2 y1 + 2 L2.  The inner cell is
the fixed-width analogue with x1 = x4 = (8 sqrt(3) V - 3 L1^2)/(12 L1).

The pair's perimeter with the outer cell holding volume 1 is

    rho1(L1, L2) = (9 L2^2 + 8 sqrt(3) V')/(6 L2)
                 + (9 L1^2 + 8 sqrt(3) alpha)/(6 L1) - L1,

minimized in L2 at L2*(L1) = sqrt(8 sqrt(3) + 3 L1^2)/3 and then in L1
in closed form: the stationarity condition of the strictly convex
sqrt(8 sqrt(3) + 3 L1^2) + L1/2 + 4 sqrt(3) alpha/(3 L1) is a cubic with
one positive root (see _cubic_min), solved without iteration.
rho1_minimizer gives the minimum's notch width and value, checking the
ratio, and minimize_rho1 adds the host width; the solver reads the
former and computes the host width only for a nested cell it builds.
rho1 stays as the written definition; the tests hold
checks._embedded_objective, which adds the same parts, to it bit for bit.

rho2 swaps which cell holds which volume.  The paper excludes it, and the
solver does not evaluate it; it is kept here as that exclusion, for the
checks and tests that confirm it never undercuts rho1.  Its minimum has
the L2 >= L1 clamp active for alpha <= 2/3, giving the closed form
L1 = L2 = sqrt(8 sqrt(3)(1+alpha)/15), and above 2/3 reduces to the same
cubic with the roles of the volumes exchanged.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .hexnorm import DEDUP_TOL, SQRT3, PolyChain, merge_vertices
from .singlebubble import MIN_SIDE, check_alpha

# hoisted from rho1_minimizer, where each is evaluated first and on its own
_4SQRT3 = 4.0 * SQRT3
_8SQRT3 = 8.0 * SQRT3
_L1_CAP = math.sqrt(4.0 * SQRT3 / 3.0)  # where L2*(L1) = L1
_INF = math.inf

def inner_hexagon(L: float, V: float) -> tuple[tuple[float, ...], float]:
    """Sides (x1..x6) and boundary length of the optimal width-L cell.

    Requires 8 sqrt(3) V >= 3 L^2 (otherwise x1 < 0: the cell cannot be
    that wide at this volume).  Where the boundary length overflows, as it
    does wherever a term of x1 does, a "too large" ValueError is raised.
    """
    if not (math.isfinite(L) and math.isfinite(V)) or V <= 0.0 or L < MIN_SIDE:
        raise ValueError(f"need positive volume and width >= {MIN_SIDE}")
    x1 = (8.0 * SQRT3 * V - 3.0 * L * L) / (12.0 * L)
    if x1 < 0.0:  # -inf too: 3 L^2 overflows alone
        if x1 < -1e-12 * max(1.0, L):
            raise ValueError("infeasible: width too large for the volume")
        x1 = 0.0
    length = (9.0 * L * L + 8.0 * SQRT3 * V) / (6.0 * L)
    if not length < _INF:  # inf or nan; a finite length has a finite x1
        raise ValueError("cell too large: its boundary length overflows")
    half = L / 2.0
    return (x1, half, half, x1, half, half), length


def outer_notched(
    L1: float, L2: float, V: float
) -> tuple[tuple[float, ...], float]:
    """Sides (y1..y6) and boundary length of the notched width-L2 cell.

    L1 is the notch mouth width; feasibility needs L2 >= L1 (the slant
    hosting the notch must fit it) and a nonnegative horizontal side y1.
    Where the boundary length overflows, as it does wherever a term of y1
    does, a "too large" ValueError is raised.
    """
    if not (math.isfinite(L1) and math.isfinite(L2) and math.isfinite(V)) or V <= 0.0:
        raise ValueError("need positive finite volume")
    if L1 < MIN_SIDE or L2 < MIN_SIDE:
        raise ValueError(f"sides must be >= {MIN_SIDE}")
    if L2 < L1 * (1.0 - 1e-12):
        raise ValueError("infeasible: notch wider than the hosting cell")
    vp = V + SQRT3 * L1 * L1 / 8.0
    y1 = (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)
    if y1 < 0.0:  # -inf too: 3 L2^2 overflows alone
        if y1 < -1e-12 * max(1.0, L2):
            raise ValueError("infeasible: span too large for the volume")
        y1 = 0.0
    length = 2.0 * y1 + 2.0 * L2
    if not length < _INF:  # inf, or nan where the terms of y1 overflow together
        raise ValueError("cell too large: its boundary length overflows")
    y2 = max(0.0, (L2 - L1) / 2.0)
    half = L2 / 2.0
    return (y1, y2, y2, y1, half, half), length


def rho1(L1: float, L2: float, alpha: float) -> float:
    """Pair perimeter, outer cell volume 1, inner cell volume alpha."""
    check_alpha(alpha)
    _, outer = outer_notched(L1, L2, 1.0)
    _, inner = inner_hexagon(L1, alpha)
    return outer + inner - L1


def rho2(L1: float, L2: float, alpha: float) -> float:
    """Pair perimeter with the volumes swapped (outer alpha, inner 1)."""
    check_alpha(alpha)
    _, outer = outer_notched(L1, L2, alpha)
    _, inner = inner_hexagon(L1, 1.0)
    return outer + inner - L1


def rho1_optimal_L2(L1: float) -> float:
    """Argmin of rho1 over L2 for a fixed notch width: sqrt(8 sqrt(3)+3 L1^2)/3.

    Past _L1_CAP = sqrt(4 sqrt(3)/3) it falls below L1, which no host fits.
    """
    if not 0.0 < L1 <= _L1_CAP:
        raise ValueError(f"notch width must lie in (0, {_L1_CAP!r}]")
    return math.sqrt(_8SQRT3 + 3.0 * L1 * L1) / 3.0


def _cubic_min(a: float, c: float, hi: float) -> tuple[float, float]:
    # (L*, f(L*)) for the convex f(L) = sqrt(a + 3 L^2) + L/2 + c/L on
    # (0, hi], with no iteration.  Put w = c/L^2 - 1/2: f'(L) = 0 reads
    # w = 3L/sqrt(a + 3 L^2), and eliminating L gives the cubic
    # a w^3 + (a/2 + 3c) w^2 - 9c = 0, with one positive root; then
    # L* = sqrt(c/(w + 1/2)).  With b = 1/2 + 3c/a and s = sqrt(9c/a),
    # z = w/s is O(1) for every double, and z = 1/y turns the cubic into
    # the depressed y^3 - b y - s = 0, whose one positive root is the
    # trigonometric largest root when s^2/4 < b^3/27 and Cardano's real
    # root otherwise (Kahan 1986).  Cardano's second cube root is taken as
    # b/(3u), so its cancellation never occurs.  One Newton step on
    # s z^3 + b z^2 - 1 polishes z; it brings L* from 2.1 to 1.5 ulp of the
    # exact root, worst case.  A root at or beyond hi leaves f decreasing
    # on (0, hi], so hi is the minimum.
    b = 0.5 + 3.0 * c / a
    s = math.sqrt(9.0 * c / a)
    disc = 0.25 * s * s - b * b * b / 27.0
    if disc < 0.0:
        r = math.sqrt(b / 3.0)
        # near disc = 0 rounding can lift the cosine past 1
        v = s / (2.0 * r * r * r)
        y = 2.0 * r * math.cos(math.acos(v if v < 1.0 else 1.0) / 3.0)
    else:
        u = (0.5 * s + math.sqrt(disc)) ** (1.0 / 3.0)
        y = u + b / (3.0 * u)
    z = 1.0 / y
    z -= ((s * z + b) * z * z - 1.0) / ((3.0 * s * z + 2.0 * b) * z)
    x = math.sqrt(c / (s * z + 0.5))
    if hi < x:
        x = hi
    return x, math.sqrt(a + 3.0 * x * x) + 0.5 * x + c / x


class EmbeddedSolution(NamedTuple):
    """Parameters of the nested minimum; embedded_geometry builds its cells."""

    L1: float
    L2: float
    perimeter: float


def rho1_minimizer(alpha: float) -> tuple[float, float]:
    """(L1*, value) minimizing rho1 with L2 = L2*(L1) resolved.

    The nested minimum's value and notch width, outer cell holding volume
    1, with no host width and no record; solver.embedded_value and
    solver.solve read it.  It checks the ratio, so its callers need not.

    The 1-D domain is (0, sqrt(8 sqrt(3) alpha / 3)] (inner feasibility)
    intersected with {L1 <= L2*(L1)}, i.e. L1 <= sqrt(4 sqrt(3)/3); on
    the clamped diagonal beyond that bound rho1 is strictly increasing,
    so nothing is lost.  At L2*(L1) the outer term collapses to
    sqrt(8 sqrt(3) + 3 L1^2), leaving the convex
    sqrt(8 sqrt(3) + 3 L1^2) + L1/2 + 4 sqrt(3) alpha/(3 L1), whose
    stationary point is the positive root of a cubic, solved in closed form
    with no iteration, for every alpha down to the smallest double.
    """
    check_alpha(alpha)
    # hi = sqrt(8 sqrt(3) alpha/3) from the same rounded c that _cubic_min
    # gets: at subnormal c, rounding 8 sqrt(3) alpha on its own could put hi
    # below the stationary point
    c = _4SQRT3 * alpha / 3.0
    hi = math.sqrt(2.0 * c)
    if _L1_CAP < hi:
        hi = _L1_CAP
    return _cubic_min(_8SQRT3, c, hi)


def minimize_rho1(alpha: float) -> EmbeddedSolution:
    """(L1*, L2*, value): rho1_minimizer's minimum with its host width
    rho1_optimal_L2(L1*), as a record.

    Its callers are the checks (the perturbation check reads L1 and L2,
    the oracle and route-order checks the value), the tests and the
    demos.  The solver reads rho1_minimizer and computes L2 only for a
    nested entry it reports.
    """
    L1, value = rho1_minimizer(alpha)
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(EmbeddedSolution, (L1, rho1_optimal_L2(L1), value))


def rho2_minimum(alpha: float) -> tuple[float, float, float]:
    """(L1*, L2*, value) minimizing rho2 over {L2 >= L1, feasible}.

    For alpha <= 2/3 the L2 >= L1 clamp is active and the closed form
    L1 = L2 = sqrt(8 sqrt(3)(1+alpha)/15) with value
    2 sqrt(10 (1+alpha))/3^(1/4) is exact.  Above 2/3 the minimizer
    detaches from the diagonal and is the same closed-form cubic root as
    rho1's, on the curve L2 = sqrt((8 sqrt(3) alpha + 3 L1^2)/9).

    Known defect: the cells of this optimum, embedded_geometry(L1, L2,
    alpha, 1.0), fail to build ("closed chain is not simple") for most
    alpha in [8.3e-13, 9.6e-10], 1e-12, 1e-11 and 1e-10 among them; they
    build at 1e-13 and at 1e-9.  The solver never builds them.
    """
    check_alpha(alpha)
    if alpha <= 2.0 / 3.0:
        L = math.sqrt(8.0 * SQRT3 * (1.0 + alpha) / 15.0)
        value = 2.0 * math.sqrt(10.0 * (1.0 + alpha)) / 3.0 ** 0.25
        return L, L, value

    # interior branch: the outer term at its own optimal L2 collapses to
    # sqrt(8 sqrt(3) alpha + 3 L1^2); valid while that L2 stays >= L1,
    # i.e. L1 <= sqrt(4 sqrt(3) alpha / 3).  The diagonal branch beyond is
    # increasing for alpha > 2/3, so the junction endpoint covers it.
    hi = math.sqrt(4.0 * SQRT3 * alpha / 3.0)
    L1, value = _cubic_min(8.0 * SQRT3 * alpha, 4.0 * SQRT3 / 3.0, hi)
    L2 = math.sqrt((8.0 * SQRT3 * alpha + 3.0 * L1 * L1) / 9.0)
    return L1, max(L1, L2), value


def embedded_geometry(
    L1: float, L2: float, outer_volume: float, inner_volume: float
) -> tuple[PolyChain, PolyChain, tuple[float, ...], tuple[float, ...]]:
    """(outer chain, inner chain, outer_notched sides, inner_hexagon sides as
    built), anchored at the outer chain's west corner, which lands at (0, 0).

    The notch mouth is vertical, sqrt(3) L1 / 2 long; the inner cell pokes
    east out of it.  Host vertices merge only where a host side can vanish:
    y1, or y2 where L2 is near L1.  On the rho2 optimum (outer volume alpha,
    inner volume 1) the outer chain is not simple for most alpha in
    [8.3e-13, 9.6e-10]; see rho2_minimum.
    """
    inner_sides, _ = inner_hexagon(L1, inner_volume)
    outer_sides, _ = outer_notched(L1, L2, outer_volume)
    x1, y1, y2 = inner_sides[0], outer_sides[0], outer_sides[1]
    q = L1 / 4.0
    h = SQRT3 * L1 / 4.0  # > DEDUP_TOL, as L1 >= MIN_SIDE
    top = SQRT3 * (L1 + y2) / 2.0
    low = -SQRT3 * y2 / 2.0
    xa = -y2 / 2.0  # x of the two vertices next to the notch
    xb = xa - y1  # x of the far ends of the horizontal sides
    # The mouth runs from (0, 0) to (0, 2h); each vertex is written at once
    # as x - ox, y - oy from the west corner (ox, oy), the corner as (0, 0).
    # The notch and slant steps (q, h and L2/4 across, h and sqrt(3) L2/4
    # up, all >= MIN_SIDE/4) and the inner steps (x1 > DEDUP_TOL across, or
    # h up) never merge; only the steps to and from (xa, .) can, by y2/2 or
    # xa - xb across.
    ox, oy = xb - L2 / 4.0, top - SQRT3 * L2 / 4.0
    x0, y0, xq = 0.0 - ox, 0.0 - oy, -q - ox  # the notch's foot and its apex's x
    yh, y2h = h - oy, 2.0 * h - oy
    outer = [
        (xb - ox, low - oy),
        (xa - ox, low - oy),
        (x0, y0),
        (xq, yh),
        (x0, y2h),
        (xa - ox, top - oy),
        (xb - ox, top - oy),
        (0.0, 0.0),
    ]
    if y2 <= 2.0 * DEDUP_TOL or xa - xb <= DEDUP_TOL:
        outer = merge_vertices(outer, True)
    if x1 <= DEDUP_TOL:
        # the vertex merge would drop (x1, 0) and (0, 2h) as duplicates of their
        # predecessors, tilting the glued sides off the lattice by ~x1/L1;
        # a side that short is collapsed here instead, in the sides too
        inner_sides = (0.0, *inner_sides[1:3], 0.0, *inner_sides[4:])
        inner = [(x0, y0), (q - ox, yh), (x0, y2h), (xq, yh)]
    else:
        x1o = x1 - ox
        inner = [(x0, y0), (x1o, y0), ((x1 + q) - ox, yh), (x1o, y2h), (x0, y2h), (xq, yh)]
    return PolyChain(outer, True), PolyChain(inner, True), outer_sides, inner_sides
