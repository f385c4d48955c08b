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
by a root-find on the monotone derivative of the strictly convex
sqrt(8 sqrt(3) + 3 L1^2) + L1/2 + 4 sqrt(3) alpha/(3 L1).  rho2 swaps
which cell holds which volume; its minimum has the L2 >= L1 clamp active
for alpha <= 2/3, giving the closed form L1 = L2 = sqrt(8 sqrt(3)(1+alpha)/15),
and above 2/3 reduces to the same convex form with the roles of the
volumes exchanged.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .hexnorm import DEDUP_TOL, SQRT3, PolyChain, anchored_pair, merge_vertices
from .oracle import BoxSpec, grid_refine_min
from .singlebubble import MIN_SIDE, check_alpha

# cap on safeguarded Newton steps; from the left end of the bracket the
# iteration takes 6-8 of them on (0, 1]
NEWTON_MAX_ITER = 60

ROUTE_RHO1 = "rho1"  # outer cell holds volume 1
ROUTE_RHO2 = "rho2"  # outer cell holds volume alpha

# diagonal tolerance for the case-2 check
DIAG_TOL = 1e-6


def inner_hexagon(L: float, V: float) -> tuple[tuple[float, ...], float]:
    """Sides (x1..x6) and boundary length of the optimal width-L cell.

    Requires 8 sqrt(3) V >= 3 L^2 (otherwise x1 < 0: the cell cannot be
    that wide at this volume).
    """
    if not (math.isfinite(L) and math.isfinite(V)) or V <= 0.0 or L < MIN_SIDE:
        raise ValueError("need positive volume and width >= 1e-8")
    x1 = (8.0 * SQRT3 * V - 3.0 * L * L) / (12.0 * L)
    if x1 < 0.0:
        if x1 < -1e-12 * max(1.0, L):
            raise ValueError("infeasible: width too large for the volume")
        x1 = 0.0
    half = L / 2.0
    sides = (x1, half, half, x1, half, half)
    return sides, (9.0 * L * L + 8.0 * SQRT3 * V) / (6.0 * L)


def outer_notched(
    L1: float, L2: float, V: float
) -> tuple[tuple[float, ...], float]:
    """Sides (y1..y6) and boundary length of the notched width-L2 cell.

    L1 is the notch mouth width; feasibility needs L2 >= L1 (the slant
    hosting the notch must fit it) and a nonnegative horizontal side y1.
    """
    if not all(map(math.isfinite, (L1, L2, V))) or V <= 0.0:
        raise ValueError("need positive finite volume")
    if L1 < MIN_SIDE or L2 < MIN_SIDE:
        raise ValueError("sides must be >= 1e-8")
    if L2 < L1 * (1.0 - 1e-12):
        raise ValueError("infeasible: notch wider than the hosting cell")
    vp = V + SQRT3 * L1 * L1 / 8.0
    y1 = (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)
    if y1 < 0.0:
        if y1 < -1e-12 * max(1.0, L2):
            raise ValueError("infeasible: span too large for the volume")
        y1 = 0.0
    y2 = max(0.0, (L2 - L1) / 2.0)
    half = L2 / 2.0
    sides = (y1, y2, y2, y1, half, half)
    return sides, 2.0 * y1 + 2.0 * L2


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
    """Argmin of rho1 over L2 for a fixed notch width: sqrt(8 sqrt(3)+3 L1^2)/3."""
    return math.sqrt(8.0 * SQRT3 + 3.0 * L1 * L1) / 3.0


def _convex_min(a: float, c: float, hi: float) -> tuple[float, float]:
    """(L*, f(L*)) for f(L) = sqrt(a + 3 L^2) + L/2 + c/L on (0, hi].

    f'(L) = 3L/sqrt(a + 3L^2) + 1/2 - c/L^2 is strictly increasing and
    concave.  Its first term lies in [0, sqrt(3)), so the root sits in
    [sqrt(c/(1/2 + sqrt(3))), sqrt(2c)).  By concavity a Newton step from
    below the root never passes it, so the iteration starts at the left
    end and climbs; a step that leaves the shrinking sign bracket (only
    rounding can cause one) is replaced by bisection (Brent 1973).  When
    f' is still nonpositive at hi the constrained minimum is hi itself.
    """

    def f(L: float) -> float:
        return math.sqrt(a + 3.0 * L * L) + 0.5 * L + c / L

    def df(L: float) -> float:
        return 3.0 * L / math.sqrt(a + 3.0 * L * L) + 0.5 - c / (L * L)

    def d2f(L: float) -> float:
        return 3.0 * a / math.sqrt(a + 3.0 * L * L) ** 3 + 2.0 * c / L ** 3

    if df(hi) <= 0.0:
        return hi, f(hi)
    lo = math.sqrt(c / (0.5 + SQRT3))
    up = min(hi, math.sqrt(2.0 * c))
    x = lo
    for _ in range(NEWTON_MAX_ITER):
        d = df(x)
        if d == 0.0:
            break
        if d < 0.0:
            lo = x
        else:
            up = x
        step = x - d / d2f(x)
        if not lo <= step <= up:
            step = 0.5 * (lo + up)
        x, dx = step, step - x
        if abs(dx) <= 2.0 * math.ulp(x):
            break
    return x, f(x)


def minimize_rho1(alpha: float) -> tuple[float, float, float]:
    """(L1*, L2*, value) minimizing rho1 with L2 = L2*(L1) resolved.

    The 1-D domain is (0, sqrt(8 sqrt(3) alpha / 3)] (inner feasibility)
    intersected with {L1 <= L2*(L1)}, i.e. L1 <= sqrt(4 sqrt(3)/3); on
    the clamped diagonal beyond that bound rho1 is strictly increasing,
    so nothing is lost.  At L2*(L1) the outer term collapses to
    sqrt(8 sqrt(3) + 3 L1^2), leaving the convex
    sqrt(8 sqrt(3) + 3 L1^2) + L1/2 + 4 sqrt(3) alpha/(3 L1).
    """
    check_alpha(alpha)
    hi = min(
        math.sqrt(8.0 * SQRT3 * alpha / 3.0),
        math.sqrt(4.0 * SQRT3 / 3.0),
    )
    L1, value = _convex_min(8.0 * SQRT3, 4.0 * SQRT3 * alpha / 3.0, hi)
    return L1, rho1_optimal_L2(L1), value


def rho2_minimum(alpha: float) -> tuple[float, float, float]:
    """(L1*, L2*, value) minimizing rho2 over {L2 >= L1, feasible}.

    For alpha <= 2/3 the L2 >= L1 clamp is active and the closed form
    L1 = L2 = sqrt(8 sqrt(3)(1+alpha)/15) with value
    2 sqrt(10 (1+alpha))/3^(1/4) is exact.  Above 2/3 the minimizer
    detaches from the diagonal and is located by the same convex
    root-find as rho1, on the curve L2 = sqrt((8 sqrt(3) alpha + 3 L1^2)/9).
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
    L1, value = _convex_min(8.0 * SQRT3 * alpha, 4.0 * SQRT3 / 3.0, hi)
    L2 = math.sqrt((8.0 * SQRT3 * alpha + 3.0 * L1 * L1) / 9.0)
    return L1, max(L1, L2), value


# --- the degenerate-outer variant check --------------------------------------


def _case2_objectives(alpha: float) -> dict[str, Callable[[tuple[float, ...]], float]]:
    c = 4.0 * SQRT3 / 3.0

    def printed(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return L2 + c / L2 + 1.5 * L1 + c * alpha / L1

    def notch_from_l1(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return (
            (9.0 * L2 * L2 + 8.0 * SQRT3 + 3.0 * L1 * L1) / (6.0 * L2)
            + 1.5 * L1
            + c * alpha / L1
            - L1
        )

    def swapped(p: tuple[float, ...]) -> float:
        L1, L2 = p
        return L2 + c * alpha / L2 + 1.5 * L1 + c / L1

    return {"printed": printed, "notch-from-L1": notch_from_l1, "swapped-volumes": swapped}


def case2_report(alpha: float) -> dict[str, dict[str, float | bool]]:
    """Minimize each reading of the degenerate variant over {L2 <= L1}.

    The source text for this variant is garbled, so all three readings
    are minimized and reported: the expression as printed (notch area
    taken from L2, joint term L2), the same with the notch taken from L1,
    and the swapped-volume version.  Each entry carries the minimizer and
    whether it sits on the L2 = L1 diagonal.
    """
    check_alpha(alpha)
    objectives = _case2_objectives(alpha)
    report: dict[str, dict[str, float | bool]] = {}
    for name, fn in objectives.items():
        # the inner cell holds volume alpha except in the swapped reading
        cap = 8.0 * SQRT3 * (1.0 if name == "swapped-volumes" else alpha) / 3.0
        hi = math.sqrt(cap)
        lo = hi * 1e-3
        box = BoxSpec(
            (lo, lo),
            (hi, hi),
            feasible=lambda p: p[1] <= p[0] * (1.0 + 1e-12),
            witness=(hi, hi * 0.5),
        )
        (l1, l2), value = grid_refine_min(
            fn, box, grid=64, refine_iters=60, directions=[(1.0, 1.0)]
        )
        report[name] = {
            "L1": l1,
            "L2": l2,
            "value": value,
            "diagonal": abs(l2 - l1) <= DIAG_TOL * (1.0 + l1),
        }
    return report


def case2_check(alpha: float) -> bool:
    """True iff the printed degenerate variant minimizes on L2 = L1.

    Holds for every alpha in (0, 1]: the printed objective is separable
    convex and its unconstrained minimizer violates L2 <= L1, so the
    constrained minimizer lies on the diagonal.
    """
    return bool(case2_report(alpha)["printed"]["diagonal"])


# --- skew-notch family (used by the symmetry invariant) ----------------------


def notch_skew_perimeter(L1: float, L2: float, alpha: float, delta: float) -> float:
    """Welded-pair perimeter with the notch slid off-center by delta.

    The wedge sides become (L1 - delta)/2 and (L1 + delta)/2; the inner
    cell's glued sides track them, its volume is restored through
    x1 + x4, and the outer's through y1.  The exact expansion is
    rho1 + delta^2 (L2 - 2 L1)/(4 L1 L2), so the symmetric notch is a
    strict local minimum iff L2 >= 2 L1.
    """
    check_alpha(alpha)
    if abs(delta) >= min(L1, L2 - L1):
        raise ValueError("skew out of range")
    w60 = (L1 - delta) / 2.0
    w120 = (L1 + delta) / 2.0
    # group the symmetric product so delta -> -delta is exact in floats
    vp = 1.0 + SQRT3 * (w60 * w120) / 2.0
    y1 = (8.0 * SQRT3 * vp - 3.0 * L2 * L2) / (12.0 * L2)
    if y1 < 0.0:
        raise ValueError("infeasible: span too large for the volume")
    s = (
        4.0 * SQRT3 * alpha / (3.0 * L1)
        - L1 / 2.0
        + delta * delta / (4.0 * L1)
    )
    x1 = s / 2.0 + delta / 4.0
    x4 = s / 2.0 - delta / 4.0
    if x1 < 0.0 or x4 < 0.0:
        raise ValueError("infeasible: inner cell sides collapse")
    return (2.0 * y1 + 2.0 * L2) + (s + 2.0 * L1) - L1


# --- full embedded optimum ----------------------------------------------------


class EmbeddedSolution(NamedTuple):
    """Parameters of the nested minimum; embedded_geometry builds its cells."""

    alpha: float
    L1: float
    L2: float
    perimeter: float
    route: str  # ROUTE_RHO1 or ROUTE_RHO2


def embedded_geometry(
    L1: float, L2: float, outer_volume: float, inner_volume: float
) -> tuple[PolyChain, PolyChain]:
    """(outer chain, inner chain), outer's leftmost-lowest vertex at origin.

    The notch mouth runs from (0, 0) to (0, sqrt(3) L1 / 2) before the
    anchoring shift; the inner cell pokes east out of it.
    """
    (x1, *_), _ = inner_hexagon(L1, inner_volume)
    if x1 <= DEDUP_TOL:
        # the vertex merge would drop (x1, 0) and (0, 2h) as duplicates of their
        # predecessors, tilting the glued sides off the lattice by ~x1/L1;
        # a side that short is collapsed here instead
        x1 = 0.0
    (y1, y2, *_), _ = outer_notched(L1, L2, outer_volume)
    q = L1 / 4.0
    h = SQRT3 * L1 / 4.0
    inner_pts = [
        (0.0, 0.0),
        (x1, 0.0),
        (x1 + q, h),
        (x1, 2.0 * h),
        (0.0, 2.0 * h),
        (-q, h),
    ]
    top = SQRT3 * (L1 + y2) / 2.0
    outer_pts = [
        (-y2 / 2.0 - y1, -SQRT3 * y2 / 2.0),
        (-y2 / 2.0, -SQRT3 * y2 / 2.0),
        (0.0, 0.0),
        (-q, h),
        (0.0, 2.0 * h),
        (-y2 / 2.0, top),
        (-y2 / 2.0 - y1, top),
        (-y2 / 2.0 - y1 - L2 / 4.0, top - SQRT3 * L2 / 4.0),
    ]
    return anchored_pair(
        merge_vertices(outer_pts, closed=True), merge_vertices(inner_pts, closed=True)
    )


def embedded_minimum(alpha: float) -> EmbeddedSolution:
    """Best nested configuration: min of the rho1 and rho2 routes.

    rho1 (outer cell holds volume 1) wins throughout (0, 1]; rho2 is
    evaluated anyway and kept if it ever undercut.
    """
    l1a, l2a, va = minimize_rho1(alpha)
    l1b, l2b, vb = rho2_minimum(alpha)
    if va <= vb:
        return EmbeddedSolution(alpha, l1a, l2a, va, ROUTE_RHO1)
    return EmbeddedSolution(alpha, l1b, l2b, vb, ROUTE_RHO2)
