"""Two cells glued along part of one lattice-direction side.

With fixed sides L1 (volume 1, above the axis) and L2 (volume alpha,
mirrored below), the pair's perimeter is

    Popt(L1, 1) + Popt(L2, alpha) - min(L1, L2),

Popt being the active single-cell regime.  Stationarity in (L1, L2)
yields eight sign/regime combinations of candidate side pairs; on the
equal-side diagonal L1 = L2 = L the objective splits into the four
branches P3..P6 by regime, of which P3 (both six-sided) dominates
wherever the others are defined.  The global optimum is the admissible
unequal candidate below alpha = 1/8 and the P3 minimizer at or above it;
the two branches agree at the handoff.

The P3 minimizer is also the one positive root of an even degree-8
polynomial obtained by clearing the radicals in dP3/dL = 0.  The solver
finds it by Newton (p3_minimizer); the checker certifies that answer
from the polynomial alone, by Descartes' rule and a sign change at it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .hexnorm import SQRT3, PolyChain, anchored_pair
from .singlebubble import (
    MIN_SIDE,
    REGIME_FOUR,
    REGIME_SIX,
    check_alpha,
    fixed_side_vertices,
    newton_root,
    optimal_perimeter,
    solve_fixed_side,
)

# relative slack when holding a candidate to its claimed regime; stationary
# side pairs may sit exactly on the regime boundary
REGIME_TOL = 1e-12

# alpha at which the unequal candidate collapses onto the diagonal
HANDOFF_ALPHA = 0.125
HANDOFF_TOL = 1e-12

# 7 sqrt((3L^2 + a)/21) = P3_WEIGHT sqrt(3L^2 + a)
P3_WEIGHT = math.sqrt(7.0 / 3.0)

BRANCH_UNEQUAL = "unequal-candidate"
BRANCH_EQUAL = "equal-p3"


def kissing_perimeter(L1: float, L2: float, alpha: float) -> float:
    """Glued-pair perimeter with each cell in its active regime."""
    check_alpha(alpha)
    return (
        optimal_perimeter(L1, 1.0)
        + optimal_perimeter(L2, alpha)
        - min(L1, L2)
    )


# --- unequal-side stationary candidates -----------------------------------

# Stationarity of Popt(L, V) - indicator*L in L.  For the six-sided form
# d/dL [7 sqrt((3L^2+4 sqrt(3)V)/21) - (1+i) L] = 0 gives
# L^2 = 4 sqrt(3) V (1+i)^2 / (21 - 3 (1+i)^2); for the trapezoid form
# d/dL [3L - sqrt((3L^2-4 sqrt(3)V)/3) - i L] = 0 gives
# L^2 = 4 sqrt(3) V (3-i)^2 / (3 ((3-i)^2 - 1)).  The indicator marks the
# cell whose side is the shorter (fully shared) one.

_ROWS = (
    ((REGIME_SIX, 1), (REGIME_SIX, 0)),
    ((REGIME_SIX, 0), (REGIME_SIX, 1)),
    ((REGIME_FOUR, 1), (REGIME_FOUR, 0)),
    ((REGIME_FOUR, 0), (REGIME_FOUR, 1)),
    ((REGIME_SIX, 1), (REGIME_FOUR, 0)),
    ((REGIME_SIX, 0), (REGIME_FOUR, 1)),
    ((REGIME_FOUR, 1), (REGIME_SIX, 0)),
    ((REGIME_FOUR, 0), (REGIME_SIX, 1)),
)


class CandidateRow(NamedTuple):
    L1: float
    L2: float
    admissible: bool


def _stationary_side(form: str, indicator: int, V: float) -> float:
    if form == REGIME_SIX:
        c = float((1 + indicator) ** 2)
        return math.sqrt(4.0 * SQRT3 * V * c / (21.0 - 3.0 * c))
    c = float((3 - indicator) ** 2)
    return math.sqrt(4.0 * SQRT3 * V * c / (3.0 * (c - 1.0)))


def _regime_consistent(form: str, L: float, V: float) -> bool:
    t = 3.0 * SQRT3 * L * L
    if form == REGIME_SIX:
        return t <= 16.0 * V * (1.0 + REGIME_TOL)
    return t >= 16.0 * V * (1.0 - REGIME_TOL)


def unequal_candidates(alpha: float) -> list[CandidateRow]:
    """The eight stationary (L1, L2) pairs with their admissibility.

    A row is admissible when the cell carrying the indicator has the
    strictly shorter side (equivalently: alpha lies in the row's validity
    range, which is that same inequality in closed form) and both sides
    sit in their claimed regimes.  On (0, 1] only the rows pairing a
    plain six-sided volume-1 cell with an indicator-carrying volume-alpha
    cell survive, and only below alpha = 1/8.
    """
    check_alpha(alpha)
    rows: list[CandidateRow] = []
    for (form1, i1), (form2, i2) in _ROWS:
        L1 = _stationary_side(form1, i1, 1.0)
        L2 = _stationary_side(form2, i2, alpha)
        ordered = L1 < L2 if i1 == 1 else L2 < L1
        ok = (
            ordered
            and _regime_consistent(form1, L1, 1.0)
            and _regime_consistent(form2, L2, alpha)
        )
        rows.append(CandidateRow(L1, L2, ok))
    return rows


def small_alpha_closed_form(alpha: float) -> float:
    """Perimeter of the admissible unequal candidate: 2*3^(1/4)(sqrt(2)+sqrt(alpha))."""
    check_alpha(alpha)
    return 2.0 * 3.0 ** 0.25 * (math.sqrt(2.0) + math.sqrt(alpha))


# --- the equal-side family --------------------------------------------------


def equal_perimeters(
    L: float, alpha: float
) -> tuple[float, Optional[float], Optional[float], Optional[float]]:
    """(P3, P4, P5, P6) on the diagonal L1 = L2 = L; None when infeasible.

    P3 glues two six-sided cells, P4/P5 mix regimes, P6 glues two
    trapezoids; each value is present exactly when its radicands are
    nonnegative.  P3 always exists.
    """
    check_alpha(alpha)
    if not math.isfinite(L) or L < MIN_SIDE:
        raise ValueError(f"side must be >= {MIN_SIDE}")
    u1 = math.sqrt((3.0 * L * L + 4.0 * SQRT3) / 21.0)
    u2 = math.sqrt((3.0 * L * L + 4.0 * SQRT3 * alpha) / 21.0)
    r1 = (3.0 * L * L - 4.0 * SQRT3) / 3.0
    ra = (3.0 * L * L - 4.0 * SQRT3 * alpha) / 3.0
    p3 = 7.0 * u1 + 7.0 * u2 - 3.0 * L
    p4 = 7.0 * u1 + L - math.sqrt(ra) if ra >= 0.0 else None
    p5 = 7.0 * u2 + L - math.sqrt(r1) if r1 >= 0.0 else None
    p6 = 5.0 * L - math.sqrt(r1) - math.sqrt(ra) if r1 >= 0.0 and ra >= 0.0 else None
    return p3, p4, p5, p6


def p3_minimizer(alpha: float) -> tuple[float, float]:
    """(L*, P3(L*)): the unique stationary point of the double-six branch.

    P3 = w (sqrt(3L^2 + 4 sqrt(3)) + sqrt(3L^2 + 4 sqrt(3) alpha)) - 3L,
    w = sqrt(7/3), has a strictly increasing, concave slope, so newton_root
    climbs to its root from the low end of the bracket
    [sqrt(12 sqrt(3) alpha/19), sqrt(12 sqrt(3)/19)], found by bounding
    both radicals by the smaller or by the larger radicand in dP3/dL = 0.
    It closes to the point itself at alpha = 1; a slope still nonpositive
    at the top end makes that end the minimum.
    """
    check_alpha(alpha)
    w = P3_WEIGHT
    a1 = 4.0 * SQRT3
    a2 = 4.0 * SQRT3 * alpha

    def slopes(L: float) -> tuple[float, float]:
        # (P3'(L), P3''(L))
        t = 3.0 * L
        s1 = math.sqrt(a1 + t * L)
        s2 = math.sqrt(a2 + t * L)
        return (
            t * (w / s1) + t * (w / s2) - 3.0,
            3.0 * w * a1 / s1 / s1 / s1 + 3.0 * w * a2 / s2 / s2 / s2,
        )

    hi = math.sqrt(12.0 * SQRT3 / 19.0)
    if slopes(hi)[0] <= 0.0:
        x = hi
    else:
        lo = math.sqrt(12.0 * SQRT3 * alpha / 19.0)
        d, d2 = slopes(lo)  # unpacked: a star call is slower on this hot path
        x = newton_root(slopes, lo, hi, d, d2)
    q = 3.0 * x * x
    return x, w * math.sqrt(a1 + q) + w * math.sqrt(a2 + q) - 3.0 * x


# --- degree-8 polynomial route ----------------------------------------------


def horner(cs: tuple[float, ...], x: float) -> float:
    """Value at x of the polynomial with ascending coefficients cs."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def build_degree8(alpha: float) -> tuple[float, ...]:
    """Radical-free stationarity polynomial for the P3 branch, as its 9
    ascending coefficients c0..c8.

    With Q = 9L^4 + 12 sqrt(3)(1+alpha) L^2 + 48 alpha and
    R = 6L^4 + 4 sqrt(3)(1+alpha) L^2, clearing radicals in dP3/dL = 0
    gives p = 4 L^4 Q / 441 - (Q/49 - R/21)^2, an even polynomial whose
    positive real root is the P3 minimizer.

    That root is the only one: with s = sqrt(3)(1+alpha), Q/49 - R/21 =
    48 alpha/49 + (8s/147) L^2 - (5/49) L^4, so c0 = -(48 alpha/49)^2 <= 0,
    c2 = -2 (48 alpha/49)(8s/147) < 0, c6 = 48s/441 + 240s/21609 > 0,
    c8 = 171/2401 > 0, c4 has either sign and the odd coefficients are 0.
    One sign change means one positive root by Descartes' rule, for every
    alpha > 0.  In floats c0 underflows to 0 below alpha ~ 1e-161 and c2
    below ~ 3e-323, where c4 ~ -(8 sqrt(3)/147)^2 < 0 keeps the one change.
    """
    check_alpha(alpha)
    s = SQRT3 * (1.0 + alpha)
    q = (48.0 * alpha, 0.0, 12.0 * s, 0.0, 9.0)
    r = (0.0, 0.0, 4.0 * s, 0.0, 6.0)
    term1 = (0.0,) * 4 + tuple(4.0 / 441.0 * qi for qi in q)
    inner = [qi / 49.0 - ri / 21.0 for qi, ri in zip(q, r)]
    # inner * inner; every odd coefficient sums products with an exact
    # 0.0 factor, so it stays exactly 0.0.  The products are added left to
    # right, not by sum(), whose float result changed in Python 3.12
    term2 = []
    for k in range(9):
        acc = 0.0
        for i in range(max(0, k - 4), min(k, 4) + 1):
            acc += inner[i] * inner[k - i]
        term2.append(acc)
    return tuple(t1 - t2 for t1, t2 in zip(term1, term2))


# --- the full kissing optimum ------------------------------------------------


class KissingSolution(NamedTuple):
    """Parameters of the glued-pair minimum; kissing_geometry builds its cells."""

    alpha: float
    L1: float
    L2: float
    perimeter: float
    branch: str  # BRANCH_UNEQUAL or BRANCH_EQUAL


def kissing_geometry(
    L1: float, L2: float, alpha: float
) -> tuple[PolyChain, PolyChain, tuple[float, ...], tuple[float, ...]]:
    """Welded pair: cell A above its base, cell B mirrored below, bases
    centered on each other.  Returns (chain_a, chain_b, sides_a, sides_b)
    with A's leftmost-lowest vertex at the origin."""
    sol_a = solve_fixed_side(L1, 1.0)
    sol_b = solve_fixed_side(L2, alpha)
    cx = (L1 - L2) / 2.0
    # mirroring reverses B's orientation, so its vertices are read backwards
    mirrored = [(cx + x, -y) for x, y in reversed(fixed_side_vertices(L2, sol_b.sides))]
    chain_a, chain_b = anchored_pair(fixed_side_vertices(L1, sol_a.sides), mirrored)
    return chain_a, chain_b, sol_a.sides, sol_b.sides


def kissing_minimum(alpha: float) -> KissingSolution:
    """Global minimum over the glued-pair family.

    Below the handoff ratio 1/8 the admissible unequal candidate (row 2)
    wins; at and above it the diagonal P3 minimizer does.  The two agree
    at the handoff, where the candidate collapses onto the diagonal.
    """
    check_alpha(alpha)
    if alpha < HANDOFF_ALPHA * (1.0 - HANDOFF_TOL):
        L1 = _stationary_side(REGIME_SIX, 0, 1.0)
        L2 = _stationary_side(REGIME_SIX, 1, alpha)
        perimeter = kissing_perimeter(L1, L2, alpha)
        return KissingSolution(alpha, L1, L2, perimeter, BRANCH_UNEQUAL)
    L, perimeter = p3_minimizer(alpha)
    return KissingSolution(alpha, L, L, perimeter, BRANCH_EQUAL)
