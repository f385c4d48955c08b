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

Clearing the radicals in dP3/dL = 0 leaves a quartic in L^2 with one
positive root; the solver takes the P3 minimizer as that root in closed
form, with no iteration (p3_minimizer).  The checker certifies the
answer from an independent even degree-8 polynomial in L, by Descartes'
rule and a sign change at it (checks.degree8_certificate).
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
    optimal_perimeter,
    solve_fixed_side,
)

# relative slack when holding a candidate to its claimed regime; stationary
# side pairs may sit exactly on the regime boundary
REGIME_TOL = 1e-12

# alpha at which the unequal candidate collapses onto the diagonal
HANDOFF_ALPHA = 0.125
HANDOFF_TOL = 1e-12

# 7 sqrt((3L^2 + 4 sqrt(3) V)/21) = sqrt(7 L^2 + P3_VOLUME_TERM * V)
P3_VOLUME_TERM = 28.0 * SQRT3 / 3.0

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
    """(L*, P3(L*)): the unique stationary point of the double-six branch,
    in closed form.

    With y = L^2, a1 = 4 sqrt(3), a2 = 4 sqrt(3) alpha and s_i =
    sqrt(3y + a_i), P3 = w (s1 + s2) - 3L, w = sqrt(7/3), and dP3/dL = 0
    reads w L (s1 + s2) = s1 s2.  Squaring it, with S = a1 + a2 and
    P = a1 a2 = 48 alpha, leaves (14/3) y s1 s2 = P + (2/3) S y - 5 y^2;
    squaring that gives the quartic

        171 y^4 + 72 S y^3 + ((286 P - 4 S^2)/9) y^2 - (4/3) P S y - P^2 = 0.

    Its coefficient signs run +, +, either, -, -: one change, so it has
    one positive root (Descartes' rule) and every other real root is
    <= 0.  The largest real root is that positive one, y* = L*^2.

    Ferrari's method loses digits to cancellation on this quartic's
    depressed form, so the root is taken in t = s2/s1 in (0, 1] instead.
    With u_i = w L/s_i, stationarity is u1 + u2 = 1, and t = u1/u2.
    Solving u1 = w L/s1 for y gives y = 12 sqrt(3) t^2/(7 + 14 t - 2 t^2),
    increasing in t on (0, 1]; solving u2 = w L/s2 likewise and equating
    the two gives

        G(t) = 7 t^4 + 14 t^3 - 2 (1 - alpha) t^2 - 14 alpha t - 7 alpha = 0.

    At that y the quartic in y is G(t) times a quartic in t with no
    positive coefficient, over a positive denominator, so the one positive
    root t* of G (one sign change again) maps to y*.  Ferrari's split of G
    is

        G = 7 ((t^2 + t - mu)^2 - (K t + m)^2),

    exact when mu solves the resolvent cubic 14 mu^3 - 2 e mu^2 - 9 alpha e
    = 0 (e = 1 - alpha), m = sqrt(alpha + mu^2) and K = (alpha - mu)/m.
    The cubic has one real root, and it has mu >= e/7, so |K| <= 1: the
    factor t^2 + (1 + K) t + m - mu has no positive root, and t* is the
    positive root of t^2 + (1 - K) t - (m + mu).  Every step below adds
    positive terms only:

    - Cardano, with the second cube root taken as e^2/U (Kahan 1986, as
      in embedded._cubic_min): H = 9261 * 9 alpha e/28,
      U^3 = e^3 + H + sqrt(H (2 e^3 + H)), mu = (U + e^2/U + e)/21;
    - 1 - K = alpha (e + 2 mu)/(m (m + alpha - mu)) when alpha > mu,
      else (m + mu - alpha)/m;
    - t* = 2 (m + mu)/((1 - K) + sqrt((1 - K)^2 + 4 (m + mu)));
    - L* = t* sqrt(12 sqrt(3)/(7 + 2 t* (7 - t*))).

    No Newton step follows.  Against 50-digit roots, over 7,600 random
    ratios in (0, 1], L* lands within 3.6 ulp; one step on dP3/dL from
    there moves it by that slope's rounding noise, to 5.2 ulp on [1/8, 1]
    and 20 ulp below.

    At alpha = 1, e = 0: the resolvent's root mu = 0 is triple and e^2/U
    is 0/0, but t* = 1 exactly (m = K = 1), so that case sets t = 1, and
    L* comes out as the correctly rounded sqrt(12 sqrt(3)/19) (12 sqrt(3)
    over 7 + 2 * 6).  Every alpha in (0, 1] is served, down to 5e-324:
    each quantity but a2 stays O(1).

    The value is P3 written as sqrt(7 L^2 + 28 sqrt(3)/3) +
    sqrt(7 L^2 + 28 sqrt(3) alpha/3) - 3L, whose fewer roundings keep it
    within 2.5 ulp of the 50-digit minimum on the same draws.
    """
    check_alpha(alpha)
    e = 1.0 - alpha
    if e == 0.0:
        t = 1.0
    else:
        # h, u and k are H, U and 1 - K above; 2976.75 = 9261 * 9/28 exactly
        h = 2976.75 * alpha * e
        e3 = e * e * e
        u = (e3 + h + math.sqrt(h * (2.0 * e3 + h))) ** (1.0 / 3.0)
        mu = (u + e * e / u + e) / 21.0
        m = math.sqrt(alpha + mu * mu)
        if alpha > mu:
            k = alpha * (e + 2.0 * mu) / (m * (m + alpha - mu))
        else:
            k = (m + mu - alpha) / m
        q = m + mu
        t = 2.0 * q / (k + math.sqrt(k * k + 4.0 * q))
    x = t * math.sqrt(12.0 * SQRT3 / (7.0 + 2.0 * t * (7.0 - t)))
    p = 7.0 * x * x
    return x, math.sqrt(p + P3_VOLUME_TERM) + math.sqrt(p + P3_VOLUME_TERM * alpha) - 3.0 * x


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
