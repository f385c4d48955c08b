"""Two cells glued along part of one lattice-direction side.

With fixed sides L1 (volume 1, above the axis) and L2 (volume alpha,
mirrored below), the pair's perimeter is

    Popt(L1, 1) + Popt(L2, alpha) - min(L1, L2),

Popt being the active single-cell regime.  The global optimum is the
unequal stationary pair below alpha = 1/8 and the minimizer of the
equal-side branch P3 (both cells six-sided) at or above it; the two agree
at the handoff.  This module holds only what the solver evaluates: those
two closed forms in alpha, which call no single-cell routine, and the
cells they build.  The sum above (checks.kissing_perimeter) and the
paper's exclusions, the eight-row stationary table in (L1, L2) and the
diagonal branches P4..P6 that P3 dominates, live with the checker
(checks.unequal_candidates, checks.equal_perimeters).

Clearing the radicals in dP3/dL = 0 leaves a quartic in L^2 with one
positive root; the solver takes the P3 minimizer as that root in closed
form, with no iteration (p3_minimizer).  The checker certifies the
answer from an independent even degree-8 polynomial in L, by Descartes'
rule and a sign change at it (checks.degree8_certificate).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .hexnorm import SQRT3, PolyChain
from .singlebubble import check_alpha, fixed_side_vertices, solve_fixed_side

# alpha at which the unequal candidate collapses onto the diagonal
HANDOFF_ALPHA = 0.125
HANDOFF_TOL = 1e-12

# 7 sqrt((3L^2 + 4 sqrt(3) V)/21) = sqrt(7 L^2 + P3_VOLUME_TERM * V)
P3_VOLUME_TERM = 28.0 * SQRT3 / 3.0

BRANCH_UNEQUAL = "unequal-candidate"
BRANCH_EQUAL = "equal-p3"

# hoisted from the closed forms below, where each is evaluated first and on its own
_SQRT2 = math.sqrt(2.0)
_4SQRT3 = 4.0 * SQRT3
_12SQRT3 = 12.0 * SQRT3
_UNEQUAL_BELOW = HANDOFF_ALPHA * (1.0 - HANDOFF_TOL)
_L1_UNEQUAL = math.sqrt(4.0 * SQRT3 / 18.0)


def small_alpha_closed_form(alpha: float) -> float:
    """Perimeter of the admissible unequal candidate: 2*3^(1/4)(sqrt(2)+sqrt(alpha))."""
    check_alpha(alpha)
    return 2.0 * 3.0 ** 0.25 * (_SQRT2 + math.sqrt(alpha))


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
    x = t * math.sqrt(_12SQRT3 / (7.0 + 2.0 * t * (7.0 - t)))
    p = 7.0 * x * x
    return x, math.sqrt(p + P3_VOLUME_TERM) + math.sqrt(p + P3_VOLUME_TERM * alpha) - 3.0 * x


# --- the full kissing optimum ------------------------------------------------


class KissingSolution(NamedTuple):
    """Parameters of the glued-pair minimum; kissing_geometry builds its cells."""

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
    a = fixed_side_vertices(L1, sol_a.sides)
    ox, oy = min(a)  # pairs order by (x, y)
    a = [(x - ox, y - oy) for x, y in a]
    b = fixed_side_vertices(L2, sol_b.sides)
    b.reverse()  # the mirror reverses B's orientation
    b = [((cx + x) - ox, -y - oy) for x, y in b]  # mirrored and shifted at once
    return PolyChain(a, True), PolyChain(b, True), sol_a.sides, sol_b.sides


def kissing_minimum(alpha: float) -> KissingSolution:
    """Global minimum over the glued-pair family.

    Below the handoff ratio 1/8 the unequal candidate wins: both cells are
    six-sided, and cell B's side is the shorter, fully shared one.  Each
    side makes 7 sqrt((3L^2 + 4 sqrt(3) V)/21) - (1 + i) L stationary,
    where i = 1 marks the cell whose side is shared in full, so

        L^2 = 4 sqrt(3) V (1 + i)^2 / (21 - 3 (1 + i)^2):

    L1^2 = 4 sqrt(3)/18 for cell A (V = 1, i = 0) and L2^2 = 16 sqrt(3)
    alpha/9 for cell B (V = alpha, i = 1).  L2 < L1 exactly when
    alpha < 1/8, and B sits on its regime boundary 3 sqrt(3) L^2 = 16 V,
    where the six- and four-sided forms agree.  (checks.unequal_candidates
    holds all eight stationary rows with their admissibility.)  The pair's
    perimeter there is the closed form 2 3^(1/4) (sqrt(2) + sqrt(alpha)),
    which no side floor limits.  At and above 1/8 the diagonal P3
    minimizer wins.  The two agree at the handoff, where the candidate
    collapses onto the diagonal.

    Each branch checks the ratio in the closed form it calls first
    (small_alpha_closed_form or p3_minimizer), so this routine does not.
    """
    if alpha < _UNEQUAL_BELOW:
        # the closed form first: it rejects a negative ratio before the sqrt
        perimeter = small_alpha_closed_form(alpha)
        L2 = math.sqrt(_4SQRT3 * alpha * 4.0 / 9.0)
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(KissingSolution, (_L1_UNEQUAL, L2, perimeter, BRANCH_UNEQUAL))
    L, perimeter = p3_minimizer(alpha)
    return tuple.__new__(KissingSolution, (L, L, perimeter, BRANCH_EQUAL))
